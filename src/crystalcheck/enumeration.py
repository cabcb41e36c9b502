"""Exhaustive enumeration of small 2-colored digraphs and the
marking/labeling correspondence oracle.

Graphs on n vertices are encoded as fixed-width bit strings: one bit per
(tail position, head position, color) slot, color-1 slots first, each color
block in row-major order over ordered vertex pairs.  Enumeration order is
ascending over this encoding; the canonical form of a graph is the minimal
encoding over all vertex permutations, which deduplicates color- and
direction-preserving isomorphs.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .axioms import (
    CentralMarking,
    Labeling,
    check_global,
    infer_labelings_exhaustive,
    labels_from_marking,
    marking_from_labels,
)
from .errors import BudgetError, CounterexampleError, PreconditionError
from .graph import ColoredDigraph, CycleCertificate, Edge, check_degree_axiom, find_potential
from .predicates import FAILS, check_corollary2, check_corollary3

MAX_ENUMERATION_VERTICES = 8
MAX_CENSUS_VERTICES = 6

PositionEdge = tuple[int, int, int]  # (tail position, head position, color)


@dataclass(frozen=True)
class GraphStream:
    """Configuration for the graph enumerator."""

    max_vertices: int
    require_degree_axiom: bool = True
    require_acyclic: bool = True
    require_connected: bool = True
    canonical: bool = True

    def __post_init__(self):
        if not 1 <= self.max_vertices <= MAX_ENUMERATION_VERTICES:
            raise ValueError(
                f"max_vertices must be in [1, {MAX_ENUMERATION_VERTICES}], "
                f"got {self.max_vertices}"
            )


class _Encoder:
    """Bit layout for graphs on a fixed number of vertex positions."""

    def __init__(self, n: int):
        self.n = n
        slots: list[PositionEdge] = []
        for color in (1, 2):
            for i in range(n):
                for j in range(n):
                    if i != j:
                        slots.append((i, j, color))
        self.slots = slots
        total = len(slots)
        self.bit = {slot: 1 << (total - 1 - s) for s, slot in enumerate(slots)}

    def decode(self, code: int) -> tuple[PositionEdge, ...]:
        return tuple(slot for slot in self.slots if code & self.bit[slot])

    def canonical_code(self, edges: tuple[PositionEdge, ...]) -> int:
        best: Optional[int] = None
        bit = self.bit
        for perm in itertools.permutations(range(self.n)):
            code = 0
            for i, j, color in edges:
                code |= bit[(perm[i], perm[j], color)]
            if best is None or code < best:
                best = code
        assert best is not None
        return best


def _vertex_names(n: int) -> tuple[str, ...]:
    return tuple(f"v{k + 1}" for k in range(n))


def graph_from_position_edges(n: int, edges: tuple[PositionEdge, ...]) -> ColoredDigraph:
    """Materialize a graph on vertices v1..vn from position-edge triples."""
    names = _vertex_names(n)
    return ColoredDigraph(
        vertices=names,
        edges=tuple(Edge(names[i], names[j], color) for i, j, color in edges),
    )


def _partial_injections(n: int, forward_only: bool) -> Iterator[tuple[tuple[int, int], ...]]:
    """All out-degree-/in-degree-at-most-1 edge sets on n positions, in
    ascending order of the row-major bit encoding.

    With ``forward_only`` every edge goes from a lower to a higher position,
    which makes the result acyclic; every acyclic isomorphism class has at
    least one such representative.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out_free = [True] * n
    in_free = [True] * n
    acc: list[tuple[int, int]] = []

    def rec(idx: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if idx == len(pairs):
            yield tuple(acc)
            return
        i, j = pairs[idx]
        yield from rec(idx + 1)
        if out_free[i] and in_free[j] and (not forward_only or j > i):
            out_free[i] = in_free[j] = False
            acc.append((i, j))
            yield from rec(idx + 1)
            acc.pop()
            out_free[i] = in_free[j] = True

    return rec(0)


def _acyclic_positions(n: int, edges: tuple[PositionEdge, ...]) -> bool:
    """Kahn-style cycle test on raw position edges (colors ignored)."""
    indegree = [0] * n
    successors: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    for i, j, _color in edges:
        if (i, j) in seen:
            continue
        seen.add((i, j))
        successors[i].append(j)
        indegree[j] += 1
    queue = [i for i in range(n) if indegree[i] == 0]
    processed = 0
    while queue:
        v = queue.pop()
        processed += 1
        for w in successors[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    return processed == n


def _connected_positions(n: int, edges: tuple[PositionEdge, ...]) -> bool:
    if n == 1:
        return True
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for i, j, _color in edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in neighbors[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _candidate_edge_sets(n: int, stream: GraphStream) -> Iterator[tuple[PositionEdge, ...]]:
    """Raw candidates on exactly n positions, ascending in the encoding.

    Degree-constrained candidates come from pairing per-color partial
    injections (color-1 block is the outer loop, so the combined encoding is
    still ascending).  Without the degree filter every slot subset is tried,
    which is only practical for very small n.
    """
    if not stream.require_degree_axiom:
        encoder = _Encoder(n)
        for code in range(1 << len(encoder.slots)):
            yield encoder.decode(code)
        return

    forward = stream.canonical and stream.require_acyclic
    for edges1 in _partial_injections(n, forward):
        colored1 = tuple((i, j, 1) for i, j in edges1)
        for edges2 in _partial_injections(n, forward):
            yield colored1 + tuple((i, j, 2) for i, j in edges2)


def _passes_filters(n: int, edges: tuple[PositionEdge, ...], stream: GraphStream) -> bool:
    if stream.require_acyclic and not _acyclic_positions(n, edges):
        return False
    if stream.require_connected and not _connected_positions(n, edges):
        return False
    return True


def _position_graphs_exactly(
    n: int, stream: GraphStream, check_budget: Callable[[], None] = lambda: None
) -> Iterator[tuple[PositionEdge, ...]]:
    """Filtered (and, if requested, canonicalized) edge sets on exactly n
    positions, in ascending encoding order.  ``check_budget`` runs before
    each candidate is canonicalized and aborts the search by raising."""
    if stream.canonical:
        encoder = _Encoder(n)
        codes = set()
        for edges in _candidate_edge_sets(n, stream):
            if not _passes_filters(n, edges, stream):
                continue
            check_budget()
            codes.add(encoder.canonical_code(edges))
        for code in sorted(codes):
            yield encoder.decode(code)
    else:
        for edges in _candidate_edge_sets(n, stream):
            if _passes_filters(n, edges, stream):
                yield edges


def enumerate_graphs(stream: GraphStream) -> Iterator[ColoredDigraph]:
    """Enumerate graphs on 1..max_vertices vertices passing the filters.

    Graphs come out by increasing vertex count and, within one count, in
    ascending encoding order; two runs yield identical streams.  With
    ``canonical`` set, exactly one representative per isomorphism class is
    emitted, namely the one with minimal encoding.
    """
    for n in range(1, stream.max_vertices + 1):
        for edges in _position_graphs_exactly(n, stream):
            yield graph_from_position_edges(n, edges)


def _subsets(items: list) -> Iterator[tuple]:
    """All sublists, by bitmask order over item positions."""
    for mask in range(1 << len(items)):
        yield tuple(item for k, item in enumerate(items) if mask >> k & 1)


@dataclass(frozen=True)
class PropositionResult:
    """Outcome of the brute-force marking/labeling correspondence check."""

    holds: bool
    n_valid_markings: int
    n_valid_labelings: int
    valid_labelings: tuple[Labeling, ...]
    witness_marking: Optional[CentralMarking] = None
    witness_labeling: Optional[Labeling] = None
    detail: str = ""


def check_proposition(g: ColoredDigraph) -> PropositionResult:
    """Verify by brute force that valid markings and valid labelings are in
    bijection under the two conversion maps.

    Every subset of vertices and 1-edges is tried as a marking against the
    global axioms, and every label vector against the local axioms; the
    conversions must then be mutually inverse between the two valid sets.
    Requires a degree-valid acyclic graph.
    """
    if check_degree_axiom(g):
        raise PreconditionError("proposition check requires the degree axiom")
    if isinstance(find_potential(g), CycleCertificate):
        raise PreconditionError("proposition check requires an acyclic graph")

    one_edges = [(e.tail, e.head) for e in g.edges if e.color == 1]
    valid_markings: list[CentralMarking] = []
    for vertex_subset in _subsets(list(g.vertices)):
        for edge_subset in _subsets(one_edges):
            marking = CentralMarking(
                central_vertices=frozenset(vertex_subset),
                central_1_edges=frozenset(edge_subset),
            )
            if not check_global(g, marking):
                valid_markings.append(marking)

    valid_by_vector = {lab.vector(g): lab for lab in infer_labelings_exhaustive(g)}

    labelings = tuple(valid_by_vector.values())
    n_markings = len(valid_markings)
    n_labelings = len(valid_by_vector)

    def failure(detail: str, marking=None, labeling=None) -> PropositionResult:
        return PropositionResult(
            holds=False,
            n_valid_markings=n_markings,
            n_valid_labelings=n_labelings,
            valid_labelings=labelings,
            witness_marking=marking,
            witness_labeling=labeling,
            detail=detail,
        )

    marking_set = set(valid_markings)
    for marking in valid_markings:
        lab = labels_from_marking(g, marking)
        vector = lab.vector(g)
        if vector not in valid_by_vector:
            return failure("marking maps to a labeling failing the local axioms", marking=marking)
        if marking_from_labels(g, lab) != marking:
            return failure("marking does not survive the round trip", marking=marking)
    for vector, lab in valid_by_vector.items():
        marking = marking_from_labels(g, lab)
        if marking not in marking_set:
            return failure("labeling maps to a marking failing the global axioms", labeling=lab)
        if labels_from_marking(g, marking).vector(g) != vector:
            return failure("labeling does not survive the round trip", labeling=lab)

    return PropositionResult(
        holds=True,
        n_valid_markings=n_markings,
        n_valid_labelings=n_labelings,
        valid_labelings=labelings,
    )


@dataclass(frozen=True)
class CensusRow:
    """Aggregate counts over all canonical graphs with a fixed vertex count."""

    n: int
    graphs: int
    graphs_with_labeling: int
    labelings: int
    markings: int


CENSUS_CSV_HEADER = "n,graphs,graphs_with_labeling,labelings,markings"


def census_rows_to_csv(rows: list[CensusRow]) -> str:
    lines = [CENSUS_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.n},{row.graphs},{row.graphs_with_labeling},{row.labelings},{row.markings}"
        )
    return "\n".join(lines) + "\n"


def resolve_workers() -> int:
    """Worker count for parallel checking; CRYSTALCHECK_THREADS caps it."""
    raw = os.environ.get("CRYSTALCHECK_THREADS")
    if raw is None:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"CRYSTALCHECK_THREADS must be a positive integer, got {raw!r}")
    return min(cap, os.cpu_count() or 1)


def census(
    max_vertices: int,
    budget_seconds: Optional[float] = None,
    workers: Optional[int] = None,
    on_corollary_gap: Optional[Callable[[ColoredDigraph, Labeling, object], None]] = None,
) -> list[CensusRow]:
    """Count canonical connected acyclic degree-valid graphs per vertex
    count, together with their valid labelings and markings.

    The labeling/marking totals of each row must agree (the brute-force
    correspondence is re-verified on every graph; a mismatch raises
    ``CounterexampleError``).  ``on_corollary_gap`` is invoked for every
    valid labeling on which a corollary predicate fails, since those
    predicates are not implied by the axioms checked here.  More than one
    worker checks the graphs in a process pool; results are read in order.
    Exceeding ``budget_seconds``, checked between enumeration candidates and
    after each graph's result, raises ``BudgetError``.
    """
    if not 1 <= max_vertices <= MAX_CENSUS_VERTICES:
        raise ValueError(
            f"census max_vertices must be in [1, {MAX_CENSUS_VERTICES}], got {max_vertices}"
        )
    if workers is None:
        workers = resolve_workers()
    start = time.monotonic()
    rows: list[CensusRow] = []

    def check_budget() -> None:
        if budget_seconds is not None and time.monotonic() - start > budget_seconds:
            raise BudgetError(budget_seconds, len(rows))

    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    check_all = pool.map if pool is not None else map
    try:
        for n in range(1, max_vertices + 1):
            # Each checked graph carries its string skeleton; teeing the
            # stream instead of listing it lets a serial run drop each graph
            # once its result is read.
            graphs, to_check = itertools.tee(
                graph_from_position_edges(n, edges)
                for edges in _position_graphs_exactly(n, GraphStream(max_vertices=n), check_budget)
            )
            n_graphs = 0
            n_with_labeling = 0
            n_labelings = 0
            n_markings = 0
            for g, result in zip(graphs, check_all(check_proposition, to_check)):
                check_budget()
                if not result.holds:
                    raise CounterexampleError(
                        f"marking/labeling correspondence failed on a {n}-vertex graph: "
                        f"{result.detail}",
                        graph=g,
                    )
                n_graphs += 1
                n_markings += result.n_valid_markings
                n_labelings += result.n_valid_labelings
                if result.n_valid_labelings:
                    n_with_labeling += 1
                if on_corollary_gap is not None:
                    for lab in result.valid_labelings:
                        for report in (check_corollary2(g, lab), check_corollary3(g, lab)):
                            if report.status == FAILS:
                                on_corollary_gap(g, lab, report)

            if n_labelings != n_markings:
                raise CounterexampleError(
                    f"census row {n} breaks the labeling/marking balance: "
                    f"{n_labelings} labelings vs {n_markings} markings"
                )
            rows.append(CensusRow(
                n=n,
                graphs=n_graphs,
                graphs_with_labeling=n_with_labeling,
                labelings=n_labelings,
                markings=n_markings,
            ))
    finally:
        if pool is not None:
            # Drop the graphs not yet started when the loop stops early.
            pool.shutdown(cancel_futures=True)
    return rows
