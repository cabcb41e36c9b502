"""Exhaustive enumeration of small 2-colored digraphs and the
marking/labeling correspondence oracle.

Graphs on n vertices are encoded as fixed-width bit strings: one bit per
(tail position, head position, color) slot, color-1 slots first, each color
block in row-major order over ordered vertex pairs.  Enumeration order is
ascending over this encoding; the canonical form of a graph is the minimal
encoding over all vertex permutations, which deduplicates color- and
direction-preserving isomorphs.  It is found by branch and bound over
partial vertex placements, not by trying every permutation.

Every stream emits the weakly connected acyclic (B0) graphs, the graphs of
the census: canonical forms by default, or every labeled graph.  A
canonical stream first sorts its candidates into classes by a cheaper
complete invariant, the port key, and canonicalizes one candidate per
class.
"""

from __future__ import annotations

import functools
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
    infer_labelings,
    labels_from_marking,
    marking_from_labels,
)
from .errors import BudgetError, CounterexampleError, DegreeAxiomError, PreconditionError
from .graph import (
    ColoredDigraph,
    CycleCertificate,
    Edge,
    decompose_strings,
    find_potential,
)
from .predicates import FAILS, check_corollary2, check_corollary3

MAX_ENUMERATION_VERTICES = 8
MAX_CENSUS_VERTICES = 7
# Graphs per pool task: a check takes well under a millisecond, so one
# round trip per graph would cost more than the check itself.
POOL_CHUNK = 32
# Graphs per window of a census row, so memory stays bounded on every row.
POOL_WINDOW = 8 * POOL_CHUNK

PositionEdge = tuple[int, int, int]  # (tail position, head position, color)


@dataclass(frozen=True)
class GraphStream:
    """The weakly connected acyclic (B0) graphs on 1..``max_vertices``
    vertices: one per isomorphism class if ``canonical``, else every labeled
    one."""

    max_vertices: int
    canonical: bool = True

    def __post_init__(self):
        if not 1 <= self.max_vertices <= MAX_ENUMERATION_VERTICES:
            raise ValueError(
                f"max_vertices must be in [1, {MAX_ENUMERATION_VERTICES}], "
                f"got {self.max_vertices}"
            )


class _Encoder:
    """Bit layout for graphs on a fixed number of vertex positions.

    The slots of one color and one tail position form a *row* of n - 1 bits,
    most significant head position first; rows are ordered by color, then
    by tail position, so the code is the concatenation of its rows.
    """

    def __init__(self, n: int):
        self.n = n
        self.slots: list[PositionEdge] = [
            (i, j, color) for color in (1, 2) for i in range(n) for j in range(n) if i != j
        ]
        total = len(self.slots)
        # bit[(color - 1) * n * n + i * n + j] is the bit of slot (i, j, color).
        self.bit = [0] * (2 * n * n)
        for s, (i, j, color) in enumerate(self.slots):
            self.bit[((color - 1) * n + i) * n + j] = 1 << (total - 1 - s)
        # A row value of tail position p, shifted left by row_shift[color - 1][p],
        # lands in its slots.
        self.row_shift = [
            [total - (block * n + p + 1) * (n - 1) for p in range(n)] for block in (0, 1)
        ]

    def decode(self, code: int) -> tuple[PositionEdge, ...]:
        total = len(self.slots)
        return tuple(slot for s, slot in enumerate(self.slots) if code >> (total - 1 - s) & 1)

    def port_key(self, edges: tuple[PositionEdge, ...]) -> int:
        """A complete isomorphism invariant of a weakly connected (B0) graph.

        Under (B0) every vertex has at most one neighbor per (color,
        direction) port, so a breadth-first numbering from a root that visits
        the ports in a fixed order depends on the root alone.  The key is the
        least encoding over the n renumberings; isomorphic graphs share their
        renumberings, and equal keys encode one and the same graph.
        """
        n, bit = self.n, self.bit
        ports = [[-1] * 4 for _ in range(n)]
        for i, j, color in edges:
            ports[i][2 * color - 2] = j
            ports[j][2 * color - 1] = i
        # A root without a 1-successor leaves the most significant row empty,
        # so it beats every root with one.
        roots = [v for v in range(n) if ports[v][0] < 0] or range(n)
        best = -1
        for root in roots:
            number = [-1] * n
            number[root] = 0
            order = [root]
            for v in order:
                for w in ports[v]:
                    if w >= 0 and number[w] < 0:
                        number[w] = len(order)
                        order.append(w)
            code = 0
            for i, j, color in edges:
                code |= bit[((color - 1) * n + number[i]) * n + number[j]]
            if best < 0 or code < best:
                best = code
        return best

    def canonical_code(self, edges: tuple[PositionEdge, ...]) -> int:
        """The minimal encoding of ``edges`` over all vertex permutations.

        Branch and bound: vertices are placed at positions 0, 1, ... in turn,
        and a partial placement is bounded below row by row.  A placed row
        puts its unplaced heads in its least significant free columns; the
        rows of the unplaced positions take the smallest values their
        vertices can reach, in ascending order (by rearrangement, no
        assignment of them to positions is smaller).  A branch is cut once
        its bound is no smaller than the best code found; with every vertex
        placed the bound is the code itself.
        """
        n = self.n
        heads: list[list[list[int]]] = [[[] for _ in range(n)] for _ in (1, 2)]
        for i, j, color in set(edges):
            heads[color - 1][i].append(j)
        blocks = list(zip(self.row_shift, heads))
        position = [-1] * n
        best = -1

        def bound(placed: int) -> int:
            total = 0
            for shift, block in blocks:
                unplaced_rows = []
                for v in range(n):
                    p = position[v]
                    row = free = 0
                    for h in block[v]:
                        q = position[h]
                        if q < 0:
                            free += 1
                        else:
                            row |= 1 << (n - 2 - (q if p < 0 or q < p else q - 1))
                    row += (1 << free) - 1
                    if p < 0:
                        unplaced_rows.append(row)
                    else:
                        total += row << shift[p]
                unplaced_rows.sort()
                for p, row in enumerate(unplaced_rows, placed):
                    total += row << shift[p]
            return total

        def search(placed: int) -> None:
            nonlocal best
            children = []
            for v in range(n):
                if position[v] < 0:
                    position[v] = placed
                    children.append((bound(placed + 1), v))
                    position[v] = -1
            children.sort()
            for low, v in children:
                if 0 <= best <= low:
                    return
                if placed + 2 >= n:
                    # One vertex is left to place, so the bound is exact.
                    best = low
                    return
                position[v] = placed
                search(placed + 1)
                position[v] = -1

        search(0)
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
    """Raw (B0) candidates on exactly n positions, ascending in the encoding.

    They pair per-color partial injections (color-1 block is the outer loop,
    so the combined encoding is still ascending).  A canonical stream needs
    one representative per class, so its edges go forward only.
    """
    for edges1 in _partial_injections(n, stream.canonical):
        colored1 = tuple((i, j, 1) for i, j in edges1)
        for edges2 in _partial_injections(n, stream.canonical):
            yield colored1 + tuple((i, j, 2) for i, j in edges2)


def _passes_filters(n: int, edges: tuple[PositionEdge, ...], stream: GraphStream) -> bool:
    """Whether the candidate is acyclic and weakly connected.  A canonical
    stream's candidates go forward only, so they need no cycle test."""
    return (stream.canonical or _acyclic_positions(n, edges)) and _connected_positions(n, edges)


def _position_graphs_exactly(
    n: int, stream: GraphStream, check_budget: Callable[[], None] = lambda: None
) -> Iterator[tuple[PositionEdge, ...]]:
    """The stream's edge sets on exactly n positions, in ascending encoding
    order.  ``check_budget`` runs before each candidate is keyed or
    canonicalized and aborts the search by raising."""
    candidates = (
        edges for edges in _candidate_edge_sets(n, stream) if _passes_filters(n, edges, stream)
    )
    if not stream.canonical:
        yield from candidates
        return
    encoder = _Encoder(n)
    keys = set()
    codes = set()
    for edges in candidates:
        check_budget()
        key = encoder.port_key(edges)
        if key not in keys:
            keys.add(key)
            codes.add(encoder.canonical_code(edges))
    for code in sorted(codes):
        yield encoder.decode(code)


def enumerate_graphs(stream: GraphStream) -> Iterator[ColoredDigraph]:
    """Enumerate the stream's graphs on 1..max_vertices vertices.

    Graphs come out by increasing vertex count and, within one count, in
    ascending encoding order; two runs yield identical streams.  With
    ``canonical`` set, exactly one representative per isomorphism class is
    emitted, namely the one with minimal encoding.
    """
    for n in range(1, stream.max_vertices + 1):
        for edges in _position_graphs_exactly(n, stream):
            yield graph_from_position_edges(n, edges)


@dataclass(frozen=True)
class PropositionResult:
    """Outcome of the exhaustive marking/labeling correspondence check."""

    holds: bool
    n_valid_markings: int
    n_valid_labelings: int
    valid_labelings: tuple[Labeling, ...]
    witness_marking: Optional[CentralMarking] = None
    witness_labeling: Optional[Labeling] = None
    detail: str = ""


def _b1_markings(g: ColoredDigraph) -> Iterator[CentralMarking]:
    """Every marking with exactly one central element on each 1-string: one
    of its L vertices or one of its L - 1 edges."""
    options = [
        [(True, v) for v in string] + [(False, pair) for pair in zip(string, string[1:])]
        for string in decompose_strings(g, 1).strings
    ]
    for choice in itertools.product(*options):
        yield CentralMarking(
            central_vertices=frozenset(x for is_vertex, x in choice if is_vertex),
            central_1_edges=frozenset(x for is_vertex, x in choice if not is_vertex),
        )


def check_proposition(g: ColoredDigraph) -> PropositionResult:
    """Verify exhaustively that valid markings and valid labelings are in
    bijection under the two conversion maps.

    Markings are searched over an exact superset of the valid ones, not
    over all subsets: (B1) asks for exactly one central element on each
    1-string, a vertex of it or a 1-edge between two of its consecutive
    vertices.  The 1-strings partition the vertices and hold every 1-edge,
    so the product of these 2L - 1 choices per string holds every marking
    that can pass; ``check_global`` judges each one.  Labelings come from
    ``infer_labelings``, which the tests compare with all 3^n label vectors.

    The conversions must then be mutually inverse between the two valid
    sets.  Requires a degree-valid acyclic graph.
    """
    try:
        labelings = tuple(infer_labelings(g))
    except DegreeAxiomError:
        raise PreconditionError("proposition check requires the degree axiom") from None
    if isinstance(find_potential(g), CycleCertificate):
        raise PreconditionError("proposition check requires an acyclic graph")

    valid_markings = [marking for marking in _b1_markings(g) if not check_global(g, marking)]
    valid_by_vector = {lab.vector(g): lab for lab in labelings}

    n_markings = len(valid_markings)
    n_labelings = len(labelings)

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


def _windows(items: Iterator, size: int) -> Iterator[list]:
    """Consecutive lists of ``size`` items, the last one possibly shorter."""
    while window := list(itertools.islice(items, size)):
        yield window


def census(
    max_vertices: int,
    budget_seconds: Optional[float] = None,
    workers: Optional[int] = None,
    on_corollary_gap: Optional[Callable[[ColoredDigraph, Labeling, object], None]] = None,
) -> list[CensusRow]:
    """Count canonical connected acyclic degree-valid graphs per vertex
    count, together with their valid labelings and markings.

    The labeling/marking totals of each row must agree (the exhaustive
    correspondence is re-verified on every graph; a mismatch raises
    ``CounterexampleError``).  ``on_corollary_gap`` is invoked for every
    valid labeling on which a corollary predicate fails, since those
    predicates are not implied by the axioms checked here.  More than one
    worker checks the graphs in a process pool, ``POOL_CHUNK`` graphs per
    task and ``POOL_WINDOW`` graphs at a time; results are read in order.
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
    check_all = functools.partial(pool.map, chunksize=POOL_CHUNK) if pool is not None else map
    # A serial run checks each graph as soon as it is built.
    window = POOL_WINDOW if pool is not None else 1
    try:
        for n in range(1, max_vertices + 1):
            graphs = (
                graph_from_position_edges(n, edges)
                for edges in _position_graphs_exactly(n, GraphStream(max_vertices=n), check_budget)
            )
            n_graphs = 0
            n_with_labeling = 0
            n_labelings = 0
            n_markings = 0
            # Each checked graph carries its string skeleton, and a pool
            # takes in all of its input at once, so the row is checked in
            # windows: only one window of graphs is held at a time.
            checked = (
                pair for batch in _windows(graphs, window)
                for pair in zip(batch, check_all(check_proposition, batch))
            )
            for g, result in checked:
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
