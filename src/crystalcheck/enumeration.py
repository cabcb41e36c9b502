"""Exhaustive enumeration of small 2-colored digraphs and the
marking/labeling correspondence oracle.

Graphs on n vertices are encoded as fixed-width bit strings: one bit per
(tail position, head position, color) slot, color-1 slots first, each color
block in row-major order over ordered vertex pairs.  Enumeration order is
ascending over this encoding; the canonical form of a graph is the minimal
encoding over all vertex permutations, which deduplicates color- and
direction-preserving isomorphs.  Its most significant block, the 1-rows,
follows from the 1-string lengths alone, so the rest is a direct minimum of
the 2-rows over the swaps of equal-length 1-strings.

Every stream emits the weakly connected acyclic (B0) graphs, the graphs of
the census, from one pipeline.  Under (B0) and acyclicity the 1-edges are
disjoint directed paths, so a graph's 1-system is fixed, up to isomorphism,
by the partition of n into its 1-string lengths.  A row runs in shards, one
per partition, which a census or a stream may hand to a process pool.  A
shard's candidates are the 1-strings of ``c1`` joined with every acyclic
partial injection of 2-edges.  The port key, a cheaper complete invariant,
drops the disconnected ones and sorts the rest into isomorphism classes,
and one candidate per class is canonicalized.  A canonical stream emits
these minimal encodings; a labeled stream emits all their relabelings,
which are exactly the row's labeled graphs.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .axioms import (
    CentralMarking,
    Labeling,
    _b2_markings,
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
# A labeled stream holds a whole row before sorting it: 2,866,200 codes at
# n = 6, and about 60 times as many at n = 7.
MAX_LABELED_VERTICES = 6
MAX_CENSUS_VERTICES = 7

PositionEdge = tuple[int, int, int]  # (tail position, head position, color)


@dataclass(frozen=True)
class GraphStream:
    """The weakly connected acyclic (B0) graphs on 1..``max_vertices``
    vertices: one per isomorphism class if ``canonical``, else every labeled
    one, built as the relabelings of those classes (at most
    ``MAX_LABELED_VERTICES`` vertices)."""

    max_vertices: int
    canonical: bool = True

    def __post_init__(self):
        # An int only, as for edge colors: 2.5 would pass the range test.
        max_vertices = self.max_vertices
        if type(max_vertices) is not int or not 1 <= max_vertices <= MAX_ENUMERATION_VERTICES:
            raise ValueError(
                f"max_vertices must be in [1, {MAX_ENUMERATION_VERTICES}], "
                f"got {self.max_vertices}"
            )
        if not self.canonical and self.max_vertices > MAX_LABELED_VERTICES:
            raise ValueError(
                f"max_vertices of a labeled (non-canonical) stream must be at most "
                f"{MAX_LABELED_VERTICES}, got {self.max_vertices}"
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
        """A complete isomorphism invariant of a weakly connected (B0) graph,
        and -1 for a graph that is not weakly connected.

        Under (B0) every vertex has at most one neighbor per (color,
        direction) port, so a breadth-first numbering from a root that visits
        the ports in a fixed order depends on the root alone.  The key is the
        least encoding over the n renumberings; isomorphic graphs share their
        renumberings, and equal keys encode one and the same graph.  The
        search follows all four ports, so it numbers exactly the root's weak
        component.

        Only roots that can give the least encoding are tried.  A root
        without a 1-successor leaves its own 1-row, the most significant
        row, empty, so it beats every root with one.  On a connected graph
        with n >= 2, a root without any 1-edge also beats one with a
        1-predecessor u: that root numbers u first (the 1-successor port is
        visited first, then the 1-predecessor one), and u's only 1-head, at
        position 0, makes row 1 of color 1 equal 2^(n-2).  A root without a
        1-predecessor numbers a 2-neighbor first, whose 1-head, if any, is
        not the root and so sits at position 2 or later: that row is at most
        2^(n-3).
        """
        n, bit = self.n, self.bit
        ports = [[-1] * 4 for _ in range(n)]
        for i, j, color in edges:
            ports[i][2 * color - 2] = j
            ports[j][2 * color - 1] = i
        roots = (
            [v for v in range(n) if ports[v][0] < 0 and ports[v][1] < 0]
            or [v for v in range(n) if ports[v][0] < 0]
            or range(n)
        )
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
            if len(order) < n:
                return -1
            code = 0
            for i, j, color in edges:
                code |= bit[((color - 1) * n + number[i]) * n + number[j]]
            if best < 0 or code < best:
                best = code
        return best

    def relabelings(self, code: int) -> set[int]:
        """The encodings of the graph ``code`` under all n! permutations."""
        n, bit = self.n, self.bit
        edges = self.decode(code)
        return {
            sum(bit[((color - 1) * n + perm[i]) * n + perm[j]] for i, j, color in edges)
            for perm in itertools.permutations(range(n))
        }

    def canonical_code(self, edges: tuple[PositionEdge, ...]) -> int:
        """The minimal encoding of ``edges`` over all vertex permutations.

        The 1-edges must be disjoint directed paths, the 1-strings (else
        ``ValueError``); ``c1`` is their least code alone, which depends
        only on the multiset of string lengths (``_one_block``).
        - The 1-rows are the most significant rows and encode exactly the
          1-edges, so every minimal code starts with ``c1``.
        - The permutations that reach ``c1`` send each 1-string onto a
          string of ``c1`` with the same length, offset by offset: one fixed
          map, each 1-string onto the next unused string of ``c1`` of its
          length, composed with the swaps of equal-length strings.
        - So the canonical code is ``c1`` joined with the least 2-block over
          those swaps.

        A set without 2-edges is its own ``c1``.
        """
        n, bit = self.n, self.bit
        successors: list[list[int]] = [[] for _ in range(n)]
        twos = []
        for i, j, color in set(edges):
            if color == 1:
                successors[i].append(j)
            else:
                twos.append((i, j))
        strings = _one_strings(successors)
        if strings is None:
            raise ValueError("the 1-edges are not disjoint directed paths")
        c1, groups = _one_block(n, tuple(sorted(map(len, strings))))
        if not twos:
            return c1
        by_length: dict[int, list[list[int]]] = {}
        for string in strings:
            by_length.setdefault(len(string), []).append(string)
        targets = [p for group in groups for string in group for p in string]
        position = [0] * n
        best = -1
        for choice in itertools.product(
            *(itertools.permutations(by_length[len(group[0])]) for group in groups)
        ):
            sources = (v for swapped in choice for string in swapped for v in string)
            for v, p in zip(sources, targets):
                position[v] = p
            code = sum(bit[(n + position[i]) * n + position[j]] for i, j in twos)
            if best < 0 or code < best:
                best = code
        return c1 | best

    def _least_code(self, successors: list[list[int]]) -> int:
        """The least encoding of the 1-edges ``successors`` (per vertex, its
        1-heads) over all vertex placements, with no 2-edges.

        A 1-end, a vertex without a 1-head, has an all-zero 1-row wherever
        it goes and every other vertex has a nonzero one, and the 1-rows
        are the most significant rows in position order.  So a placement
        with the s 1-ends at positions 0..s-1 beats any other, and every
        minimal code puts them there: positions below s take the 1-ends,
        the others the rest.

        Branch and bound: vertices are placed at positions 0, 1, ... in
        turn, each from those its position admits.  A partial placement is
        bounded below row by row.  A placed row puts its unplaced heads in
        its least significant free columns; the rows of the unplaced
        positions take the smallest values their vertices can reach, in
        ascending order (by rearrangement, no assignment of them to
        positions is smaller).  A branch is cut once its bound is no
        smaller than the best code found; with every vertex placed the
        bound is the code itself.  A position with one candidate is forced
        and gets no bound.

        The bound reads only the rows with heads.  The unplaced rows without
        heads are zero and sort first, so they take the first unplaced
        positions, and the sorted nonzero rows take the last ones.
        """
        n = self.n
        shift = self.row_shift[0]
        rows = [(v, heads) for v, heads in enumerate(successors) if heads]
        one_ends = n - len(rows)
        position = [-1] * n
        placed = 0
        best = -1

        def bound() -> int:
            total = 0
            unplaced_rows = []
            for v, row_heads in rows:
                p = position[v]
                row = free = 0
                for h in row_heads:
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
            for p, row in enumerate(unplaced_rows, n - len(unplaced_rows)):
                total += row << shift[p]
            return total

        def search() -> None:
            nonlocal best, placed
            if placed == n:
                code = bound()
                if best < 0 or code < best:
                    best = code
                return
            needs_head = placed >= one_ends
            candidates = [
                v for v, heads in enumerate(successors)
                if position[v] < 0 and bool(heads) == needs_head
            ]
            if len(candidates) == 1:
                children = [(-1, candidates[0])]  # forced: never cut
            else:
                children = []
                for v in candidates:
                    position[v] = placed
                    children.append((bound(), v))
                    position[v] = -1
                children.sort()
            for low, v in children:
                if 0 <= best <= low:
                    return
                position[v] = placed
                placed += 1
                search()
                placed -= 1
                position[v] = -1

        search()
        return best


def _one_strings(successors: list[list[int]]) -> Optional[list[list[int]]]:
    """The 1-strings, each from its start, when the 1-edges (``successors``
    per vertex) are disjoint directed paths; None otherwise."""
    heads = [h for row in successors for h in row]
    if len(set(heads)) < len(heads) or any(len(row) > 1 for row in successors):
        return None
    strings = []
    for v in sorted(set(range(len(successors))).difference(heads)):
        string = [v]
        while successors[string[-1]]:
            string.append(successors[string[-1]][0])
        strings.append(string)
    # The vertices left over lie on 1-cycles.
    return strings if sum(map(len, strings)) == len(successors) else None


@functools.cache
def _one_block(n: int, lengths: tuple[int, ...]) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
    """``c1``, the least code of 1-strings with these ``lengths`` on n
    positions and no 2-edges, and ``c1``'s 1-strings, each as its positions
    from start to end, grouped by length in ascending order.

    The forest search (``_Encoder._least_code``) finds ``c1`` on a forest
    with these lengths; each process does so once per n and length
    multiset.
    """
    successors = [[v + 1] for v in range(n)]
    for end in itertools.accumulate(lengths):
        successors[end - 1] = []
    encoder = _Encoder(n)
    c1 = encoder._least_code(successors)
    successors = [[] for _ in range(n)]
    for i, j, _ in encoder.decode(c1):
        successors[i].append(j)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for string in _one_strings(successors):
        groups.setdefault(len(string), []).append(tuple(string))
    return c1, tuple(tuple(groups[length]) for length in sorted(groups))


def graph_from_position_edges(n: int, edges: tuple[PositionEdge, ...]) -> ColoredDigraph:
    """Materialize a graph on vertices v1..vn from position-edge triples."""
    names = tuple(f"v{k + 1}" for k in range(n))
    return ColoredDigraph(
        vertices=names,
        edges=tuple(Edge(names[i], names[j], color) for i, j, color in edges),
    )


def _partitions(n: int, largest: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """The multisets of positive integers summing to n, as ascending tuples:
    the 1-string lengths a graph on n vertices can have."""
    if n == 0:
        yield ()
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield rest + (part,)


def _candidates(n: int, lengths: tuple[int, ...]) -> Iterator[tuple[PositionEdge, ...]]:
    """Row n's candidates whose 1-strings have these ``lengths``: the
    1-edges of ``c1`` (``_one_block``), to which those of every such graph
    are isomorphic, with every partial injection of 2-edges that closes no
    cycle and leaves at least n - 1 edges, the fewest a connected graph has.

    The 2-edges are chosen tail position by tail position, each an unused
    head or none.  ``reach[v]``, the bitmask of the positions reachable from
    v (v included), refuses a 2-edge (p, j) with p in ``reach[j]``, which
    would close a cycle.
    """
    c1, _ = _one_block(n, lengths)
    ones = _Encoder(n).decode(c1)
    reach = [1 << v for v in range(n)]
    for i, j, _ in ones:
        reach = [r | reach[j] if r >> i & 1 else r for r in reach]

    def extend(p: int, reach: list[int], free: int, edges: tuple) -> Iterator:
        if p == n:
            yield edges
            return
        if len(edges) >= p:  # n - 1 edges stay reachable without one at p
            yield from extend(p + 1, reach, free, edges)
        for j in range(n):
            if free >> j & 1 and not reach[j] >> p & 1:
                joined = [r | reach[j] if r >> p & 1 else r for r in reach]
                yield from extend(p + 1, joined, free ^ 1 << j, edges + ((p, j, 2),))

    yield from extend(0, reach, (1 << n) - 1, ones)


def _shard_codes(n: int, deadline: float, lengths: tuple[int, ...]) -> Optional[set[int]]:
    """The canonical codes of row n's classes whose 1-strings have these
    ``lengths``, one per port key among the ``_candidates``; the lengths are
    an isomorphism invariant, so no class spans two shards.  Returns None
    once ``time.monotonic()``, read before each candidate, passes
    ``deadline``."""
    encoder = _Encoder(n)
    keys = set()
    codes = set()
    for edges in _candidates(n, lengths):
        if time.monotonic() > deadline:
            return None
        key = encoder.port_key(edges)
        if key >= 0 and key not in keys:
            keys.add(key)
            codes.add(encoder.canonical_code(edges))
    return codes


def _row_codes(
    n: int, deadline: float = math.inf, map_shards: Callable = map
) -> Optional[list[int]]:
    """The sorted canonical codes of the weakly connected acyclic (B0)
    graphs on n vertices, or None if a shard passed ``deadline``.

    ``map_shards`` runs ``_shard_codes`` over the shards, one per partition
    of n into 1-string lengths: ``map`` in this process, or a process
    pool's ``map``.
    """
    codes: set[int] = set()
    for shard in map_shards(functools.partial(_shard_codes, n, deadline), _partitions(n)):
        if shard is None:
            return None
        codes |= shard
    return sorted(codes)


@contextlib.contextmanager
def _shard_map(workers: int) -> Iterator[Callable]:
    """The ``map`` that runs a row's shards: the builtin for one worker,
    else a process pool's, the pool shut down on exit with the shards not
    yet started dropped."""
    if workers == 1:
        yield map
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)


def _position_graphs_exactly(
    n: int, stream: GraphStream, map_shards: Callable = map
) -> Iterator[tuple[PositionEdge, ...]]:
    """The stream's edge sets on exactly n positions, in ascending encoding
    order, the row's shards run by ``map_shards``.  A labeled stream is the
    relabelings of the row's canonical codes, so the whole row is held
    before it is sorted."""
    encoder = _Encoder(n)
    codes = _row_codes(n, map_shards=map_shards)
    if not stream.canonical:
        codes = sorted({relabeled for code in codes for relabeled in encoder.relabelings(code)})
    for code in codes:
        yield encoder.decode(code)


def enumerate_graphs(stream: GraphStream) -> Iterator[ColoredDigraph]:
    """Enumerate the stream's graphs on 1..max_vertices vertices.

    Graphs come out by increasing vertex count and, within one count, in
    ascending encoding order; two runs yield identical streams.  With
    ``canonical`` set, exactly one representative per isomorphism class is
    emitted, namely the one with minimal encoding.  The stream reads
    CRYSTALCHECK_THREADS when it starts (``resolve_workers``, which raises
    ``ValueError`` for a bad value); with more than one worker each row's
    shards run in one process pool, shut down when the stream ends or is
    closed.  The stream is the same for any worker count.
    """
    with _shard_map(resolve_workers()) as map_shards:
        for n in range(1, stream.max_vertices + 1):
            for edges in _position_graphs_exactly(n, stream, map_shards):
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


def check_proposition(g: ColoredDigraph) -> PropositionResult:
    """Verify exhaustively that valid markings and valid labelings are in
    bijection under the two conversion maps.

    Markings are not searched over all subsets.  ``_b2_markings`` builds
    them slot by slot, one central element per 1-string as (B1) states, and
    drops every choice under which some 2-string cannot read R* C L* as
    (B2) states; its docstring shows that no valid marking is dropped.
    ``check_global`` judges each marking it builds, and only those it
    accepts are counted.  Labelings come from ``infer_labelings``, which
    the tests compare with all 3^n label vectors.

    The conversions must then be mutually inverse between the two valid
    sets, and one pass over the markings shows it.  It maps each valid
    marking m to a labeling L(m), which must be valid, and back, where
    M(L(m)) must be m; so L is injective on the valid markings.  Then L is
    a bijection with inverse M exactly when every valid labeling is hit:
    a hit labeling l = L(m) has M(l) = m valid and L(M(l)) = l.  A labeling
    that no valid marking hits is the witness of a failure.  Requires a
    degree-valid acyclic graph.
    """
    try:
        labelings = tuple(infer_labelings(g))
    except DegreeAxiomError:
        raise PreconditionError("proposition check requires the degree axiom") from None
    if isinstance(find_potential(g), CycleCertificate):
        raise PreconditionError("proposition check requires an acyclic graph")

    valid_markings = [
        marking for marking in _b2_markings(decompose_strings(g, 1), decompose_strings(g, 2))
        if not check_global(g, marking)
    ]
    valid_by_vector = {lab.vector(g): lab for lab in labelings}

    def result(detail: str = "", marking=None, labeling=None) -> PropositionResult:
        return PropositionResult(
            holds=not detail,
            n_valid_markings=len(valid_markings),
            n_valid_labelings=len(labelings),
            valid_labelings=labelings,
            witness_marking=marking,
            witness_labeling=labeling,
            detail=detail,
        )

    hit = set()
    for marking in valid_markings:
        lab = labels_from_marking(g, marking)
        vector = lab.vector(g)
        if vector not in valid_by_vector:
            return result("marking maps to a labeling failing the local axioms", marking=marking)
        if marking_from_labels(g, lab) != marking:
            return result("marking does not survive the round trip", marking=marking)
        hit.add(vector)
    for vector, lab in valid_by_vector.items():
        if vector not in hit:
            return result("no valid marking maps to this labeling", labeling=lab)
    return result()


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
    """Worker count for the enumeration shards of a census or a stream;
    CRYSTALCHECK_THREADS caps it."""
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

    The labeling/marking totals of each row must agree (the exhaustive
    correspondence is re-verified on every graph; a mismatch raises
    ``CounterexampleError``).  ``on_corollary_gap`` is invoked for every
    valid labeling on which a corollary predicate fails, since those
    predicates are not implied by the axioms checked here.  More than one
    worker runs each row's enumeration shards in a process pool; the main
    process then checks the row's graphs in order, so the output is the
    same for any worker count.  The budget is one deadline, read before
    each enumeration candidate and after each graph is checked; passing it
    raises ``BudgetError``.  A ``max_vertices`` or worker count that is not
    an int, a NaN or negative budget, or fewer than one worker, raises
    ``ValueError``.
    """
    if type(max_vertices) is not int or not 1 <= max_vertices <= MAX_CENSUS_VERTICES:
        raise ValueError(
            f"census max_vertices must be in [1, {MAX_CENSUS_VERTICES}], got {max_vertices}"
        )
    if budget_seconds is not None and not budget_seconds >= 0:
        raise ValueError(f"census budget_seconds must be a number >= 0, got {budget_seconds}")
    if workers is None:
        workers = resolve_workers()
    elif type(workers) is not int or workers < 1:
        raise ValueError(f"census workers must be at least 1, got {workers}")
    deadline = math.inf if budget_seconds is None else time.monotonic() + budget_seconds
    rows: list[CensusRow] = []
    with _shard_map(workers) as map_shards:
        for n in range(1, max_vertices + 1):
            codes = _row_codes(n, deadline, map_shards)
            if codes is None:
                raise BudgetError(budget_seconds, len(rows))
            encoder = _Encoder(n)
            n_with_labeling = n_labelings = n_markings = 0
            for code in codes:
                g = graph_from_position_edges(n, encoder.decode(code))
                result = check_proposition(g)
                if time.monotonic() > deadline:
                    raise BudgetError(budget_seconds, len(rows))
                if not result.holds:
                    raise CounterexampleError(
                        f"marking/labeling correspondence failed on a {n}-vertex graph: "
                        f"{result.detail}",
                        graph=g,
                    )
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
            rows.append(CensusRow(n, len(codes), n_with_labeling, n_labelings, n_markings))
    return rows
