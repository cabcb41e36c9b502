"""Exhaustive enumeration of small 2-colored digraphs and the
marking/labeling correspondence oracle.

Graphs on n vertices are encoded as fixed-width bit strings: one bit per
(tail position, head position, color) slot, color-1 slots first, each color
block in row-major order over ordered vertex pairs.  Enumeration order is
ascending over this encoding; the canonical form of a graph is the minimal
encoding over all vertex permutations, which deduplicates color- and
direction-preserving isomorphs.  Its most significant block, the 1-rows,
follows from the 1-string lengths alone.

Every stream emits the weakly connected acyclic (B0) graphs, the graphs of
the census, from one pipeline.  Under (B0) and acyclicity the 1-edges are
disjoint directed paths, so a graph's 1-system is fixed, up to isomorphism,
by the partition λ of n into its 1-string lengths.  A row runs in shards,
one per partition, which a census or a stream may hand to a process pool.
A shard's candidates are the 1-strings of ``c1`` joined with every acyclic
partial injection of 2-edges that makes one weak component; a branch that
cannot reach one is cut as soon as too few positions are left to join its
parts.  Its classes are the orbits of the candidates under Aut(λ), the
swaps of equal-length 1-strings.  One sweep in ascending encoding order
meets each orbit first at its least member, and the shards run in
ascending ``c1``, so each row comes out in order.  A canonical stream emits
these minimal encodings, as the edges the sweep drew them with; a labeled
stream emits all their relabelings, which are exactly the row's labeled
graphs.  A census shard screens each class on the candidate that finds it
and hands back the edges of those with a labeling or a marking.
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
    _labels_from_marking,
    _marking_from_labels,
    _network,
    _propagate,
    _slot_layout,
    _slot_search,
    check_global,
    check_local,
    infer_labelings,
)
from .documents import graph_from_position_edges
from .errors import BudgetError, CounterexampleError, DegreeAxiomError, PreconditionError
from .graph import ColoredDigraph, CycleCertificate, decompose_strings, find_potential
from .predicates import FAILS, _corollaries

MAX_ENUMERATION_VERTICES = 8
# A labeled stream holds a whole row before sorting it: 2,866,200 codes at
# n = 6, and about 60 times as many at n = 7.
MAX_LABELED_VERTICES = 6
MAX_CENSUS_VERTICES = 8

PositionEdge = tuple[int, int, int]  # (tail position, head position, color)


@dataclass(frozen=True)
class GraphStream:
    """The weakly connected acyclic (B0) graphs on 1..``max_vertices``
    vertices: one per isomorphism class if ``canonical``, else every labeled
    one, built as the relabelings of those classes (at most
    ``MAX_LABELED_VERTICES`` vertices).  A ``max_vertices`` out of range or
    not an int, or a ``canonical`` not a bool, raises ``ValueError``."""

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
        # A bool only: "no" would read as true and None as false.
        if type(self.canonical) is not bool:
            raise ValueError(f"canonical must be True or False, got {self.canonical!r}")
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

    def decode(self, code: int) -> tuple[PositionEdge, ...]:
        """The slots of the set bits of ``code``, most significant first."""
        top = len(self.slots) - 1
        edges = []
        while code:
            high = code.bit_length() - 1
            edges.append(self.slots[top - high])
            code ^= 1 << high
        return tuple(edges)

    def relabelings(self, code: int) -> set[int]:
        """The encodings of the graph ``code`` under all n! permutations."""
        n, bit = self.n, self.bit
        edges = self.decode(code)
        return {
            sum(bit[((color - 1) * n + perm[i]) * n + perm[j]] for i, j, color in edges)
            for perm in itertools.permutations(range(n))
        }


@functools.cache
def _two_bits(n: int) -> list[int]:
    """``bit[i * n + j]``, the bit of the 2-edge (i, j) in a code on n
    positions."""
    return _Encoder(n).bit[n * n:]


def _one_strings(n: int, edges) -> list[tuple[int, ...]]:
    """The 1-strings of the position edges ``edges``, disjoint directed
    paths over positions 0..n-1, each from its start."""
    after = {i: j for i, j, color in edges if color == 1}
    heads = set(after.values())
    strings = []
    for v in range(n):
        if v not in heads:
            string = [v]
            while string[-1] in after:
                string.append(after[string[-1]])
            strings.append(tuple(string))
    return strings


@functools.cache
def _one_block(n: int, lengths: tuple[int, ...]) -> tuple:
    """``c1``, the least code of 1-strings with these ``lengths`` on n
    positions and no 2-edges; its 1-edges, in ``decode``'s order; and its
    1-strings, each as its positions from start to end, grouped by length.

    A 1-end, a position without a 1-head, has an all-zero 1-row, and every
    other position has a 1-row with one bit, at its head; the 1-rows are
    the most significant rows, in position order.  So a placement with the
    s = len(``lengths``) 1-ends at positions 0..s-1 beats any other, and
    every minimal code puts them there.  Such a placement is fixed by its
    head tuple (h_s, ..., h_{n-1}) of distinct positions, and row p holds
    the bit of h_p the lower the larger h_p is: the greater of two head
    tuples in lexicographic order has the smaller code.

    ``itertools.permutations`` over the positions in descending order
    yields every tuple of n - s distinct heads in exactly that order, so
    the first whose strings have these lengths is ``c1``.  A self-loop or
    a cycle leaves its positions off every string (its heads are taken, so
    no edge enters it from outside) and fails the length test; any other
    tuple's edges are s disjoint paths over all n positions, ending at
    0..s-1.  Each process scans once per n and length multiset.
    """
    s = len(lengths)
    for heads in itertools.permutations(reversed(range(n)), n - s):
        edges = [(p, q, 1) for p, q in enumerate(heads, s)]
        strings = _one_strings(n, edges)
        if sorted(map(len, strings)) == list(lengths):
            break
    bit = _Encoder(n).bit
    c1 = sum(bit[p * n + q] for p, q, _ in edges)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for string in strings:
        groups.setdefault(len(string), []).append(string)
    return c1, tuple(edges), tuple(tuple(groups[length]) for length in sorted(groups))


def _partitions(n: int, largest: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """The multisets of positive integers summing to n, as ascending tuples:
    the 1-string lengths a graph on n vertices can have."""
    if n == 0:
        yield ()
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield rest + (part,)


def _candidates(n: int, lengths: tuple[int, ...]) -> Iterator[tuple[int, tuple[PositionEdge, ...]]]:
    """Row n's weakly connected candidates whose 1-strings have these
    ``lengths``: the 1-edges of ``c1`` (``_one_block``), to which those of
    every such graph are isomorphic, with every partial injection of
    2-edges that closes no cycle and joins the 1-strings into one weak
    component; each as its 2-block, the 2-rows of its code, and its edges.

    The 2-edges are chosen tail position by tail position, each an unused
    head or none.  ``reach[v]``, the bitmask of the positions reachable from
    v (v included), refuses a 2-edge (p, j) with p in ``reach[j]``, which
    would close a cycle.  ``part[v]`` is the bitmask of v's weak component
    and ``parts`` their number.  Each position still undecided has one
    2-edge at most, which joins two parts at most, so a node at position p
    with ``parts - 1 > n - p`` has no connected leaf and is cut: a child
    that joins no parts is made only while ``parts <= n - p``, and every
    leaf has one part.  The children of position n - 1 are leaves, yielded
    in the order they would pop.  The candidates come in ascending code
    order: the 2-rows are the least significant rows, in position order,
    and each takes none first, then heads n - 1 down to 0, whose bits rise
    in turn.
    """
    _, ones, _ = _one_block(n, lengths)
    bit = _two_bits(n)
    reach = [1 << v for v in range(n)]
    for i, j, _ in ones:
        reach = [r | reach[j] if r >> i & 1 else r for r in reach]
    # v's part is its 1-string, the reach of the string's start: the
    # largest reach that holds v.
    part = [max(r for r in reach if r >> v & 1) for v in range(n)]

    # A stack of (position, reach, free heads, part, parts, 2-block, edges);
    # the last pushed pops first.
    stack = [(0, reach, (1 << n) - 1, part, n - len(ones), 0, ones)]
    while stack:
        p, reach, free, part, parts, block, edges = stack.pop()
        spare = parts <= n - p  # a child may join no parts
        if p == n - 1:  # the children are leaves, yielded as they would pop
            if parts == 1:
                yield block, edges
            for j in reversed(range(n)):
                if free >> j & 1 and not reach[j] >> p & 1 and (spare or not part[p] >> j & 1):
                    yield block | bit[p * n + j], edges + ((p, j, 2),)
            continue
        for j in range(n):
            if free >> j & 1 and not reach[j] >> p & 1:
                within = part[p] >> j & 1
                if within and not spare:
                    continue
                joined = [r | reach[j] if r >> p & 1 else r for r in reach]
                if within:
                    kept, left = part, parts
                else:
                    merged = part[p] | part[j]
                    kept, left = [merged if q & merged else q for q in part], parts - 1
                stack.append(
                    (p + 1, joined, free ^ 1 << j, kept, left, block | bit[p * n + j],
                     edges + ((p, j, 2),))
                )
        if spare:
            stack.append((p + 1, reach, free, part, parts, block, edges))


def _shard_codes(n: int, lengths: tuple[int, ...], deadline: float = math.inf) -> Iterator[tuple]:
    """The canonical code of each of row n's classes whose 1-strings have
    these ``lengths`` λ, one per orbit of Aut(λ) on ``_candidates``, and
    the edges of the candidate that finds it, which are the code's slots in
    ``_Encoder.decode``'s order; the lengths are an isomorphism invariant,
    so no class spans two shards.  Stops once ``time.monotonic()``, read
    before each candidate, passes ``deadline``.

    Aut(λ) is the swaps of equal-length 1-strings of ``c1`` (``_one_block``),
    applied offset by offset; this is the orbit method of isomorph
    rejection.
    - An isomorphism between two candidates maps 1-edges onto 1-edges, and
      both have the 1-edges of ``c1``.  So it maps each 1-string of ``c1``
      onto one of the same length, offset by offset: it lies in Aut(λ).
    - Aut(λ) maps the 1-edges of ``c1`` onto themselves and the 2-edges
      one to one, so it keeps acyclicity, the 2-edges' partial injection
      and weak connectivity.  Every orbit lies inside the shard, and the
      orbits of the candidates, all connected, are exactly its classes.
    - The 1-rows are the most significant rows and encode exactly the
      1-edges, so every minimal code starts with ``c1``.  The permutations
      that reach ``c1`` send each 1-string onto a string of ``c1`` with the
      same length, offset by offset; on a candidate they are Aut(λ).  So
      the canonical code is ``c1`` joined with the least 2-block over the
      orbit.  ``_candidates`` yields the shard in ascending code order, so
      the first member of an orbit met is that least, and codes ascend.

    A candidate whose 2-block is in ``seen`` lies in an orbit already
    recorded.  The sweep draws each candidate once, so ``seen`` takes the
    images under every automorphism but the identity, and a shard whose
    Aut(λ) is trivial keeps none.
    """
    c1, _, groups = _one_block(n, lengths)
    bit = _two_bits(n)
    automorphisms = []
    for choice in itertools.product(*map(itertools.permutations, groups)):
        position = [0] * n
        for group, images in zip(groups, choice):
            for string, image in zip(group, images):
                for p, q in zip(string, image):
                    position[p] = q
        automorphisms.append(position)
    del automorphisms[0]  # the identity: every group's strings in order
    ones = n - sum(map(len, groups))
    seen: set[int] = set()
    for block, edges in _candidates(n, lengths):
        if time.monotonic() > deadline:
            return
        if block in seen:
            continue
        if automorphisms:
            twos = edges[ones:]
            seen.update(
                sum(bit[position[i] * n + position[j]] for i, j, _ in twos)
                for position in automorphisms
            )
        yield c1 | block, edges


def _shards(n: int) -> list[tuple[int, ...]]:
    """The partitions of n into 1-string lengths, one per shard, by
    ascending ``c1``: the most significant block of each code of its shard."""
    return sorted(_partitions(n), key=lambda lengths: _one_block(n, lengths)[0])


def _stream_shard(n: int, lengths: tuple[int, ...]) -> list[int]:
    """The codes of ``_shard_codes``, as a pool's worker hands a shard back."""
    return [code for code, _ in _shard_codes(n, lengths)]


def _row_codes(n: int, map_shards: Callable = map) -> Iterator[tuple]:
    """The canonical codes of the weakly connected acyclic (B0) graphs on
    n vertices, in ascending order, each with its position edges: the
    shards of ``_shards(n)``, run in order by ``map_shards``.  The builtin
    ``map`` sweeps each shard in this process as its codes are read, and
    yields the sweep's own edges.  A pool's workers send codes alone, which
    are decoded here: the workers set the pace, and a row's edges waiting
    in this process would double its memory."""
    shards = _shards(n)
    if map_shards is map:
        return itertools.chain.from_iterable(map(functools.partial(_shard_codes, n), shards))
    decode = _Encoder(n).decode
    return (
        (code, decode(code))
        for shard in map_shards(functools.partial(_stream_shard, n), shards) for code in shard
    )


def _screen(n: int, edges: tuple[PositionEdge, ...], layout: tuple) -> bool:
    """Whether the census graph on n positions with these edges, its
    1-strings laid out as ``layout`` (``_slot_layout``), has a labeling or
    a marking (exact, see ``census``): propagation on its label masks,
    then, if a domain empties, the slot search of ``_b2_markings`` on its
    2-edges."""
    domains, incident = _network(n, edges)
    if _propagate(domains, edges, incident, list(range(len(edges)))):
        return True
    twos = [(i, j) for i, j, color in edges if color == 2]
    return next(_slot_search(layout, twos), None) is not None


def _census_shard(n: int, deadline: float, lengths: tuple[int, ...]) -> Optional[tuple]:
    """The count of ``_shard_codes``' classes and, in code order, the edges
    of those that ``_screen`` keeps, each screened on the candidate that
    finds it; or None once the deadline passes, read before each candidate
    and at the end."""
    _, _, groups = _one_block(n, lengths)
    layout = _slot_layout(list(itertools.chain(*groups)))
    graphs, survivors = 0, []
    for _, edges in _shard_codes(n, lengths, deadline):
        graphs += 1
        if _screen(n, edges, layout):
            survivors.append(edges)
    if time.monotonic() > deadline:
        return None
    return graphs, survivors


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


def position_graphs(stream: GraphStream) -> Iterator[tuple[int, tuple[PositionEdge, ...]]]:
    """The stream's graphs as (n, position edges) on 1..max_vertices
    positions, by increasing n and, within one n, in ascending encoding
    order; two runs yield identical streams.  With ``canonical`` set,
    exactly one representative per isomorphism class is emitted, namely the
    one with minimal encoding, and a row streams shard by shard, each graph
    as ``_row_codes`` gives its edges.  A labeled row is the relabelings of
    those codes, held whole before it is sorted and decoded.  The
    stream reads CRYSTALCHECK_THREADS when it starts (``resolve_workers``,
    which raises ``ValueError`` for a bad value); with more than one worker
    each row's shards run in one process pool, shut down when the stream
    ends or is closed.  The stream is the same for any worker count.
    """
    with _shard_map(resolve_workers()) as map_shards:
        for n in range(1, stream.max_vertices + 1):
            row = _row_codes(n, map_shards)
            if stream.canonical:
                for _, edges in row:
                    yield n, edges
                continue
            encoder = _Encoder(n)
            for code in sorted({image for code, _ in row for image in encoder.relabelings(code)}):
                yield n, encoder.decode(code)


def enumerate_graphs(stream: GraphStream) -> Iterator[ColoredDigraph]:
    """The graphs of ``position_graphs`` on vertices v1, v2, ..."""
    with contextlib.closing(position_graphs(stream)) as positions:
        for n, edges in positions:
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

    Markings are not searched over all subsets.  ``_b2_markings`` puts one
    central element on each 1-string, as (B1) states, and prunes per-string
    slot masks until every 2-string reads R* C L*, as (B2) states; its
    propagation removes no slot a valid marking uses and its leaves pass
    every constraint, so it yields exactly the valid markings, in slot
    order (``_slot_search`` carries the argument).  Labelings come from
    ``infer_labelings``, which the tests compare with all 3^n label
    vectors.  Each object is judged once: ``check_global`` each marking and
    ``check_local`` each labeling, and only those accepted are counted.

    The conversions must then be mutually inverse between the two valid
    sets, and one pass over the markings shows it.  It maps each valid
    marking m to a labeling L(m), which must be a valid one, and back,
    where M(L(m)) must be m; so L is injective on the valid markings.  Both
    maps run unchecked, as their arguments have been judged.  Then L is
    a bijection with inverse M exactly when every valid labeling is hit:
    a hit labeling l = L(m) has M(l) = m valid and L(M(l)) = l.  A labeling
    that no valid marking hits is the witness of a failure.  Requires a
    degree-valid acyclic graph.

    Where label propagation empties a domain and the slot search has no
    leaf, both sets are empty (0 = 0); ``census`` screens such graphs out
    unbuilt.
    """
    try:
        inferred = infer_labelings(g)
    except DegreeAxiomError:
        raise PreconditionError("proposition check requires the degree axiom") from None
    if isinstance(find_potential(g), CycleCertificate):
        raise PreconditionError("proposition check requires an acyclic graph")

    valid_markings = [
        marking for marking in _b2_markings(decompose_strings(g, 1), decompose_strings(g, 2))
        if not check_global(g, marking)
    ]
    labelings = tuple(lab for lab in inferred if not check_local(g, lab))
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
        lab = _labels_from_marking(g, marking)
        vector = lab.vector(g)
        if vector not in valid_by_vector:
            return result("marking maps to a labeling failing the local axioms", marking=marking)
        if _marking_from_labels(g, lab) != marking:
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
    correspondence is re-verified on every graph the screen keeps; a
    mismatch raises ``CounterexampleError``).  The shards screen each class
    on the candidate that finds it (``_screen``); whether a graph has a
    labeling or a marking is an isomorphism invariant, and the screen is
    exact: an emptied label domain means no labeling, by
    ``infer_labelings``' argument, and a slot search (``_slot_search``, the
    search of ``_b2_markings``) with no leaf means no marking, by its
    docstring; such a graph's proposition is 0 = 0.  On rows 1 to 8 the slot
    search's first propagation alone refutes every class without a marking,
    so the screen never branches on them.  ``on_corollary_gap`` is invoked
    for every valid labeling on which a corollary predicate fails, since
    those predicates are not implied by the axioms checked here.  More than
    one worker runs each row's shards in a process pool; the shards return
    their survivors' edges in code order and in ``_shards`` order, so the
    main process builds and checks them in code order, unsorted and
    undecoded, for any worker count.  The budget is one deadline, read
    before each enumeration candidate, at the end of each shard and
    after each graph is checked; passing it raises ``BudgetError``.  A
    ``max_vertices`` or worker count that is not an int, a budget that is
    not an int or float or is NaN or negative, or fewer than one worker,
    raises ``ValueError``.
    """
    if type(max_vertices) is not int or not 1 <= max_vertices <= MAX_CENSUS_VERTICES:
        raise ValueError(
            f"census max_vertices must be in [1, {MAX_CENSUS_VERTICES}], got {max_vertices}"
        )
    # An int or float only: "5" and [1] cannot be compared with 0, and True
    # is not a number of seconds.
    if budget_seconds is not None and (
        type(budget_seconds) not in (int, float) or not budget_seconds >= 0
    ):
        raise ValueError(f"census budget_seconds must be a number >= 0, got {budget_seconds!r}")
    if workers is None:
        workers = resolve_workers()
    elif type(workers) is not int or workers < 1:
        raise ValueError(f"census workers must be at least 1, got {workers}")
    deadline = math.inf if budget_seconds is None else time.monotonic() + budget_seconds
    rows: list[CensusRow] = []
    with _shard_map(workers) as map_shards:
        for n in range(1, max_vertices + 1):
            graphs, survivors = 0, []
            for shard in map_shards(functools.partial(_census_shard, n, deadline), _shards(n)):
                if shard is None:
                    raise BudgetError(budget_seconds, len(rows))
                graphs += shard[0]
                survivors += shard[1]
            n_with_labeling = n_labelings = n_markings = 0
            for edges in survivors:
                g = graph_from_position_edges(n, edges)
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
                        for report in _corollaries(g, lab):
                            if report.status == FAILS:
                                on_corollary_gap(g, lab, report)

            if n_labelings != n_markings:
                raise CounterexampleError(
                    f"census row {n} breaks the labeling/marking balance: "
                    f"{n_labelings} labelings vs {n_markings} markings"
                )
            rows.append(CensusRow(n, graphs, n_with_labeling, n_labelings, n_markings))
    return rows
