"""Finite 2-edge-colored directed graphs and their string structure.

Everything here is immutable after construction and safe to share between
threads or processes.  An ``Edge`` is its (tail, head, color) triple, and
the graph constructor's one pass over the edges checks the invariants,
builds the port index and records the (B0) breaches that later checks
read.  A graph's string decompositions are computed on first use and kept
on the graph, so every check reads the same string skeleton.  All derived
orderings (string lists, components, cycle certificates) follow the
declared vertex/edge order of the input, so repeated runs yield identical
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple, Union

from .errors import DegreeAxiomError, GraphError, MonochromaticCycleError
from .violations import CLAUSE_B0, Violation, ViolationReport

COLORS = (1, 2)


class Edge(NamedTuple):
    """A directed edge of color 1 or 2, equal to its (tail, head, color) triple."""

    tail: str
    head: str
    color: int


@dataclass(frozen=True)
class ColoredDigraph:
    """A finite directed graph whose edges are colored 1 or 2.

    Invariants enforced at construction: at least one vertex, unique vertex
    ids, colors 1 or 2, declared endpoints, no self-loops, and no duplicate
    (tail, head, color) triples.  Parallel edges of *different* colors
    between the same ordered pair are allowed.  A breach raises
    ``GraphError`` (a ``ValueError``) naming the first offending vertex or
    edge in the order given.  This is the one place these invariants are
    checked; the document parser relies on it.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    _vertex_index: dict = field(init=False, repr=False, compare=False)
    _edge_index: dict = field(init=False, repr=False, compare=False)
    # The port index: (color, vertex) -> the edges leaving (``_out``) or
    # entering (``_in``) the vertex in that color, in declared edge order.
    _out: dict = field(init=False, repr=False, compare=False)
    _in: dict = field(init=False, repr=False, compare=False)
    # The (B0) breaches: (direction, color, vertex, edge count) for each port
    # holding more than one edge; empty exactly when (B0) holds.
    _breaches: tuple = field(init=False, repr=False, compare=False)
    # color -> StringDecomposition, filled by ``decompose_strings``.
    _strings: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Copied from any iterable, so a generator is read exactly once and
        # a list or set given by the caller cannot change under the graph.
        vertices = tuple(self.vertices)
        edges = tuple(self.edges)
        # Each vertex, then each edge, is checked once and in order, so the
        # error names the first fault.
        vertex_index: dict[str, int] = {}
        for pos, v in enumerate(vertices):
            if v in vertex_index:
                raise GraphError("duplicate-vertex", pos, v, f"duplicate vertex id {v!r}")
            vertex_index[v] = pos
        if not vertex_index:
            raise GraphError("empty-vertex-set", None, None, "graph must have at least one vertex")

        edge_index: dict[tuple[str, str, int], int] = {}
        claim = edge_index.setdefault
        for pos, e in enumerate(edges):
            triple = tail, head, color = e.tail, e.head, e.color
            # An int only: True and 1.0 compare equal to 1 but serialize otherwise.
            if type(color) is not int or color not in COLORS:
                message = f"edge {triple} has color outside {COLORS}"
                raise GraphError("unknown-color", pos, color, message)
            if tail not in vertex_index or head not in vertex_index:
                end = head if tail in vertex_index else tail
                message = f"edge {triple} has an undeclared endpoint"
                raise GraphError("dangling-endpoint", pos, end, message)
            if tail == head:
                raise GraphError("self-loop", pos, tail, f"self-loop at {tail!r}")
            if claim(triple, pos) != pos:
                raise GraphError("duplicate-edge", pos, triple, f"duplicate edge {triple}")

        # Each edge is its triple, so transposing gives the columns.
        tails, heads, colors = tuple(zip(*edges)) or ((), (), ())
        out, leaving = _ports(colors, tails, edges, "leaving")
        into, entering = _ports(colors, heads, edges, "entering")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_vertex_index", vertex_index)
        object.__setattr__(self, "_edge_index", edge_index)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", into)
        object.__setattr__(self, "_breaches", leaving + entering)
        object.__setattr__(self, "_strings", {})

    # -- basic accessors -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def vertex_index(self, v: str) -> int:
        return self._vertex_index[v]

    def has_vertex(self, v: str) -> bool:
        return v in self._vertex_index

    def edge_index(self, tail: str, head: str, color: int) -> int:
        return self._edge_index[(tail, head, color)]

    def has_edge(self, tail: str, head: str, color: int) -> bool:
        return (tail, head, color) in self._edge_index

    def out_edges(self, v: str, color: int) -> tuple[Edge, ...]:
        return self._out.get((color, v), ())

    def in_edges(self, v: str, color: int) -> tuple[Edge, ...]:
        return self._in.get((color, v), ())

    def edges_of_color(self, color: int) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.color == color)


def _ports(colors: tuple, ends: tuple, edges: tuple, direction: str) -> tuple[dict, tuple]:
    """Map each (color, vertex) port to its edges, in edge order, and list
    each port holding more than one edge as (direction, color, vertex, edge
    count).  Under (B0) no two edges share a port, and each port is a
    1-tuple made in one sweep; otherwise the edges are grouped."""
    ports = dict(zip(zip(colors, ends), zip(edges)))
    if len(ports) == len(edges):
        return ports, ()
    grouped: dict = {}
    for key, e in zip(zip(colors, ends), edges):
        grouped.setdefault(key, []).append(e)
    crowded = tuple((direction, *key, len(port)) for key, port in grouped.items() if len(port) > 1)
    return {key: tuple(port) for key, port in grouped.items()}, crowded


@dataclass(frozen=True)
class StringDecomposition:
    """The partition of the vertex set into maximal color-``color`` paths.

    Strings are listed in order of their first vertex in the graph's
    declared vertex order; together they cover every vertex exactly once.
    """

    color: int
    strings: tuple[tuple[str, ...], ...]
    _position: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        position = {}
        for string_idx, string in enumerate(self.strings):
            for pos, v in enumerate(string):
                position[v] = (string_idx, pos)
        object.__setattr__(self, "_position", position)

    def string_of(self, v: str) -> tuple[str, ...]:
        return self.strings[self._position[v][0]]

    def position(self, v: str) -> tuple[int, int]:
        """Return (string index, offset within string) for a vertex."""
        return self._position[v]

    def covers(self, v: str) -> bool:
        return v in self._position

    def consecutive(self, tail: str, head: str) -> bool:
        """Whether ``head`` directly follows ``tail`` on one string."""
        string_idx, pos = self._position.get(tail, (-1, -1))
        return self._position.get(head) == (string_idx, pos + 1)


def _reduce_read_only(value):
    """``__reduce__`` for a frozen dataclass whose one field is a read-only
    mapping view: the view cannot be pickled or deep-copied; a dict can."""
    (name,) = value.__dataclass_fields__
    return (type(value), (dict(getattr(value, name)),))


def _hash_read_only(value) -> int:
    """``__hash__`` for such a dataclass: the hash of its mapping's items."""
    (name,) = value.__dataclass_fields__
    return hash(frozenset(getattr(value, name).items()))


@dataclass(frozen=True)
class Potential:
    """An integer vertex function strictly increasing along every edge;
    ``values`` is a read-only copy of the mapping it was built from."""

    values: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))

    __hash__ = _hash_read_only
    __reduce__ = _reduce_read_only


@dataclass(frozen=True)
class CycleCertificate:
    """An explicit directed cycle; first and last vertex coincide."""

    vertices: tuple[str, ...]


def check_degree_axiom(g: ColoredDigraph) -> ViolationReport:
    """Check axiom (B0): per color, in- and out-degree at most 1 everywhere.

    Returns one violation per (vertex, color, direction) excess, read off
    the breaches the graph recorded as it was built; the report sorts them.
    """
    violations = [
        Violation(
            clause=CLAUSE_B0,
            at=v,
            detail=f"vertex {v!r} has {count} {word} {color}-edges (at most 1 allowed)",
        )
        for word, color, v, count in g._breaches
    ]
    return ViolationReport.build(g, violations)


def decompose_strings(g: ColoredDigraph, color: int) -> StringDecomposition:
    """Split the color-``color`` subgraph into its maximal directed paths.

    Requires (B0) for the given color and a cycle-free color class; under
    those conditions the decomposition is unique.  It is computed once per
    graph and color; a graph violating the requirements raises every time.
    A color other than the int 1 or 2 raises ``ValueError``.
    """
    # Before the memo, whose lookup would hash the color or take 1.0 for 1.
    if type(color) is not int or color not in COLORS:
        raise ValueError(f"color must be one of {COLORS}, got {color!r}")
    memo = g._strings.get(color)
    if memo is not None:
        return memo
    offenders = [v for _word, c, v, _count in g._breaches if c == color]
    if offenders:
        v = min(offenders, key=g.vertex_index)
        raise DegreeAxiomError(
            f"vertex {v!r} violates (B0) in color {color}; strings are undefined"
        )

    strings = []
    covered = set()
    for start in g.vertices:
        if g.in_edges(start, color) or start in covered:
            continue
        string = [start]
        covered.add(start)
        current = start
        while True:
            out = g.out_edges(current, color)
            if not out:
                break
            current = out[0].head
            string.append(current)
            covered.add(current)
        strings.append(tuple(string))

    if len(covered) != g.n_vertices:
        # Every uncovered vertex lies on a monochromatic cycle; report the
        # first one in declared order.
        start = next(v for v in g.vertices if v not in covered)
        cycle = [start]
        current = g.out_edges(start, color)[0].head
        while current != start:
            cycle.append(current)
            current = g.out_edges(current, color)[0].head
        cycle.append(start)
        raise MonochromaticCycleError(color, tuple(cycle))

    decomp = StringDecomposition(color=color, strings=tuple(strings))
    g._strings[color] = decomp
    return decomp


def find_potential(g: ColoredDigraph) -> Union[Potential, CycleCertificate]:
    """Return a potential certifying acyclicity, or an explicit cycle.

    The potential is the longest-path depth from the sources: an integer in
    [0, |V|-1] with pi(u) < pi(v) on every edge.  A graph admits such a
    function exactly when it is acyclic.

    One in-degree (Kahn) sweep over the port index places each vertex once
    all its in-edges are placed, when its depth is final.  A vertex left
    unplaced lies on or behind a cycle; only then does a depth-first search
    run, to name the cycle.
    """
    out_get = g._out.get
    waiting = dict.fromkeys(g.vertices, 0)
    for (_, head), edges in g._in.items():
        waiting[head] += len(edges)
    depth = dict.fromkeys(g.vertices, 0)
    placed = [v for v, count in waiting.items() if not count]
    for v in placed:  # grows while it is read
        d = depth[v] + 1
        for e in out_get((1, v), ()) + out_get((2, v), ()):
            w = e.head
            if depth[w] < d:
                depth[w] = d
            count = waiting[w] - 1
            waiting[w] = count
            if not count:
                placed.append(w)
    if len(placed) < len(depth):
        return _first_cycle(g)
    return Potential(values=depth)


def _first_cycle(g: ColoredDigraph) -> CycleCertificate:
    """The first cycle a depth-first search meets, roots and successors
    taken in declared order."""
    WHITE, GRAY, BLACK = 0, 1, 2
    state = {v: WHITE for v in g.vertices}

    def successors(v: str) -> list[str]:
        return [e.head for e in g.out_edges(v, 1) + g.out_edges(v, 2)]

    for root in g.vertices:
        if state[root] != WHITE:
            continue
        # Iterative DFS; each stack frame tracks its unvisited successors.
        stack: list[tuple[str, list[str]]] = [(root, successors(root))]
        state[root] = GRAY
        while stack:
            v, pending = stack[-1]
            if pending:
                nxt = pending.pop(0)
                if state[nxt] == GRAY:
                    # Back edge: the gray stack from nxt up to v is a cycle.
                    path = [frame[0] for frame in stack]
                    cycle = path[path.index(nxt):] + [nxt]
                    return CycleCertificate(vertices=tuple(cycle))
                if state[nxt] == WHITE:
                    state[nxt] = GRAY
                    stack.append((nxt, successors(nxt)))
            else:
                stack.pop()
                state[v] = BLACK
    raise AssertionError("the in-degree sweep left a vertex unplaced in an acyclic graph")


def weak_components(g: ColoredDigraph) -> tuple[tuple[str, ...], ...]:
    """Partition the vertex set into weakly-connected components.

    Components are ordered by their first vertex in declared order, and each
    component lists its vertices in declared order.  One union-find sweep
    over the edges (with path halving) joins their ends; reading the
    vertices in declared order then lists each component as its roots are
    met, so nothing is sorted.
    """
    root = dict(zip(g.vertices, g.vertices))
    for e in g.edges:
        a, b = e.tail, e.head
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            root[b] = a
    components: dict[str, list[str]] = {}
    for v in g.vertices:
        r = v
        while root[r] != r:
            root[r] = r = root[root[r]]
        components.setdefault(r, []).append(v)
    return tuple(map(tuple, components.values()))
