"""Finite 2-edge-colored directed graphs and their string structure.

Everything here is immutable after construction and safe to share between
threads or processes.  A graph's string decompositions are computed on
first use and kept on the graph, so every check reads the same string
skeleton.  All derived orderings (string lists, components, cycle
certificates) follow the declared vertex/edge order of the input, so
repeated runs yield identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

from .errors import DegreeAxiomError, MonochromaticCycleError
from .violations import CLAUSE_B0, Violation, ViolationReport

COLORS = (1, 2)


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed edge carrying color 1 or 2."""

    tail: str
    head: str
    color: int

    def triple(self) -> tuple[str, str, int]:
        return (self.tail, self.head, self.color)


@dataclass(frozen=True)
class ColoredDigraph:
    """A finite directed graph whose edges are colored 1 or 2.

    Invariants enforced at construction: endpoints are declared vertices,
    vertex ids are unique, no self-loops, and no duplicate
    (tail, head, color) triples.  Parallel edges of *different* colors
    between the same ordered pair are allowed.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    _vertex_index: dict = field(init=False, repr=False, compare=False)
    _edge_index: dict = field(init=False, repr=False, compare=False)
    _out: dict = field(init=False, repr=False, compare=False)
    _in: dict = field(init=False, repr=False, compare=False)
    # color -> StringDecomposition, filled by ``decompose_strings``.
    _strings: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Copied from any iterable, so a generator is read exactly once and
        # a list or set given by the caller cannot change under the graph.
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))

        vertex_index: dict[str, int] = {}
        for pos, v in enumerate(self.vertices):
            if v in vertex_index:
                raise ValueError(f"duplicate vertex id {v!r}")
            vertex_index[v] = pos
        if not vertex_index:
            raise ValueError("graph must have at least one vertex")

        edge_index: dict[tuple[str, str, int], int] = {}
        out: dict[tuple[int, str], list[Edge]] = {}
        inc: dict[tuple[int, str], list[Edge]] = {}
        for pos, e in enumerate(self.edges):
            triple = tail, head, color = e.tail, e.head, e.color
            # An int only: True and 1.0 compare equal to 1 but serialize otherwise.
            if type(color) is not int or color not in COLORS:
                raise ValueError(f"edge {triple} has color outside {COLORS}")
            if tail not in vertex_index or head not in vertex_index:
                raise ValueError(f"edge {triple} has an undeclared endpoint")
            if tail == head:
                raise ValueError(f"self-loop at {tail!r}")
            if triple in edge_index:
                raise ValueError(f"duplicate edge {triple}")
            edge_index[triple] = pos
            out.setdefault((color, tail), []).append(e)
            inc.setdefault((color, head), []).append(e)

        object.__setattr__(self, "_vertex_index", vertex_index)
        object.__setattr__(self, "_edge_index", edge_index)
        object.__setattr__(self, "_out", {k: tuple(v) for k, v in out.items()})
        object.__setattr__(self, "_in", {k: tuple(v) for k, v in inc.items()})
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


@dataclass(frozen=True)
class Potential:
    """An integer vertex function strictly increasing along every edge."""

    values: Mapping[str, int]


@dataclass(frozen=True)
class CycleCertificate:
    """An explicit directed cycle; first and last vertex coincide."""

    vertices: tuple[str, ...]


def check_degree_axiom(g: ColoredDigraph) -> ViolationReport:
    """Check axiom (B0): per color, in- and out-degree at most 1 everywhere.

    Returns one violation per (vertex, color, direction) excess.  Only the
    ports holding more than one edge are visited; the report sorts them.
    """
    violations = [
        Violation(
            clause=CLAUSE_B0,
            at=v,
            detail=f"vertex {v!r} has {len(edges)} {word} {color}-edges (at most 1 allowed)",
        )
        for ports, word in ((g._out, "leaving"), (g._in, "entering"))
        for (color, v), edges in ports.items()
        if len(edges) > 1
    ]
    return ViolationReport.build(g, violations)


def decompose_strings(g: ColoredDigraph, color: int) -> StringDecomposition:
    """Split the color-``color`` subgraph into its maximal directed paths.

    Requires (B0) for the given color and a cycle-free color class; under
    those conditions the decomposition is unique.  It is computed once per
    graph and color; a graph violating the requirements raises every time.
    """
    memo = g._strings.get(color)
    if memo is not None:
        return memo
    if color not in COLORS:
        raise ValueError(f"color must be one of {COLORS}, got {color!r}")
    offenders = [
        v for ports in (g._out, g._in) for (c, v), edges in ports.items()
        if c == color and len(edges) > 1
    ]
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
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    state = {v: WHITE for v in g.vertices}
    postorder: list[str] = []

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
                postorder.append(v)

    depth = {v: 0 for v in g.vertices}
    for v in reversed(postorder):  # topological order
        for e in g.in_edges(v, 1) + g.in_edges(v, 2):
            depth[v] = max(depth[v], depth[e.tail] + 1)
    return Potential(values=depth)


def weak_components(g: ColoredDigraph) -> tuple[tuple[str, ...], ...]:
    """Partition the vertex set into weakly-connected components.

    Components are ordered by their first vertex in declared order, and each
    component lists its vertices in declared order.
    """
    neighbors: dict[str, set[str]] = {v: set() for v in g.vertices}
    for e in g.edges:
        neighbors[e.tail].add(e.head)
        neighbors[e.head].add(e.tail)

    seen: set[str] = set()
    components = []
    for start in g.vertices:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        component = {start}
        while stack:
            v = stack.pop()
            for w in neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    component.add(w)
                    stack.append(w)
        components.append(tuple(sorted(component, key=g.vertex_index)))
    return tuple(components)
