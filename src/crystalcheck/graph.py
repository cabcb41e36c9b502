"""Finite 2-edge-colored directed graphs and their string structure.

Everything here is immutable after construction and safe to share between
threads or processes.  An ``Edge`` is its (tail, head, color) triple.  The
graph constructor maps each edge's ends to vertex positions once and keeps
the *index skeleton*, the int columns (tail position, head position,
color); its invariant checks, its (B0) record and the readers below are
passes over those columns.  A graph's string decompositions are computed
on first use and kept on the graph, so every check reads the same string
skeleton.  All derived orderings (string lists, components, cycle
certificates) follow the declared vertex/edge order of the input, so
repeated runs yield identical output.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Union

from .errors import DegreeAxiomError, GraphError, MonochromaticCycleError
from .violations import CLAUSE_B0, Violation, ViolationReport

COLORS = (1, 2)


class Edge(NamedTuple):
    """A directed edge of color 1 or 2, equal to its (tail, head, color) triple."""

    tail: str
    head: str
    color: int


# By name, so an edge that is a plain tuple is refused.
_TAIL, _HEAD, _COLOR = map(operator.attrgetter, Edge._fields)


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
    # The index skeleton: (tail positions, head positions, colors), one
    # entry per edge in declared edge order.
    _skeleton: tuple = field(init=False, repr=False, compare=False)
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
        try:
            indexed = _index(vertices, edges)
        except (AttributeError, KeyError, TypeError):
            # A non-edge, an undeclared endpoint, or an id that has no hash.
            indexed = None
        if indexed is None:
            _raise_first_fault(vertices, edges)
        vertex_index, skeleton, breaches = indexed
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_vertex_index", vertex_index)
        object.__setattr__(self, "_skeleton", skeleton)
        object.__setattr__(self, "_breaches", breaches)
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
        return self._ports[0].get((color, self._vertex_index.get(v)), ())

    def in_edges(self, v: str, color: int) -> tuple[Edge, ...]:
        return self._ports[1].get((color, self._vertex_index.get(v)), ())

    def edges_of_color(self, color: int) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.color == color)

    @functools.cached_property
    def _edge_index(self) -> dict:
        """Each edge's position, keyed by its triple; built on first use."""
        return dict(zip(self.edges, range(len(self.edges))))

    @functools.cached_property
    def _ports(self) -> tuple[dict, dict]:
        """The port index, built on first use: (color, vertex position) ->
        the edges leaving, and the edges entering, the vertex in that color,
        in declared edge order."""
        tails, heads, colors = self._skeleton
        return _group(colors, tails, self.edges), _group(colors, heads, self.edges)


def _index(vertices: tuple, edges: tuple) -> Optional[tuple[dict, tuple, tuple]]:
    """The vertex index, the index skeleton and the (B0) breaches; None, or
    an error, when the graph breaks an invariant.  Each check is one pass
    over a column."""
    vertex_index = dict(zip(vertices, range(len(vertices))))
    if not vertices or len(vertex_index) < len(vertices):
        return None
    colors = tuple(map(_COLOR, edges))
    # Exact ints, checked before any color is hashed, as [1] has no hash.
    if not {*map(type, colors)} <= {int} or not {*colors} <= {*COLORS}:
        return None
    tails = tuple(map(vertex_index.__getitem__, map(_TAIL, edges)))
    heads = tuple(map(vertex_index.__getitem__, map(_HEAD, edges)))
    if any(map(operator.eq, tails, heads)):
        return None
    leaving = _crowded("leaving", colors, tails, vertices)
    # Edges that share no leaving port are distinct triples.
    if leaving and len(set(zip(tails, heads, colors))) < len(edges):
        return None
    return vertex_index, (tails, heads, colors), leaving + _crowded("entering", colors, heads, vertices)


def _raise_first_fault(vertices: tuple, edges: tuple) -> None:
    """Raise the ``GraphError`` for the first fault: each vertex, then each
    edge, is checked once and in order.  Runs only on a graph that ``_index``
    refused, to name what it found."""
    vertex_index: dict = {}
    for pos, v in enumerate(vertices):
        if v in vertex_index:
            raise GraphError("duplicate-vertex", pos, v, f"duplicate vertex id {v!r}")
        vertex_index[v] = pos
    if not vertex_index:
        raise GraphError("empty-vertex-set", None, None, "graph must have at least one vertex")
    claim = {}.setdefault
    for pos, e in enumerate(edges):
        triple = tail, head, color = e.tail, e.head, e.color
        # An int only: True and 1.0 compare equal to 1 but serialize otherwise.
        if type(color) is not int or color not in COLORS:
            raise GraphError("unknown-color", pos, color, f"edge {triple} has color outside {COLORS}")
        if tail not in vertex_index or head not in vertex_index:
            end = head if tail in vertex_index else tail
            raise GraphError("dangling-endpoint", pos, end, f"edge {triple} has an undeclared endpoint")
        # By position, as the columns compare them.
        if vertex_index[tail] == vertex_index[head]:
            raise GraphError("self-loop", pos, tail, f"self-loop at {tail!r}")
        if claim(triple, pos) != pos:
            raise GraphError("duplicate-edge", pos, triple, f"duplicate edge {triple}")
    raise AssertionError("the column checks refused a graph the ordered scan accepts")


def _crowded(direction: str, colors: tuple, ends: tuple, vertices: tuple) -> tuple:
    """Each (color, end) port holding more than one edge, as (direction,
    color, vertex, edge count), in the order the ports are first met."""
    if len(set(zip(colors, ends))) == len(ends):
        return ()
    counts = Counter(zip(colors, ends))
    return tuple((direction, color, vertices[v], count) for (color, v), count in counts.items() if count > 1)


def _group(colors: tuple, ends: tuple, edges: tuple) -> dict:
    """Map each (color, end) port to the tuple of its edges, in edge order.
    Under (B0) no two edges share a port, and each entry is a 1-tuple made
    in one sweep."""
    ports = dict(zip(zip(colors, ends), zip(edges)))
    if len(ports) == len(edges):
        return ports
    grouped: dict = {}
    for key, e in zip(zip(colors, ends), edges):
        grouped.setdefault(key, []).append(e)
    return {key: tuple(port) for key, port in grouped.items()}


@dataclass(frozen=True)
class StringDecomposition:
    """The partition of the vertex set into maximal color-``color`` paths.

    Strings are listed in order of their first vertex in the graph's
    declared vertex order; together they cover every vertex exactly once.
    """

    color: int
    strings: tuple[tuple[str, ...], ...]

    @functools.cached_property
    def _position(self) -> dict:
        """Each vertex's (string index, offset), built on first use."""
        position = {}
        for string_idx, string in enumerate(self.strings):
            for pos, v in enumerate(string):
                position[v] = (string_idx, pos)
        return position

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

    Under (B0) the color's edges map each tail position to its head, so a
    string starts at each position no such edge enters and follows that map.
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

    tails, heads, colors = g._skeleton
    mine = list(map(color.__eq__, colors))
    after = dict(zip(itertools.compress(tails, mine), itertools.compress(heads, mine)))
    entered = set(itertools.compress(heads, mine))
    vertices = g.vertices
    strings = []
    for v in itertools.filterfalse(entered.__contains__, range(len(vertices))):
        string = [vertices[v]]
        while v in after:
            v = after[v]
            string.append(vertices[v])
        strings.append(tuple(string))

    if sum(map(len, strings)) < len(vertices):
        # Every vertex off the strings lies on a monochromatic cycle; report
        # the first one in declared order.
        covered = set(itertools.chain.from_iterable(strings))
        start = g.vertex_index(next(itertools.filterfalse(covered.__contains__, vertices)))
        cycle = [start]
        while after[cycle[-1]] != start:
            cycle.append(after[cycle[-1]])
        cycle.append(start)
        raise MonochromaticCycleError(color, tuple(map(vertices.__getitem__, cycle)))

    decomp = StringDecomposition(color=color, strings=tuple(strings))
    g._strings[color] = decomp
    return decomp


def find_potential(g: ColoredDigraph) -> Union[Potential, CycleCertificate]:
    """Return a potential certifying acyclicity, or an explicit cycle.

    The potential is the longest-path depth from the sources: an integer in
    [0, |V|-1] with pi(u) < pi(v) on every edge.  A graph admits such a
    function exactly when it is acyclic.

    One in-degree (Kahn) sweep over the index skeleton places each vertex
    once all its in-edges are placed, when its depth is final.  A vertex
    left unplaced lies on or behind a cycle; only then does a depth-first
    search run, to name the cycle.
    """
    tails, heads, colors = g._skeleton
    n = len(g.vertices)
    # Each vertex's heads along its 1-edges, then its 2-edges, in edge order.
    successors: list[list[int]] = [[] for _ in range(n)]
    waiting = [0] * n
    for color in COLORS:
        for tail, head in itertools.compress(zip(tails, heads), map(color.__eq__, colors)):
            successors[tail].append(head)
            waiting[head] += 1
    depth = [0] * n
    placed = list(itertools.compress(range(n), map(operator.not_, waiting)))
    for v in placed:  # grows while it is read
        d = depth[v] + 1
        for w in successors[v]:
            if depth[w] < d:
                depth[w] = d
            waiting[w] -= 1
            if not waiting[w]:
                placed.append(w)
    if len(placed) < n:
        return _first_cycle(g.vertices, successors)
    return Potential(values=dict(zip(g.vertices, depth)))


def _first_cycle(vertices: tuple, successors: list[list[int]]) -> CycleCertificate:
    """The first cycle a depth-first search meets, roots in declared order
    and successors in the order listed."""
    WHITE, GRAY, BLACK = 0, 1, 2
    state = [WHITE] * len(vertices)
    for root in range(len(vertices)):
        if state[root] != WHITE:
            continue
        # Iterative DFS; each stack frame tracks its unvisited successors.
        stack = [(root, iter(successors[root]))]
        state[root] = GRAY
        while stack:
            v, pending = stack[-1]
            nxt = next(pending, None)
            if nxt is None:
                stack.pop()
                state[v] = BLACK
            elif state[nxt] == GRAY:
                # Back edge: the gray stack from nxt up to v is a cycle.
                path = [frame[0] for frame in stack]
                cycle = path[path.index(nxt):] + [nxt]
                return CycleCertificate(vertices=tuple(map(vertices.__getitem__, cycle)))
            elif state[nxt] == WHITE:
                state[nxt] = GRAY
                stack.append((nxt, iter(successors[nxt])))
    raise AssertionError("the in-degree sweep left a vertex unplaced in an acyclic graph")


def weak_components(g: ColoredDigraph) -> tuple[tuple[str, ...], ...]:
    """Partition the vertex set into weakly-connected components.

    Components are ordered by their first vertex in declared order, and each
    component lists its vertices in declared order.  One union-find sweep
    over the skeleton's edges (with path halving) joins their ends; reading
    the positions in order then lists each component as its roots are met,
    so nothing is sorted.
    """
    tails, heads, _colors = g._skeleton
    root = list(range(len(g.vertices)))
    for a, b in zip(tails, heads):
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a != b:
            root[b] = a
    components: dict[int, list[str]] = {}
    for v, name in enumerate(g.vertices):
        r = v
        while root[r] != r:
            root[r] = r = root[root[r]]
        components.setdefault(r, []).append(name)
    return tuple(map(tuple, components.values()))
