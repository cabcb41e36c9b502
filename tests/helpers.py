"""Shared builders, oracles, and hypothesis strategies for the test suite.

The oracles here (Kahn cycle test, depth-first potential, neighbor-set
components, the ordered scan that names a graph's first fault, potentials,
components and strings over name-keyed port dicts, the one-loop document
parser, (B0) by a scan of every port, round-robin arc consistency,
labelings among all 3^n label vectors, permutation isomorphism test, minimal encoding over all vertex
permutations and by a vertex-by-vertex search, least breadth-first
renumbering over all roots, every (B0) edge set, the (B1) slot product,
valid markings among all subsets) are kept independent of the library's
own algorithms so the two can check each other.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Iterator, Mapping

from hypothesis import strategies as st

from crystalcheck import (
    CentralMarking,
    ColoredDigraph,
    CycleCertificate,
    DegreeAxiomError,
    DocumentError,
    Edge,
    GraphDocument,
    Labeling,
    MonochromaticCycleError,
    Potential,
    check_global,
    enumeration,
)
from crystalcheck.axioms import (
    LABEL_VALUES,
    _EDGE_CLASS,
    _network,
    _require_degree_axiom,
)
from crystalcheck.documents import _parse_centers, _parse_labels
from crystalcheck.graph import StringDecomposition


def graph(vertices, edges) -> ColoredDigraph:
    """Build a graph from vertex ids and (tail, head, color) triples."""
    return ColoredDigraph(
        vertices=tuple(vertices),
        edges=tuple(Edge(t, h, c) for t, h, c in edges),
    )


def doc_bytes(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


# Syntactically hostile inputs that the JSON decoder itself refuses to build.
HOSTILE_DOCUMENTS = {
    "deep-nesting": b"[" * 100_000,
    "long-color": (
        b'{"vertices":["a","b"],"edges":[{"from":"a","to":"b","color":'
        + b"1" * 5000 + b"}]}"
    ),
    # A lone surrogate: valid JSON, but no text output can encode the id.
    "surrogate-vertex": b'{"vertices":["\\ud800"],"edges":[]}',
}


# Canonical graphs per vertex count.  Up to n = 4 they are cross-checked
# against the permutation-based isomorphism oracle in test_enumeration.py;
# n = 5 is the census row, and n = 6 is pinned with the enumerate output.
CANONICAL_COUNTS = {1: 1, 2: 3, 3: 13, 4: 74, 5: 503, 6: 3986}

# Labeled graphs per vertex count, by hand for n = 2: a lone edge of either
# color (x2 directions) plus a parallel 1+2 pair (x2 directions) = 6.  Up to
# n = 4 they are cross-checked against every (B0) edge set.
LABELED_COUNTS = {1: 1, 2: 6, 3: 78, 4: 1764}


def labeling(g: ColoredDigraph, values) -> Labeling:
    return Labeling(labels=dict(zip(g.vertices, values)))


# -- named fixture graphs --------------------------------------------------

def path5() -> ColoredDigraph:
    """v1 -1> v2 -2> v3 -2> v4 -1> v5; unique valid labeling (c,1,c,0,c)."""
    return graph(
        ["v1", "v2", "v3", "v4", "v5"],
        [("v1", "v2", 1), ("v2", "v3", 2), ("v3", "v4", 2), ("v4", "v5", 1)],
    )


def chain4() -> ColoredDigraph:
    """up -2> u -1> v -2> vp; unique valid labeling (c,0,1,c) with a central
    1-edge (u, v)."""
    return graph(
        ["up", "u", "v", "vp"],
        [("up", "u", 2), ("u", "v", 1), ("v", "vp", 2)],
    )


def single_vertex() -> ColoredDigraph:
    return graph(["a"], [])


def bare_1_edge() -> ColoredDigraph:
    return graph(["u", "v"], [("u", "v", 1)])


def corollary2_gap_graph() -> ColoredDigraph:
    """Locally valid 5-vertex graph whose central 1-edge (u, v) has a
    non-central 2-predecessor at u; unique labeling (c,0,0,1,c)."""
    return graph(
        ["w", "up", "u", "v", "vp"],
        [("w", "up", 2), ("up", "u", 2), ("up", "u", 1), ("u", "v", 1), ("v", "vp", 2)],
    )


def corollary3_holds_graph() -> ColoredDigraph:
    """6-vertex graph instantiating the corollary-3 hypothesis and passing
    it; unique labeling (c,0,1,0,c,c)."""
    return graph(
        ["p", "u", "v", "w", "wp", "q"],
        [("p", "u", 2), ("u", "v", 1), ("u", "w", 2), ("w", "wp", 1), ("v", "q", 2)],
    )


def corollary3_gap_graph() -> ColoredDigraph:
    """Locally valid 7-vertex graph where the central 1-edge (u, v) has a
    2-successor w whose 1-successor is not central; unique labeling
    (c,0,1,0,0,c,c)."""
    return graph(
        ["p", "u", "v", "w", "wp", "x", "q"],
        [("p", "u", 2), ("u", "v", 1), ("u", "w", 2), ("w", "wp", 1),
         ("v", "q", 2), ("q", "wp", 2), ("wp", "x", 1)],
    )


# -- independent oracles ---------------------------------------------------

def kahn_is_acyclic(g: ColoredDigraph) -> bool:
    """Cycle test by repeated source removal; independent of find_potential."""
    indegree = {v: 0 for v in g.vertices}
    successors = {v: [] for v in g.vertices}
    seen = set()
    for e in g.edges:
        if (e.tail, e.head) in seen:
            continue
        seen.add((e.tail, e.head))
        successors[e.tail].append(e.head)
        indegree[e.head] += 1
    queue = [v for v in g.vertices if indegree[v] == 0]
    done = 0
    while queue:
        v = queue.pop()
        done += 1
        for w in successors[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    return done == len(g.vertices)


def port_scan_b0(g: ColoredDigraph) -> tuple[list[tuple[str, str]], dict[int, str | None]]:
    """(B0) by counting the edges at every vertex, color and direction in
    the declared edge list; independent of the graph's port index.

    Returns the (vertex, detail) pairs ``check_degree_axiom`` must report,
    in report order, and per color the ``DegreeAxiomError`` text that
    ``decompose_strings`` must raise, or None when (B0) holds in that color.
    """
    entries = []
    errors: dict[int, str | None] = {1: None, 2: None}
    for v in g.vertices:
        details = []
        for color in (1, 2):
            for word in ("leaving", "entering"):
                count = sum(
                    1 for e in g.edges
                    if e.color == color and (e.tail if word == "leaving" else e.head) == v
                )
                if count > 1:
                    details.append(
                        f"vertex {v!r} has {count} {word} {color}-edges (at most 1 allowed)"
                    )
                    if errors[color] is None:
                        errors[color] = (
                            f"vertex {v!r} violates (B0) in color {color}; strings are undefined"
                        )
        entries.extend((v, detail) for detail in sorted(details))
    return entries, errors


def dfs_potential(g: ColoredDigraph):
    """Longest-path depths by a depth-first postorder, or the first cycle
    the search meets (roots and successors in declared order): the
    potential and certificate a one-pass in-degree sweep must reproduce."""
    state = {v: 0 for v in g.vertices}  # 0 unvisited, 1 on the stack, 2 done
    postorder = []

    def successors(v):
        return [e.head for e in g.out_edges(v, 1) + g.out_edges(v, 2)]

    for root in g.vertices:
        if state[root]:
            continue
        stack = [(root, successors(root))]
        state[root] = 1
        while stack:
            v, pending = stack[-1]
            if pending:
                nxt = pending.pop(0)
                if state[nxt] == 1:
                    path = [frame[0] for frame in stack]
                    return CycleCertificate(vertices=tuple(path[path.index(nxt):] + [nxt]))
                if not state[nxt]:
                    state[nxt] = 1
                    stack.append((nxt, successors(nxt)))
            else:
                stack.pop()
                state[v] = 2
                postorder.append(v)
    depth = {v: 0 for v in g.vertices}
    for v in reversed(postorder):
        for e in g.in_edges(v, 1) + g.in_edges(v, 2):
            depth[v] = max(depth[v], depth[e.tail] + 1)
    return Potential(values=depth)


def neighbor_components(g: ColoredDigraph) -> tuple[tuple[str, ...], ...]:
    """Weak components by search over per-vertex neighbor sets, each listed
    in declared order, ordered by first vertex."""
    neighbors = {v: set() for v in g.vertices}
    for e in g.edges:
        neighbors[e.tail].add(e.head)
        neighbors[e.head].add(e.tail)
    seen = set()
    components = []
    for start in g.vertices:
        if start in seen:
            continue
        component, stack = {start}, [start]
        while stack:
            for w in neighbors[stack.pop()] - component:
                component.add(w)
                stack.append(w)
        seen |= component
        components.append(tuple(v for v in g.vertices if v in component))
    return tuple(components)


def graph_fault(vertices, edges):
    """The (kind, index, value) of the ``GraphError`` that ``ColoredDigraph``
    must raise on these vertices and edges, or None when it must accept
    them: one ordered scan, each vertex and then each edge checked once, so
    the first fault in input order is named.  An edge is read by field
    name, so a plain tuple raises ``AttributeError`` where the scan meets
    it."""
    index = {}
    for pos, v in enumerate(vertices):
        if v in index:
            return "duplicate-vertex", pos, v
        index[v] = pos
    if not index:
        return "empty-vertex-set", None, None
    seen = set()
    for pos, e in enumerate(edges):
        tail, head, color = e.tail, e.head, e.color
        if type(color) is not int or color not in (1, 2):
            return "unknown-color", pos, color
        if tail not in index:
            return "dangling-endpoint", pos, tail
        if head not in index:
            return "dangling-endpoint", pos, head
        if tail == head:
            return "self-loop", pos, tail
        if (tail, head, color) in seen:
            return "duplicate-edge", pos, (tail, head, color)
        seen.add((tail, head, color))
    return None


def name_ports(g: ColoredDigraph) -> tuple[dict, dict]:
    """(color, vertex name) -> the edges leaving, and entering, the vertex in
    that color, in edge order: a port index keyed by names, built from the
    edge list alone."""
    out, into = {}, {}
    for e in g.edges:
        out.setdefault((e.color, e.tail), []).append(e)
        into.setdefault((e.color, e.head), []).append(e)
    return out, into


def dict_potential(g: ColoredDigraph):
    """``find_potential`` over name-keyed port dicts: a Kahn sweep, and on
    a vertex left unplaced the first cycle a depth-first search meets
    (roots in declared order, successors along 1-edges then 2-edges)."""
    out, into = name_ports(g)
    waiting = dict.fromkeys(g.vertices, 0)
    for (_, head), edges in into.items():
        waiting[head] += len(edges)
    depth = dict.fromkeys(g.vertices, 0)
    placed = [v for v, count in waiting.items() if not count]
    for v in placed:
        for e in out.get((1, v), []) + out.get((2, v), []):
            depth[e.head] = max(depth[e.head], depth[v] + 1)
            waiting[e.head] -= 1
            if not waiting[e.head]:
                placed.append(e.head)
    if len(placed) == len(depth):
        return Potential(values=depth)
    state = dict.fromkeys(g.vertices, 0)  # 0 unvisited, 1 on the stack, 2 done
    for root in g.vertices:
        if state[root]:
            continue
        stack = [(root, [e.head for e in out.get((1, root), []) + out.get((2, root), [])])]
        state[root] = 1
        while stack:
            v, pending = stack[-1]
            if not pending:
                stack.pop()
                state[v] = 2
                continue
            nxt = pending.pop(0)
            if state[nxt] == 1:
                path = [frame[0] for frame in stack]
                return CycleCertificate(vertices=tuple(path[path.index(nxt):] + [nxt]))
            if not state[nxt]:
                state[nxt] = 1
                stack.append((nxt, [e.head for e in out.get((1, nxt), []) + out.get((2, nxt), [])]))
    raise AssertionError("no cycle behind an unplaced vertex")


def dict_components(g: ColoredDigraph) -> tuple[tuple[str, ...], ...]:
    """``weak_components`` by union-find over a name-keyed root dict."""
    root = dict(zip(g.vertices, g.vertices))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for e in g.edges:
        a, b = find(e.tail), find(e.head)
        if a != b:
            root[b] = a
    components: dict = {}
    for v in g.vertices:
        components.setdefault(find(v), []).append(v)
    return tuple(map(tuple, components.values()))


def dict_strings(g: ColoredDigraph, color: int) -> StringDecomposition:
    """``decompose_strings`` over name-keyed port dicts: the (B0) error for
    the first crowded vertex in declared order, else the strings walked from
    each vertex no ``color``-edge enters, else the cycle through the first
    vertex they miss."""
    out, into = name_ports(g)
    for v in g.vertices:
        if len(out.get((color, v), [])) > 1 or len(into.get((color, v), [])) > 1:
            raise DegreeAxiomError(
                f"vertex {v!r} violates (B0) in color {color}; strings are undefined"
            )
    strings, covered = [], set()
    for start in g.vertices:
        if (color, start) in into:
            continue
        string = [start]
        while (color, string[-1]) in out:
            string.append(out[color, string[-1]][0].head)
        covered.update(string)
        strings.append(tuple(string))
    missed = [v for v in g.vertices if v not in covered]
    if missed:
        cycle = [missed[0]]
        while out[color, cycle[-1]][0].head != missed[0]:
            cycle.append(out[color, cycle[-1]][0].head)
        raise MonochromaticCycleError(color, tuple(cycle + [missed[0]]))
    return StringDecomposition(color=color, strings=tuple(strings))


def parse_document_oracle(data) -> GraphDocument:
    """The document parser as one loop that checks every vertex and edge in
    document order, shape and graph checks interleaved; labels and centers
    are read by the library's own readers."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentError("malformed-syntax", "<document>", f"not valid UTF-8: {exc}")
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise DocumentError("malformed-syntax", f"line {exc.lineno} column {exc.colno}", exc.msg)
    except RecursionError:
        raise DocumentError("malformed-syntax", "<document>", "nesting too deep")
    except ValueError:
        raise DocumentError("malformed-syntax", "<document>", "integer literal too long")

    if not isinstance(raw, dict):
        raise DocumentError("invalid-structure", "<document>", "top level must be a JSON object")
    for key in raw:
        if key not in ("vertices", "edges", "labels", "centers"):
            raise DocumentError("unknown-key", key, f"unknown top-level key {key!r}")
    for key in ("vertices", "edges"):
        if key not in raw:
            raise DocumentError("invalid-structure", key, f"missing required key {key!r}")

    vertices = raw["vertices"]
    if not isinstance(vertices, list) or any(not isinstance(x, str) for x in vertices):
        raise DocumentError("invalid-structure", "vertices", "expected an array of strings")
    if not vertices:
        raise DocumentError("empty-vertex-set", "vertices", "a graph must declare at least one vertex")
    declared = set()
    for i, v in enumerate(vertices):
        if v in declared:
            raise DocumentError("duplicate-vertex", f"vertices[{i}]", f"vertex {v!r} declared twice")
        try:
            v.encode("utf-8")
        except UnicodeEncodeError:
            raise DocumentError("malformed-syntax", f"vertices[{i}]", "vertex id is not valid UTF-8")
        declared.add(v)

    if not isinstance(raw["edges"], list):
        raise DocumentError("invalid-structure", "edges", "expected an array of edge objects")
    edges = []
    seen_triples = set()
    for i, item in enumerate(raw["edges"]):
        loc = f"edges[{i}]"
        if not isinstance(item, dict):
            raise DocumentError("invalid-structure", loc, "edge must be an object")
        if set(item) != {"from", "to", "color"}:
            raise DocumentError(
                "invalid-structure", loc,
                "edge object must have exactly the keys ['color', 'from', 'to']",
            )
        tail, head, color = item["from"], item["to"], item["color"]
        if not isinstance(tail, str) or not isinstance(head, str):
            raise DocumentError("invalid-structure", loc, "'from' and 'to' must be strings")
        if isinstance(color, bool) or not isinstance(color, int) or color not in (1, 2):
            raise DocumentError("unknown-color", loc, f"color must be 1 or 2, got {color!r}")
        for endpoint in (tail, head):
            if endpoint not in declared:
                raise DocumentError("dangling-endpoint", loc, f"undeclared vertex {endpoint!r}")
        if tail == head:
            raise DocumentError("self-loop", loc, f"self-loop at {tail!r}")
        triple = (tail, head, color)
        if triple in seen_triples:
            raise DocumentError("duplicate-edge", loc, f"duplicate edge {triple}")
        seen_triples.add(triple)
        edges.append(Edge(tail=tail, head=head, color=color))

    g = ColoredDigraph(vertices=tuple(vertices), edges=tuple(edges))
    labels = _parse_labels(raw["labels"], g) if "labels" in raw else None
    marking = _parse_centers(raw["centers"], g) if "centers" in raw else None
    return GraphDocument(graph=g, labels=labels, marking=marking)


@dataclass(frozen=True)
class _LocalClauses:
    """The local axioms of one graph, compiled over vertex positions.

    ``allowed[k]`` holds the labels that the endpoint clauses (B1(ii),
    B2(ii)) leave the k-th declared vertex, in ``LABEL_VALUES`` order; no
    endpoint clause excludes c, so none is empty.  Each ``(t, h, pairs)`` in
    ``edges`` is one edge clause (B1(i), B2(i)): the labels at positions t
    and h must form one of the admissible pairs of the edge's color.
    """

    allowed: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[int, int, Mapping[tuple[str, str], str]], ...]

    def admits(self, vector: tuple[str, ...]) -> bool:
        """Whether the label vector (declared vertex order) breaks no clause,
        that is, whether ``check_local`` reports nothing for it."""
        for value, allowed in zip(vector, self.allowed):
            if value not in allowed:
                return False
        for t, h, pairs in self.edges:
            if (vector[t], vector[h]) not in pairs:
                return False
        return True


def kernel_network(g: ColoredDigraph) -> tuple[list, list[int], list[list[int]]]:
    """``g`` on the propagation kernel's indices, the k-th declared vertex
    at index k: its edges as (tail, head, color) index triples, then the
    unary label masks and the incident-edge lists ``_network`` gives."""
    index = g._vertex_index
    edges = [(index[e.tail], index[e.head], e.color) for e in g.edges]
    return (edges, *_network(len(g.vertices), edges))


def labels_in(mask: int) -> set[str]:
    """The labels of a kernel label mask, bit k for ``LABEL_VALUES[k]``."""
    return {value for k, value in enumerate(LABEL_VALUES) if mask >> k & 1}


def unary_domains(g: ColoredDigraph) -> dict[str, set[str]]:
    """Per vertex, the labels the endpoint clauses leave it."""
    _, masks, _ = kernel_network(g)
    return {v: labels_in(mask) for v, mask in zip(g.vertices, masks)}


def _local_clauses(g: ColoredDigraph) -> _LocalClauses:
    domains = unary_domains(g)
    return _LocalClauses(
        allowed=tuple(
            tuple(value for value in LABEL_VALUES if value in domains[v]) for v in g.vertices
        ),
        edges=tuple(
            (g.vertex_index(e.tail), g.vertex_index(e.head), _EDGE_CLASS[e.color])
            for e in g.edges
        ),
    )


def arc_consistent_domains(g: ColoredDigraph, domains: Mapping[str, set]):
    """The largest arc-consistent domains within ``domains``, or None when
    one empties: every edge is revised in declared order, round after
    round, until a round changes nothing.  Independent of the queue and the
    label masks of ``_propagate``."""
    domains = dict(domains)
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            allowed = _EDGE_CLASS[e.color]
            tails, heads = domains[e.tail], domains[e.head]
            new_tails = {a for a in tails if any((a, b) in allowed for b in heads)}
            new_heads = {b for b in heads if any((a, b) in allowed for a in new_tails)}
            if (new_tails, new_heads) != (tails, heads):
                if not new_tails or not new_heads:
                    return None
                domains[e.tail], domains[e.head] = new_tails, new_heads
                changed = True
    return domains


def infer_labelings_exhaustive(g: ColoredDigraph) -> list[Labeling]:
    """Brute-force reference for ``infer_labelings``: try all 3^|V| vectors.

    Kept deliberately naive so the two routes can cross-check each other:
    every vector is tested against the compiled clauses, without pruning,
    and only the vectors that pass become labelings.
    """
    _require_degree_axiom(g)
    clauses = _local_clauses(g)
    return [
        Labeling(labels=dict(zip(g.vertices, vector)))
        for vector in itertools.product(LABEL_VALUES, repeat=g.n_vertices)
        if clauses.admits(vector)
    ]


def brute_isomorphic(g1: ColoredDigraph, g2: ColoredDigraph) -> bool:
    """Color- and direction-preserving isomorphism by trying every bijection."""
    if g1.n_vertices != g2.n_vertices or len(g1.edges) != len(g2.edges):
        return False
    target = set(g2.edges)
    for perm in itertools.permutations(g2.vertices):
        mapping = dict(zip(g1.vertices, perm))
        if all((mapping[e.tail], mapping[e.head], e.color) in target for e in g1.edges):
            return True
    return False


def brute_canonical_code(encoder, edges) -> int:
    """Least encoding of position edges over every vertex permutation, read
    off the encoder's slot order alone."""
    index = {slot: s for s, slot in enumerate(encoder.slots)}
    top = len(encoder.slots) - 1
    return min(
        sum(1 << (top - index[(perm[i], perm[j], color)]) for i, j, color in set(edges))
        for perm in itertools.permutations(range(encoder.n))
    )


def vertex_search_code(encoder, edges) -> int:
    """Least encoding of position edges over all vertex permutations, by a
    vertex-by-vertex branch and bound over both colors.

    A 1-end, a vertex without a 1-head, has an all-zero 1-row wherever it
    goes and every other vertex has a nonzero one, and the 1-rows are the
    most significant rows in position order.  So positions below s take the
    s 1-ends and the others take the rest.  Vertices are placed at positions
    0, 1, ... in turn.  A partial placement is bounded below row by row: a
    placed row puts its unplaced heads in its least significant free
    columns, and the rows of the unplaced positions take the smallest values
    their vertices can reach, in ascending order.  A branch is cut once its
    bound is no smaller than the best code found.  Independent of the
    orbit sweep of ``_shard_codes``.
    """
    n = encoder.n
    heads = [[[] for _ in range(n)] for _ in (1, 2)]
    for i, j, color in set(edges):
        heads[color - 1][i].append(j)
    one_ends = sum(not row for row in heads[0])
    # Per color: the row shifts (a row of tail position p, shifted left by
    # shift[p], lands in its slots) and the (vertex, heads) pairs of its
    # nonzero rows.
    total = len(encoder.slots)
    blocks = [
        (
            [total - (color_block * n + p + 1) * (n - 1) for p in range(n)],
            [(v, block[v]) for v in range(n) if block[v]],
        )
        for color_block, block in enumerate(heads)
    ]
    blocks = [block for block in blocks if block[1]]
    position = [-1] * n
    order: list[int] = []
    best = -1

    def bound() -> int:
        total = 0
        for shift, rows in blocks:
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
        nonlocal best
        placed = len(order)
        if placed == n:
            code = bound()
            if best < 0 or code < best:
                best = code
            return
        needs_head = placed >= one_ends
        children = []
        for v in range(n):
            if position[v] < 0 and bool(heads[0][v]) == needs_head:
                position[v] = placed
                children.append((bound(), v))
                position[v] = -1
        children.sort()
        for low, v in children:
            if 0 <= best <= low:
                return
            position[v] = placed
            order.append(v)
            search()
            order.pop()
            position[v] = -1

    search()
    return best


def _weakly_connected(n: int, edges) -> bool:
    """Union-find over position edges, colors and directions ignored."""
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j, _color in edges:
        parent[root(i)] = root(j)
    return len({root(v) for v in range(n)}) == 1


def acyclic_candidates(n: int, lengths) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Every acyclic candidate of row n with these 1-string ``lengths``,
    connected or not: the 1-edges of ``c1`` with every partial injection of
    2-edges that closes no cycle and leaves at least n - 1 edges, in
    ascending code order.  It cuts no branch for connectivity, so it is an
    oracle for the connected-only ``_candidates``."""
    _, ones, _ = enumeration._one_block(n, lengths)
    reach = [1 << v for v in range(n)]
    for i, j, _ in ones:
        reach = [r | reach[j] if r >> i & 1 else r for r in reach]

    stack = [(0, reach, (1 << n) - 1, ones)]
    while stack:
        p, reach, free, edges = stack.pop()
        if p == n:
            yield edges
            continue
        for j in range(n):
            if free >> j & 1 and not reach[j] >> p & 1:
                joined = [r | reach[j] if r >> p & 1 else r for r in reach]
                stack.append((p + 1, joined, free ^ 1 << j, edges + ((p, j, 2),)))
        if len(edges) >= p:  # n - 1 edges stay reachable without one at p
            stack.append((p + 1, reach, free, edges))


def b0_edge_sets(n: int, connected: bool = False) -> list[tuple[tuple[int, int, int], ...]]:
    """Every (B0) edge set on positions 0..n-1 as (tail, head, color)
    triples, cycles included: per color, every set of off-diagonal slots
    with in- and out-degree at most 1, then the product over both colors.
    With ``connected``, only the weakly connected ones."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    per_color = [
        chosen
        for size in range(n + 1)
        for chosen in itertools.combinations(pairs, size)
        if len({i for i, _ in chosen}) == size == len({j for _, j in chosen})
    ]
    edge_sets = [
        tuple((i, j, 1) for i, j in edges1) + tuple((i, j, 2) for i, j in edges2)
        for edges1 in per_color
        for edges2 in per_color
    ]
    if connected:
        return [edges for edges in edge_sets if _weakly_connected(n, edges)]
    return edge_sets


def subsets(items: list) -> list[frozenset]:
    """All subsets, by bitmask order over item positions."""
    return [
        frozenset(item for k, item in enumerate(items) if mask >> k & 1)
        for mask in range(1 << len(items))
    ]


def b1_markings(decomp1: StringDecomposition) -> list[CentralMarking]:
    """Every marking with exactly one central element on each 1-string, in
    product order: the product of the 2L - 1 slots of each string, slot 2k
    its k-th vertex and slot 2k + 1 the 1-edge leaving it.  No pruning, so
    it is the (B1) oracle for the library's pruned marking search."""
    markings = []
    strings = decomp1.strings
    for slots in itertools.product(*(range(2 * len(string) - 1) for string in strings)):
        vertices, edges = [], []
        for string, slot in zip(strings, slots):
            k, is_edge = divmod(slot, 2)
            if is_edge:
                edges.append(string[k:k + 2])
            else:
                vertices.append(string[k])
        markings.append(CentralMarking(central_vertices=vertices, central_1_edges=edges))
    return markings


def brute_valid_markings(g: ColoredDigraph, reports=None, b1_passing=None) -> list[CentralMarking]:
    """Every subset of vertices together with every subset of 1-edges that
    ``check_global`` accepts as a marking.

    ``reports``, a hashlib object if given, takes in the JSON text of every
    report, valid or not, in search order.  ``b1_passing``, a list if given,
    takes in every marking whose report has no (B1) entry.
    """
    one_edges = [(e.tail, e.head) for e in g.edges if e.color == 1]
    found = []
    for vertex_subset in subsets(list(g.vertices)):
        for edge_subset in subsets(one_edges):
            marking = CentralMarking(central_vertices=vertex_subset, central_1_edges=edge_subset)
            report = check_global(g, marking)
            if reports is not None:
                reports.update(json.dumps(report.as_jsonable()).encode())
            if b1_passing is not None and all(v.clause != "B1" for v in report):
                b1_passing.append(marking)
            if not report:
                found.append(marking)
    return found


# -- random generators (seeded, for the acceptance suite) ------------------

def random_b0_edge_set(rng: random.Random, n: int) -> tuple[tuple[int, int, int], ...]:
    """A seeded (B0) edge set on positions 0..n-1, cycles and disconnected
    ones included: per color, a random partial injection of a random size."""
    edges = []
    for color in (1, 2):
        heads = list(range(n))
        for i in rng.sample(range(n), rng.randint(0, n)):
            free = [j for j in heads if j != i]
            if free:
                heads.remove(j := rng.choice(free))
                edges.append((i, j, color))
    return tuple(edges)


def random_b0_dag(rng: random.Random, n: int) -> ColoredDigraph:
    """A degree-valid acyclic graph on n vertices with a hidden random
    topological order, so the declared order is not itself topological."""
    names = [f"v{k + 1}" for k in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    position = {v: i for i, v in enumerate(order)}
    density = rng.uniform(0.2, 0.9)
    edges = []
    for color in (1, 2):
        in_used = set()
        for i in range(n):
            later = [j for j in range(n) if position[j] > position[i] and j not in in_used]
            if later and rng.random() < density:
                j = rng.choice(later)
                in_used.add(j)
                edges.append((i, j, color))
    edges.sort()
    return graph(names, [(names[i], names[j], c) for i, j, c in edges])


def random_graph_with_cycle(rng: random.Random, n: int) -> ColoredDigraph:
    """A random 2-colored graph guaranteed to contain a directed cycle."""
    names = [f"v{k + 1}" for k in range(n)]
    edges = set()
    for color in (1, 2):
        in_used = set()
        for i in range(n):
            if rng.random() < 0.5:
                candidates = [j for j in range(n) if j != i and j not in in_used]
                if candidates:
                    j = rng.choice(candidates)
                    in_used.add(j)
                    edges.add((i, j, color))
    k = rng.randint(2, n)
    cycle = rng.sample(range(n), k)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        color = rng.choice((1, 2))
        edges.add((a, b, color))
    ordered = sorted(edges)
    return graph(names, [(names[i], names[j], c) for i, j, c in ordered])


# -- hypothesis strategies --------------------------------------------------

@st.composite
def b0_graphs(draw, max_vertices: int = 6, require_acyclic: bool = True):
    """Degree-valid graphs; acyclic ones are built along a drawn ordering."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    names = [f"v{k + 1}" for k in range(n)]
    perm = draw(st.permutations(range(n)))
    candidates = [(i, j, c) for i in range(n) for j in range(n) if i != j for c in (1, 2)]
    if candidates:
        chosen = draw(st.lists(st.sampled_from(candidates), max_size=3 * n))
    else:
        chosen = []
    out_free = {1: set(range(n)), 2: set(range(n))}
    in_free = {1: set(range(n)), 2: set(range(n))}
    edges = []
    for i, j, c in chosen:
        if require_acyclic and perm[i] >= perm[j]:
            continue
        if i in out_free[c] and j in in_free[c]:
            out_free[c].discard(i)
            in_free[c].discard(j)
            edges.append((i, j, c))
    return graph(names, [(names[i], names[j], c) for i, j, c in edges])


@st.composite
def colored_digraphs(draw, max_vertices: int = 5):
    """Arbitrary valid graphs: any edge set without duplicates/self-loops."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    names = [f"v{k + 1}" for k in range(n)]
    candidates = [(i, j, c) for i in range(n) for j in range(n) if i != j for c in (1, 2)]
    if candidates:
        chosen = draw(st.lists(
            st.sampled_from(candidates), unique=True, max_size=min(len(candidates), 12),
        ))
    else:
        chosen = []
    return graph(names, [(names[i], names[j], c) for i, j, c in chosen])


@st.composite
def graphs_with_labelings(draw, max_vertices: int = 5, require_b0: bool = True):
    if require_b0:
        g = draw(b0_graphs(max_vertices=max_vertices))
    else:
        g = draw(colored_digraphs(max_vertices=max_vertices))
    values = draw(st.lists(
        st.sampled_from(LABEL_VALUES), min_size=g.n_vertices, max_size=g.n_vertices,
    ))
    return g, labeling(g, values)
