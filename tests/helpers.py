"""Shared builders, oracles, and hypothesis strategies for the test suite.

The oracles here (Kahn cycle test, permutation isomorphism test, minimal
encoding over all vertex permutations, every (B0) edge set, valid markings
among all subsets) are kept independent of the library's own algorithms so
the two can check each other.
"""

from __future__ import annotations

import itertools
import json
import random

from hypothesis import strategies as st

from crystalcheck import CentralMarking, ColoredDigraph, Edge, Labeling, check_global
from crystalcheck.axioms import LABEL_VALUES


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


def brute_isomorphic(g1: ColoredDigraph, g2: ColoredDigraph) -> bool:
    """Color- and direction-preserving isomorphism by trying every bijection."""
    if g1.n_vertices != g2.n_vertices or len(g1.edges) != len(g2.edges):
        return False
    target = {e.triple() for e in g2.edges}
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


def brute_valid_markings(g: ColoredDigraph, reports=None) -> list[CentralMarking]:
    """Every subset of vertices together with every subset of 1-edges that
    ``check_global`` accepts as a marking.

    ``reports``, a hashlib object if given, takes in the JSON text of every
    report, valid or not, in search order.
    """
    one_edges = [(e.tail, e.head) for e in g.edges if e.color == 1]
    found = []
    for vertex_subset in subsets(list(g.vertices)):
        for edge_subset in subsets(one_edges):
            marking = CentralMarking(central_vertices=vertex_subset, central_1_edges=edge_subset)
            report = check_global(g, marking)
            if reports is not None:
                reports.update(json.dumps(report.as_jsonable()).encode())
            if not report:
                found.append(marking)
    return found


# -- random generators (seeded, for the acceptance suite) ------------------

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
