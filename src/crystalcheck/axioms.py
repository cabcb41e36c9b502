"""Central-element axioms for 2-colored string graphs, in two formulations.

The global axioms constrain a *central marking* (distinguished vertices and
1-edges): every 1-string carries exactly one central element, and every
2-string contains exactly one central vertex with only right vertices before
it and only left vertices after it.

The local axioms constrain a *labeling* of the vertices by {0, c, 1}: each
edge's label pair must come from a small per-color list, and endpoint
vertices of strings exclude certain labels.  For finite acyclic graphs
satisfying the degree axiom the two formulations pick out the same objects;
``labels_from_marking`` and ``marking_from_labels`` realize the bijection,
and the enumeration oracle verifies it exhaustively on small graphs.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import (
    CentralityError,
    DegreeAxiomError,
    LabelingError,
    MarkingError,
    PreconditionError,
)
from .graph import ColoredDigraph, Edge, StringDecomposition, check_degree_axiom, decompose_strings
from .violations import (
    CLAUSE_B1,
    CLAUSE_B1_I,
    CLAUSE_B1_II,
    CLAUSE_B2,
    CLAUSE_B2_I,
    CLAUSE_B2_II,
    Violation,
    ViolationReport,
)

# Label alphabet in enumeration order: 0 < c < 1.
LABEL_LEFT = "0"
LABEL_CENTRAL = "c"
LABEL_RIGHT = "1"
LABEL_VALUES = (LABEL_LEFT, LABEL_CENTRAL, LABEL_RIGHT)

# Admissible (tail, head) label pairs per edge color, with the class of
# edge each pair makes.
EDGE_CLASS_1 = {
    ("0", "0"): "left",
    ("0", "c"): "left",
    ("0", "1"): "central",
    ("c", "1"): "right",
    ("1", "1"): "right",
}
EDGE_CLASS_2 = {
    ("c", "0"): "left",
    ("0", "0"): "left",
    ("1", "1"): "right",
    ("1", "c"): "right",
}
_EDGE_CLASS = {1: EDGE_CLASS_1, 2: EDGE_CLASS_2}
_EDGE_CLAUSE = {1: CLAUSE_B1_I, 2: CLAUSE_B2_I}
ALLOWED_PAIRS_1 = frozenset(EDGE_CLASS_1)
ALLOWED_PAIRS_2 = frozenset(EDGE_CLASS_2)

# The endpoint clauses, per label: the edges a vertex needs to take it, each
# as (clause, color, incident-edge reader, direction).  c needs none.
_ENDPOINT_NEEDS = {
    LABEL_LEFT: (
        (CLAUSE_B1_II, 1, ColoredDigraph.out_edges, "leaving"),
        (CLAUSE_B2_II, 2, ColoredDigraph.in_edges, "entering"),
    ),
    LABEL_CENTRAL: (),
    LABEL_RIGHT: (
        (CLAUSE_B1_II, 1, ColoredDigraph.in_edges, "entering"),
        (CLAUSE_B2_II, 2, ColoredDigraph.out_edges, "leaving"),
    ),
}

LEFT, CENTRAL, RIGHT = "left", "central", "right"


@dataclass(frozen=True)
class Labeling:
    """A total map from vertices to the label alphabet {0, c, 1}.

    ``labels`` is a read-only copy of the mapping it was built from; a value
    outside the alphabet raises ``LabelingError``.
    """

    labels: Mapping[str, str]

    def __post_init__(self):
        labels = dict(self.labels)
        for v, value in labels.items():
            if value not in LABEL_VALUES:
                raise LabelingError(
                    f"label of vertex {v!r} is {value!r}, not one of {list(LABEL_VALUES)}"
                )
        object.__setattr__(self, "labels", MappingProxyType(labels))

    def __hash__(self) -> int:
        return hash(frozenset(self.labels.items()))

    def __reduce__(self):
        # A mapping proxy cannot be pickled or deep-copied; a dict can.
        return (Labeling, (dict(self.labels),))

    def vector(self, g: ColoredDigraph) -> tuple[str, ...]:
        """Label values in the graph's declared vertex order."""
        return tuple(self.labels[v] for v in g.vertices)

    def as_jsonable(self, g: ColoredDigraph) -> dict:
        return {v: self.labels[v] for v in g.vertices}


@dataclass(frozen=True)
class CentralMarking:
    """Distinguished central vertices and central 1-edges."""

    central_vertices: frozenset[str]
    central_1_edges: frozenset[tuple[str, str]]

    def as_jsonable(self, g: ColoredDigraph) -> dict:
        return {
            "vertices": sorted(self.central_vertices, key=g.vertex_index),
            "edges_1": sorted(
                (list(pair) for pair in self.central_1_edges),
                key=lambda pair: g.edge_index(pair[0], pair[1], 1),
            ),
        }


@dataclass(frozen=True)
class VertexClass:
    """Total classification of vertices as left, central, or right."""

    classes: Mapping[str, str]


def _require_total(g: ColoredDigraph, lab: Labeling) -> None:
    keys = set(lab.labels)
    declared = set(g.vertices)
    if keys != declared:
        missing = sorted(declared - keys)
        extra = sorted(keys - declared)
        raise LabelingError(
            f"labeling must be total on the vertex set; missing {missing}, extraneous {extra}"
        )


def _require_no_violations(report: ViolationReport, what: str) -> None:
    if report:
        raise PreconditionError(
            f"{what} ({len(report)} violation(s)); first: {report.entries[0].detail}"
        )


def _require_local_validity(g: ColoredDigraph, lab: Labeling) -> None:
    _require_no_violations(check_local(g, lab), "labeling violates the local axioms")


def _require_degree_axiom(g: ColoredDigraph) -> None:
    report = check_degree_axiom(g)
    if report:
        raise DegreeAxiomError(
            f"graph violates (B0) at {report.entries[0].at!r}; labelings are undefined"
        )


def _check_marking_scope(g: ColoredDigraph, marking: CentralMarking) -> None:
    """Reject a marking naming anything outside the graph; the error names
    the first offender in sorted order."""
    stray_vertices = [v for v in marking.central_vertices if not g.has_vertex(v)]
    if stray_vertices:
        raise MarkingError(f"central vertex {min(stray_vertices)!r} is not in the graph")
    stray_edges = [pair for pair in marking.central_1_edges if not g.has_edge(*pair, 1)]
    if stray_edges:
        tail, head = min(stray_edges)
        raise MarkingError(f"central edge ({tail!r}, {head!r}) is not a 1-edge of the graph")


def _central_elements_on_string(
    string: tuple[str, ...], marking: CentralMarking
) -> list[tuple[str, int]]:
    """Find central elements along one 1-string.

    Returns ("vertex", k) for a central vertex at offset k and ("edge", k)
    for a central edge whose tail sits at offset k, in string order.
    """
    elements = []
    for k, v in enumerate(string):
        if v in marking.central_vertices:
            elements.append(("vertex", k))
        if k + 1 < len(string) and (string[k], string[k + 1]) in marking.central_1_edges:
            elements.append(("edge", k))
    return elements


def _classify(
    decomp1: StringDecomposition, marking: CentralMarking
) -> tuple[dict[str, str], list[tuple[tuple[str, ...], int]]]:
    """Classify the vertices of every 1-string carrying exactly one central
    element; return the classes and each other 1-string with its count."""
    classes: dict[str, str] = {}
    unmarked = []
    for string in decomp1.strings:
        elements = _central_elements_on_string(string, marking)
        if len(elements) != 1:
            unmarked.append((string, len(elements)))
            continue
        # A central edge's tail is left, like everything before it.
        kind, k = elements[0]
        for v in string[:k]:
            classes[v] = LEFT
        classes[string[k]] = CENTRAL if kind == "vertex" else LEFT
        for v in string[k + 1:]:
            classes[v] = RIGHT
    return classes, unmarked


def classify_vertices(decomp1: StringDecomposition, marking: CentralMarking) -> VertexClass:
    """Classify every vertex from its position relative to the central
    element of its 1-string.

    A central vertex is central; vertices before it are left and after it
    are right.  For a central edge, its tail and everything before are left,
    its head and everything after are right.
    """
    if decomp1.color != 1:
        raise ValueError("classification is defined over the color-1 decomposition")
    consecutive = {
        (s[k], s[k + 1]) for s in decomp1.strings for k in range(len(s) - 1)
    }
    for v in sorted(marking.central_vertices):
        if not decomp1.covers(v):
            raise MarkingError(f"central vertex {v!r} is not covered by the decomposition")
    for pair in sorted(marking.central_1_edges):
        if pair not in consecutive:
            raise MarkingError(f"central edge {pair} is not an edge of any 1-string")

    classes, unmarked = _classify(decomp1, marking)
    if unmarked:
        raise CentralityError(*unmarked[0])
    return VertexClass(classes=classes)


def check_global(g: ColoredDigraph, marking: CentralMarking) -> ViolationReport:
    """Check the global axioms (B1) and (B2) for a central marking.

    (B1): each 1-string carries exactly one central element (vertex or
    1-edge).  (B2): each 2-string contains exactly one central vertex; all
    vertices before it must be right and all after it left, where left/right
    comes from the 1-string classification.  Positions on 1-strings that
    themselves violate (B1) have no classification, so only (B1) is reported
    for them.
    """
    return _check_global(g, marking)[0]


def _check_global(
    g: ColoredDigraph, marking: CentralMarking
) -> tuple[ViolationReport, dict[str, str]]:
    """``check_global`` plus the vertex classes it was read from."""
    _check_marking_scope(g, marking)
    classes, unmarked = _classify(decompose_strings(g, 1), marking)
    violations = [
        Violation(
            clause=CLAUSE_B1,
            at=string[0],
            detail=f"1-string {list(string)} carries {count} central elements, expected exactly 1",
        )
        for string, count in unmarked
    ]

    for string in decompose_strings(g, 2).strings:
        central_offsets = [k for k, v in enumerate(string) if v in marking.central_vertices]
        if len(central_offsets) != 1:
            violations.append(Violation(
                clause=CLAUSE_B2,
                at=string[0],
                detail=(
                    f"2-string {list(string)} contains {len(central_offsets)} central "
                    f"vertices, expected exactly 1"
                ),
            ))
            continue
        k = central_offsets[0]
        for j, v in enumerate(string):
            if j == k:
                continue
            side, expected = ("before", RIGHT) if j < k else ("after", LEFT)
            cls = classes.get(v)
            if cls is not None and cls != expected:
                violations.append(Violation(
                    clause=CLAUSE_B2,
                    at=v,
                    detail=(
                        f"vertex {v!r} lies {side} the central vertex "
                        f"{string[k]!r} on its 2-string but is {cls}, not {expected}"
                    ),
                ))

    return ViolationReport.build(g, violations), classes


def check_local(g: ColoredDigraph, lab: Labeling) -> ViolationReport:
    """Check the local label axioms (B1(i)), (B1(ii)), (B2(i)), (B2(ii)).

    Edge clauses restrict each edge's (tail, head) label pair to the
    admissible per-color list; endpoint clauses forbid label 1 without an
    entering 1-edge or a leaving 2-edge, and label 0 without a leaving
    1-edge or an entering 2-edge.  One violation is recorded per clause
    instance.
    """
    _require_total(g, lab)
    labels = lab.labels
    violations: list[Violation] = []

    for e in g.edges:
        pair = (labels[e.tail], labels[e.head])
        if pair not in _EDGE_CLASS[e.color]:
            violations.append(Violation(
                clause=_EDGE_CLAUSE[e.color],
                at=e.triple(),
                detail=f"{e.color}-edge {e.triple()} has label pair {pair}, not an admissible pair",
            ))

    for v in g.vertices:
        value = labels[v]
        for clause, color, incident, direction in _ENDPOINT_NEEDS[value]:
            if not incident(g, v, color):
                violations.append(Violation(
                    clause=clause,
                    at=v,
                    detail=(
                        f"vertex {v!r} has no {direction} {color}-edge, "
                        f"so its label must not be {value}"
                    ),
                ))

    return ViolationReport.build(g, violations)


def classify_edges(g: ColoredDigraph, lab: Labeling) -> dict[Edge, str]:
    """Classify each edge as left, central, or right by its label pair.

    1-edges take all three classes; 2-edges are only ever left or right.
    Requires a labeling that passes the local checks.
    """
    _require_total(g, lab)
    result: dict[Edge, str] = {}
    for e in g.edges:
        pair = (lab.labels[e.tail], lab.labels[e.head])
        cls = _EDGE_CLASS[e.color].get(pair)
        if cls is None:
            raise PreconditionError(
                f"edge {e.triple()} has label pair {pair} outside the admissible lists"
            )
        result[e] = cls
    return result


def labels_from_marking(g: ColoredDigraph, marking: CentralMarking) -> Labeling:
    """Convert a globally-valid marking into its labeling.

    Left vertices map to 0, central vertices to c, right vertices to 1.
    """
    report, classes = _check_global(g, marking)
    _require_no_violations(report, "marking violates the global axioms")
    to_label = {LEFT: LABEL_LEFT, CENTRAL: LABEL_CENTRAL, RIGHT: LABEL_RIGHT}
    return Labeling(labels={v: to_label[classes[v]] for v in g.vertices})


def marking_from_labels(g: ColoredDigraph, lab: Labeling) -> CentralMarking:
    """Read the central marking off a locally-valid labeling.

    Central vertices are those labeled c; central 1-edges are the 1-edges
    whose label pair is classed central.
    """
    _require_local_validity(g, lab)
    central_vertices = frozenset(v for v in g.vertices if lab.labels[v] == LABEL_CENTRAL)
    central_edges = frozenset((e.tail, e.head) for e in _central_1_edges(g, lab))
    return CentralMarking(central_vertices=central_vertices, central_1_edges=central_edges)


def _central_1_edges(g: ColoredDigraph, lab: Labeling) -> list[Edge]:
    """The 1-edges whose label pair is classed central, in declared order."""
    return [
        e for e in g.edges_of_color(1)
        if EDGE_CLASS_1.get((lab.labels[e.tail], lab.labels[e.head])) == CENTRAL
    ]


# -- label inference ------------------------------------------------------

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


def _endpoint_labels(g: ColoredDigraph, v: str) -> tuple[str, ...]:
    """The labels the endpoint clauses leave vertex v, in ``LABEL_VALUES``
    order."""
    labels = []
    for value, needs in _ENDPOINT_NEEDS.items():
        for _clause, color, incident, _direction in needs:
            if not incident(g, v, color):
                break
        else:
            labels.append(value)
    return tuple(labels)


def _local_clauses(g: ColoredDigraph) -> _LocalClauses:
    return _LocalClauses(
        allowed=tuple(_endpoint_labels(g, v) for v in g.vertices),
        edges=tuple(
            (g.vertex_index(e.tail), g.vertex_index(e.head), _EDGE_CLASS[e.color])
            for e in g.edges
        ),
    )


def _unary_domains(g: ColoredDigraph) -> dict[str, set[str]]:
    """Per-vertex label domains from the endpoint clauses alone."""
    return {v: set(_endpoint_labels(g, v)) for v in g.vertices}


def _propagate(g: ColoredDigraph, domains: dict[str, set[str]]) -> bool:
    """Prune domains to arc consistency along every edge constraint.

    Returns False as soon as some domain empties (no labeling exists).
    Pruned domains are replaced, never changed in place, so callers may
    share the sets between copies of ``domains``.
    """
    incident: dict[str, list[Edge]] = {v: [] for v in g.vertices}
    for e in g.edges:
        incident[e.tail].append(e)
        incident[e.head].append(e)

    queue = deque(g.edges)
    queued = set(g.edges)
    while queue:
        e = queue.popleft()
        queued.discard(e)
        allowed = _EDGE_CLASS[e.color]
        tail_dom, head_dom = domains[e.tail], domains[e.head]
        new_tail = {a for a in tail_dom if any((a, b) in allowed for b in head_dom)}
        new_head = {b for b in head_dom if any((a, b) in allowed for a in tail_dom)}
        for v, new in ((e.tail, new_tail), (e.head, new_head)):
            if new != domains[v]:
                domains[v] = new
                if not new:
                    return False
                for other in incident[v]:
                    if other not in queued:
                        queue.append(other)
                        queued.add(other)
    return True


def infer_labelings(g: ColoredDigraph) -> list[Labeling]:
    """Enumerate every labeling satisfying the local axioms.

    Propagation is the only pruning.  Each search node propagates its
    domains to arc consistency; if a vertex still has several values, the
    first such vertex in declared order is fixed to each of them in turn
    and each copy is propagated again.  Every edge relation is closed under
    the pointwise maximum for 0 < c < 1, so once propagation leaves no
    domain empty, the largest value of every domain is a labeling (Jeavons
    and Cooper, "Tractable constraints on ordered domains", 1995).  A branch
    with no labeling therefore dies in its first propagation, and every
    other branch yields at least one labeling.  Results come in
    lexicographic order of the label vector under declared vertex order
    with 0 < c < 1.
    """
    _require_degree_axiom(g)
    results: list[Labeling] = []
    # An explicit stack, so graph size is not limited by the interpreter's
    # recursion depth.
    stack = [_unary_domains(g)]
    while stack:
        domains = stack.pop()
        if not _propagate(g, domains):
            continue
        open_vertex = next((v for v in g.vertices if len(domains[v]) > 1), None)
        if open_vertex is None:
            results.append(Labeling(labels={v: value for v, (value,) in domains.items()}))
            continue
        # Reversed, so values are popped in LABEL_VALUES order.
        for value in reversed(LABEL_VALUES):
            if value in domains[open_vertex]:
                stack.append({**domains, open_vertex: {value}})
    return results


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
