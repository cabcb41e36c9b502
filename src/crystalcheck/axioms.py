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

Slots: a 1-string of L vertices has 2L - 1 *slots* for its central
element.  Slot 2k is its k-th vertex and slot 2k + 1 the 1-edge that leaves
that vertex.  Vertex k is right when the element is below slot 2k, central
at 2k, and left above it; so a central edge's tail is left and its head is
right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import (
    CentralityError,
    DegreeAxiomError,
    LabelingError,
    MarkingError,
    PreconditionError,
)
from .graph import (
    ColoredDigraph,
    Edge,
    StringDecomposition,
    _hash_read_only,
    _reduce_read_only,
    check_degree_axiom,
    decompose_strings,
)
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

# The endpoint clauses, per label: the ports a vertex needs occupied to take
# it, each as (clause, (direction, color)).  c needs none.
_ENDPOINT_NEEDS = {
    LABEL_LEFT: (
        (CLAUSE_B1_II, ("leaving", 1)),
        (CLAUSE_B2_II, ("entering", 2)),
    ),
    LABEL_CENTRAL: (),
    LABEL_RIGHT: (
        (CLAUSE_B1_II, ("entering", 1)),
        (CLAUSE_B2_II, ("leaving", 2)),
    ),
}

# The bit of each (direction, color) port in a vertex's port mask.
_PORT_BIT = {("leaving", 1): 1, ("leaving", 2): 2, ("entering", 1): 4, ("entering", 2): 8}


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
        # One pass over the values; the first bad one is named only on refusal.
        if not all(map(LABEL_VALUES.__contains__, labels.values())):
            v, value = next((v, value) for v, value in labels.items() if value not in LABEL_VALUES)
            raise LabelingError(
                f"label of vertex {v!r} is {value!r}, not one of {list(LABEL_VALUES)}"
            )
        object.__setattr__(self, "labels", MappingProxyType(labels))

    __hash__ = _hash_read_only
    __reduce__ = _reduce_read_only

    def vector(self, g: ColoredDigraph) -> tuple[str, ...]:
        """Label values in the graph's declared vertex order."""
        return tuple(self.labels[v] for v in g.vertices)

    def as_jsonable(self, g: ColoredDigraph) -> dict:
        return {v: self.labels[v] for v in g.vertices}


@dataclass(frozen=True)
class CentralMarking:
    """Distinguished central vertices and central 1-edges.

    Both fields are frozenset copies of the collections the marking was
    built from, with each edge as a (tail, head) tuple; a str as either
    field, or an edge that is not a tuple or list of two items, raises
    ``MarkingError``.
    """

    central_vertices: frozenset[str]
    central_1_edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        # A str would split into characters: "v1" into {"v", "1"}.
        if isinstance(self.central_vertices, str) or isinstance(self.central_1_edges, str):
            raise MarkingError("central vertices and central edges are collections, not a str")
        # An ordered pair only: a set or a dict would read in hash order, a
        # str split into characters.
        edges = list(self.central_1_edges)
        for edge in edges:
            if not isinstance(edge, (tuple, list)) or len(edge) != 2:
                raise MarkingError(f"central edge {edge!r} is not a (tail, head) pair")
        object.__setattr__(self, "central_vertices", frozenset(self.central_vertices))
        object.__setattr__(self, "central_1_edges", frozenset(map(tuple, edges)))

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
    """Total classification of vertices as left, central, or right;
    ``classes`` is a read-only copy of the mapping it was built from."""

    classes: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "classes", MappingProxyType(dict(self.classes)))

    __hash__ = _hash_read_only
    __reduce__ = _reduce_read_only


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


def _least(strays: list):
    """The least of the strays; when they do not all compare, as with ids of
    mixed types, the least by type name and then by repr."""
    try:
        return min(strays)
    except TypeError:
        return min(strays, key=lambda stray: (type(stray).__qualname__, repr(stray)))


def _check_marking_scope(marking: CentralMarking, covers, consecutive) -> None:
    """Reject a marking naming a vertex that ``covers`` refuses or an edge
    that ``consecutive`` refuses; the error names the first offender in
    sorted order.  A 1-string skeleton's ``covers`` and ``consecutive``
    accept exactly the graph's vertices and 1-edges."""
    stray_vertices = [v for v in marking.central_vertices if not covers(v)]
    if stray_vertices:
        raise MarkingError(f"central vertex {_least(stray_vertices)!r} is not in the graph")
    stray_edges = [pair for pair in marking.central_1_edges if not consecutive(*pair)]
    if stray_edges:
        tail, head = _least(stray_edges)
        raise MarkingError(f"central edge ({tail!r}, {head!r}) is not a 1-edge of the graph")


def _classify(
    decomp1: StringDecomposition, marking: CentralMarking
) -> tuple[dict[str, str], list[tuple[tuple[str, ...], int]]]:
    """Classify the vertices of every 1-string carrying exactly one central
    element, by its slot (see the module docstring); return the classes and
    each other 1-string with its count.  The marking must be in scope, so
    each element's slot is read off the skeleton.
    """
    position = decomp1.position
    marked: list[list[int]] = [[] for _ in decomp1.strings]
    for v in marking.central_vertices:
        string_idx, k = position(v)
        marked[string_idx].append(2 * k)
    for tail, _head in marking.central_1_edges:
        string_idx, k = position(tail)
        marked[string_idx].append(2 * k + 1)

    classes: dict[str, str] = {}
    unmarked = []
    for string, slots in zip(decomp1.strings, marked):
        if len(slots) != 1:
            unmarked.append((string, len(slots)))
            continue
        slot = slots[0]
        for k, v in enumerate(string):
            classes[v] = LEFT if 2 * k < slot else CENTRAL if 2 * k == slot else RIGHT
    return classes, unmarked


def _b2_markings(
    decomp1: StringDecomposition, decomp2: StringDecomposition
) -> Iterator[CentralMarking]:
    """The markings with one central element on each 1-string whose
    2-strings all read R* C L*, in the order of the product of the slot
    ranges (see the module docstring), by ``_slot_search``.

    With one element on every 1-string, (B2) holds exactly when each
    2-string's class word is in R* C L*: its central vertices are its
    vertices of class C, and the ones before and after that vertex must be
    R and L.  A word is in R* C L* exactly when it does not start with L,
    does not end with R, and each consecutive pair is RR, RC, CL or LL:
    those pairs lead from R only to R or C, from C only to L and from L
    only to L, so such a word is a run of R, one C and a run of L.  These
    are the constraints ``_slot_search`` reads, so its leaves are exactly
    the markings (B1) and (B2) accept, and it yields them in slot-product
    order.  ``check_global`` still judges each one.
    """
    strings = decomp1.strings
    index = {v: k for k, v in enumerate(itertools.chain(*strings))}
    layout = _slot_layout([[index[v] for v in string] for string in strings])
    twos = [(index[u], index[v]) for string in decomp2.strings for u, v in zip(string, string[1:])]
    for domains in _slot_search(layout, twos):
        yield _marking_at(strings, [mask.bit_length() - 1 for mask in domains])


def _marking_at(strings: tuple[tuple[str, ...], ...], slots: list[int]) -> CentralMarking:
    """The marking with its element at the given slot (see the module
    docstring) of each 1-string."""
    vertices, edges = [], []
    for string, slot in zip(strings, slots):
        k, is_edge = divmod(slot, 2)
        if is_edge:
            edges.append(string[k:k + 2])
        else:
            vertices.append(string[k])
    return CentralMarking(central_vertices=frozenset(vertices), central_1_edges=frozenset(edges))


def classify_vertices(decomp1: StringDecomposition, marking: CentralMarking) -> VertexClass:
    """Classify every vertex from its position relative to the central
    element of its 1-string.

    A central vertex is central; vertices before it are left and after it
    are right.  For a central edge, its tail and everything before are left,
    its head and everything after are right.
    """
    if decomp1.color != 1:
        raise ValueError("classification is defined over the color-1 decomposition")
    _check_marking_scope(marking, decomp1.covers, decomp1.consecutive)
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
    for them.  The 1-strings are found before the marking's scope is
    checked, so a graph breaking (B0) in color 1 raises ``DegreeAxiomError``
    first.
    """
    decomp1 = decompose_strings(g, 1)
    _check_marking_scope(marking, decomp1.covers, decomp1.consecutive)
    classes, unmarked = _classify(decomp1, marking)
    violations = [
        Violation(clause=CLAUSE_B1, at=string[0], detail=str(CentralityError(string, count)))
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

    return ViolationReport.build(g, violations)


def check_local(g: ColoredDigraph, lab: Labeling) -> ViolationReport:
    """Check the local label axioms (B1(i)), (B1(ii)), (B2(i)), (B2(ii)).

    Edge clauses restrict each edge's (tail, head) label pair to the
    admissible per-color list; endpoint clauses forbid label 1 without an
    entering 1-edge or a leaving 2-edge, and label 0 without a leaving
    1-edge or an entering 2-edge.  One violation is recorded per clause
    instance.  One sweep over the graph's index skeleton checks the edges
    and collects each vertex's port mask, which ``_ENDPOINT_DOMAIN`` reads.
    """
    _require_total(g, lab)
    labels = lab.labels
    bits = [_LABEL_BIT[labels[v]] for v in g.vertices]
    ports = [0] * len(bits)
    violations: list[Violation] = []

    for e, tail, head, color in zip(g.edges, *g._skeleton):
        leaving, entering = _PORT_BITS[color]
        ports[tail] |= leaving
        ports[head] |= entering
        if not _SUPPORT[color][0][bits[tail]] & bits[head]:
            pair = (labels[e.tail], labels[e.head])
            violations.append(Violation(
                clause=_EDGE_CLAUSE[color],
                at=e,
                detail=f"{color}-edge {tuple(e)} has label pair {pair}, not an admissible pair",
            ))

    for v, bit, mask in zip(g.vertices, bits, ports):
        if bit & _ENDPOINT_DOMAIN[mask]:
            continue
        value = labels[v]
        for clause, (direction, color) in _ENDPOINT_NEEDS[value]:
            if not mask & _PORT_BIT[direction, color]:
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
                f"edge {tuple(e)} has label pair {pair} outside the admissible lists"
            )
        result[e] = cls
    return result


def labels_from_marking(g: ColoredDigraph, marking: CentralMarking) -> Labeling:
    """Convert a globally-valid marking into its labeling.

    Left vertices map to 0, central vertices to c, right vertices to 1.
    """
    _require_no_violations(check_global(g, marking), "marking violates the global axioms")
    return _labels_from_marking(g, marking)


def _labels_from_marking(g: ColoredDigraph, marking: CentralMarking) -> Labeling:
    """``labels_from_marking`` on a marking that ``check_global`` accepts,
    which has checked its scope and that every 1-string is marked."""
    classes, _unmarked = _classify(decompose_strings(g, 1), marking)
    to_label = {LEFT: LABEL_LEFT, CENTRAL: LABEL_CENTRAL, RIGHT: LABEL_RIGHT}
    return Labeling(labels={v: to_label[classes[v]] for v in g.vertices})


def marking_from_labels(g: ColoredDigraph, lab: Labeling) -> CentralMarking:
    """Read the central marking off a locally-valid labeling.

    Central vertices are those labeled c; central 1-edges are the 1-edges
    whose label pair is classed central.
    """
    _require_local_validity(g, lab)
    return _marking_from_labels(g, lab)


def _marking_from_labels(g: ColoredDigraph, lab: Labeling) -> CentralMarking:
    """``marking_from_labels`` on a labeling that ``check_local`` accepts."""
    central_vertices = frozenset(v for v in g.vertices if lab.labels[v] == LABEL_CENTRAL)
    central_edges = frozenset((e.tail, e.head) for e in _central_1_edges(g, lab))
    return CentralMarking(central_vertices=central_vertices, central_1_edges=central_edges)


def _central_1_edges(g: ColoredDigraph, lab: Labeling) -> list[Edge]:
    """The 1-edges whose label pair is classed central, in declared order."""
    return [
        e for e in g.edges_of_color(1)
        if EDGE_CLASS_1.get((lab.labels[e.tail], lab.labels[e.head])) == CENTRAL
    ]


# -- the search -----------------------------------------------------------


def _search(domains: list[int], propagate, edges, incident: list[list[int]]) -> Iterator[list[int]]:
    """The choices of one bit per mask of ``domains`` that ``propagate``
    keeps, each as a list of one-bit masks, in lexicographic order.

    ``propagate(domains, edges, incident, pending)`` prunes the masks in
    place to arc consistency along ``edges`` from the positions ``pending``,
    a shrinking mask k requeueing the positions ``incident[k]``, and is
    False once a mask empties.  Each node propagates, then splits the first
    mask with several bits into one branch per bit, lowest first; a branch
    requeues only the constraints on the split mask, since its parent was
    already arc consistent (Mackworth 1977; Sabin and Freuder 1994).  The
    fixpoint does not depend on the queue order, and the masks before the
    split one have one bit each, so the leaves come in lexicographic order.
    An empty root mask yields nothing.  The stack is explicit, so the depth
    is not bounded by the interpreter's recursion limit.
    """
    if not all(domains):
        return
    stack = [(domains, list(range(len(edges))))]
    while stack:
        domains, pending = stack.pop()
        if not propagate(domains, edges, incident, pending):
            continue
        k = next((k for k, mask in enumerate(domains) if mask & mask - 1), None)
        if k is None:
            yield domains
            continue
        mask = domains[k]
        # Highest first, so the lowest bit is popped first.
        for bit in reversed(range(mask.bit_length())):
            if mask >> bit & 1:
                stack.append((domains[:k] + [1 << bit] + domains[k + 1:], list(incident[k])))


# -- label inference ------------------------------------------------------

# A label domain is a 3-bit mask, bit k for LABEL_VALUES[k].
_LABEL_BIT = {value: 1 << k for k, value in enumerate(LABEL_VALUES)}
# Per color, off _EDGE_CLASS: [0][m] masks the head labels that some tail
# label in mask m pairs with, [1][m] the tail labels some head label in m
# pairs with (each a sum over a set of distinct bits, so their union).
_SUPPORT = {color: tuple(
    [sum({_LABEL_BIT[pair[1 - end]] for pair in pairs if m & _LABEL_BIT[pair[end]]})
     for m in range(8)] for end in (0, 1)
) for color, pairs in _EDGE_CLASS.items()}


# Per port mask, the mask of the labels whose needed ports are all in it.
_ENDPOINT_DOMAIN = [
    sum(
        _LABEL_BIT[value] for value, needs in _ENDPOINT_NEEDS.items()
        if all(mask & _PORT_BIT[port] for _clause, port in needs)
    )
    for mask in range(16)
]
# Per color, the bits of its leaving and its entering port.
_PORT_BITS = {color: (_PORT_BIT["leaving", color], _PORT_BIT["entering", color]) for color in (1, 2)}


def _network(n: int, edges) -> tuple[list[int], list[list[int]]]:
    """For ``edges``, (tail, head, color) triples over indices 0..n-1, each
    index's label mask from the endpoint clauses alone and its incident
    edges, as positions in ``edges``: the rest of ``_propagate``'s input."""
    ports = [0] * n
    incident: list[list[int]] = [[] for _ in range(n)]
    for k, (tail, head, color) in enumerate(edges):
        leaving, entering = _PORT_BITS[color]
        ports[tail] |= leaving
        ports[head] |= entering
        incident[tail].append(k)
        incident[head].append(k)
    return [_ENDPOINT_DOMAIN[mask] for mask in ports], incident


def _propagate(domains: list[int], edges, incident: list[list[int]], pending: list[int]) -> bool:
    """``_search``'s propagation on label masks along ``edges`` (see
    ``_network``), from the edge positions ``pending``."""
    while pending:
        tail, head, color = edges[pending.pop()]
        heads_of, tails_of = _SUPPORT[color]
        old_tail, old_head = domains[tail], domains[head]
        new_tail = old_tail & tails_of[old_head]
        new_head = old_head & heads_of[new_tail]
        for v, old, new in ((tail, old_tail, new_tail), (head, old_head, new_head)):
            if new != old:
                if not new:
                    return False
                domains[v] = new
                pending += incident[v]
    return True


def infer_labelings(g: ColoredDigraph) -> list[Labeling]:
    """Enumerate every labeling satisfying the local axioms.

    Propagation is the only pruning: ``_search`` runs on ``_propagate``'s
    label masks, the k-th vertex in declared order at index k.  Each search
    node propagates its domains to arc consistency; if a vertex still has
    several values, the first such vertex is fixed to each of them in turn
    and each copy is propagated again from the fixed vertex's edges.  Every
    edge relation is closed under the pointwise maximum for 0 < c < 1, so
    once propagation leaves no domain empty, the largest value of every
    domain is a labeling (Jeavons and Cooper, "Tractable constraints on
    ordered domains", 1995).  A branch with no labeling therefore dies in
    its first propagation, and every other branch yields at least one
    labeling.  Results come in lexicographic order of the label vector
    under declared vertex order with 0 < c < 1.  The search's edges are the
    index skeleton's rows.
    """
    _require_degree_axiom(g)
    edges = list(zip(*g._skeleton))
    root, incident = _network(len(g.vertices), edges)
    return [
        Labeling(labels={v: LABEL_VALUES[mask.bit_length() - 1] for v, mask in zip(g.vertices, domains)})
        for domains in _search(root, _propagate, edges, incident)
    ]


# -- marking search -------------------------------------------------------


def _slot_layout(strings) -> tuple[list[int], list[int], list[int], list[int]]:
    """For 1-strings over the indices 0..n-1, each index's string, ``below``
    and ``upto`` masks, and each string's full slot mask.

    A string's slot mask has bit s set while its central element may still
    sit at slot s (see the module docstring).  So its vertex k is right for
    the slots in ``below`` = (1 << 2k) - 1, right or central for those in
    ``upto`` = (1 << 2k + 1) - 1, and left for the others.
    """
    n = sum(map(len, strings))
    string_of, below, upto = [0] * n, [0] * n, [0] * n
    for s, string in enumerate(strings):
        for k, v in enumerate(string):
            string_of[v] = s
            below[v] = (1 << 2 * k) - 1
            upto[v] = (1 << 2 * k + 1) - 1
    return string_of, below, upto, [(1 << 2 * len(string) - 1) - 1 for string in strings]


def _slot_search(layout, twos) -> Iterator[list[int]]:
    """Every choice of one slot per 1-string of ``layout`` (``_slot_layout``)
    under which each 2-string, its 2-edges the (tail, head) index pairs
    ``twos``, reads R* C L*, as slot masks of one bit each, in the order of
    the product of the slot ranges.

    The constraints, read off that word shape (see ``_b2_markings``): the
    first vertex of a 2-string, one without an entering 2-edge, is not
    left (its string's mask keeps ``upto``), its last is not right (the
    mask drops ``below``), and a 2-edge's class pair is RR, RC, CL or LL.
    A 2-edge within one 1-string is one condition on that string's slot,
    applied once.  A 2-edge (u, v) across two strings is a binary
    constraint that ``_propagate_slots`` keeps arc consistent: v may be
    right or central if u may be right, and left if u may be central or
    left; u may be right if v may be right or central, and central or left
    if v may be left.  Propagation removes only slots that no choice
    satisfying every constraint uses, and once every mask has one bit each
    constraint is checked exactly, so ``_search``'s leaves are exactly the
    valid choices.
    """
    string_of, below, upto, full = layout
    domains = list(full)
    edges, incident = [], [[] for _ in full]
    entered = left = 0
    for u, v in twos:
        entered |= 1 << v
        left |= 1 << u
        tail, head = string_of[u], string_of[v]
        if tail == head:  # u right and v not left, or u not right and v left
            domains[tail] &= below[u] & upto[v] | ~(below[u] | upto[v])
        else:
            incident[tail].append(len(edges))
            incident[head].append(len(edges))
            edges.append((tail, head, below[u], upto[v]))
    for v, s in enumerate(string_of):
        if not entered >> v & 1:
            domains[s] &= upto[v]
        if not left >> v & 1:
            domains[s] &= ~below[v]
    return _search(domains, _propagate_slots, edges, incident)


def _propagate_slots(domains: list[int], edges, incident: list[list[int]], pending: list[int]) -> bool:
    """``_search``'s propagation on slot masks along ``edges``, (tail
    string, head string, tail's ``below``, head's ``upto``) as
    ``_slot_search`` builds them, from the edge positions ``pending``."""
    while pending:
        tail, head, below, upto = edges[pending.pop()]
        old_tail, old_head = domains[tail], domains[head]
        new_head, new_tail = old_head, old_tail
        if not old_tail & below:  # the tail is never right: the head is left
            new_head &= ~upto
        elif old_tail <= below:  # the tail is always right: the head is not left
            new_head &= upto
        if not new_head & upto:  # the head is always left: the tail is not right
            new_tail &= ~below
        elif new_head <= upto:  # the head is never left: the tail is right
            new_tail &= below
        for s, old, new in ((tail, old_tail, new_tail), (head, old_head, new_head)):
            if new != old:
                if not new:
                    return False
                domains[s] = new
                pending += incident[s]
    return True
