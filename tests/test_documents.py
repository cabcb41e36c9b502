"""Document parsing, error kinds, and serialization round-trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalcheck import (
    DocumentError,
    LabelingError,
    MarkingError,
    dumps_document,
    document_from_graph,
    parse_document,
    parse_graph,
    serialize_graph,
)
from crystalcheck.axioms import CentralMarking, Labeling
from crystalcheck.documents import _position_text, dumps_position_edges, graph_from_position_edges
from crystalcheck.enumeration import GraphStream, position_graphs

from helpers import (
    CANONICAL_COUNTS,
    HOSTILE_DOCUMENTS,
    LABELED_COUNTS,
    colored_digraphs,
    doc_bytes,
    graphs_with_labelings,
    parse_document_oracle,
)


def test_smallest_legal_document():
    g = parse_graph(b'{"vertices":["a"],"edges":[]}')
    assert g.vertices == ("a",)
    assert g.edges == ()


def test_single_edge_document():
    g = parse_graph(b'{"vertices":["a","b"],"edges":[{"from":"a","to":"b","color":1}]}')
    assert len(g.edges) == 1
    assert g.edges[0] == ("a", "b", 1)


def test_parallel_edges_of_different_colors_allowed():
    g = parse_graph(doc_bytes({
        "vertices": ["a", "b"],
        "edges": [
            {"from": "a", "to": "b", "color": 1},
            {"from": "a", "to": "b", "color": 2},
        ],
    }))
    assert len(g.edges) == 2


@pytest.mark.parametrize("raw, kind", [
    (b'{"vertices":["a"],', "malformed-syntax"),
    (b"[1, 2]", "invalid-structure"),
    (b'{"vertices":["a"],"edges":[],"extra":1}', "unknown-key"),
    (b'{"edges":[]}', "invalid-structure"),
    (b'{"vertices":[],"edges":[]}', "empty-vertex-set"),
    (b'{"vertices":["a","a"],"edges":[]}', "duplicate-vertex"),
    (b'{"vertices":["a","b"],"edges":[{"from":"a","to":"b","color":3}]}', "unknown-color"),
    (b'{"vertices":["a","b"],"edges":[{"from":"a","to":"b","color":true}]}', "unknown-color"),
    (b'{"vertices":["a"],"edges":[{"from":"a","to":"b","color":1}]}', "dangling-endpoint"),
    (b'{"vertices":["a"],"edges":[{"from":"a","to":"a","color":2}]}', "self-loop"),
    (
        b'{"vertices":["a","b"],"edges":['
        b'{"from":"a","to":"b","color":1},{"from":"a","to":"b","color":1}]}',
        "duplicate-edge",
    ),
    (b'{"vertices":["a","b"],"edges":[{"from":"a","to":"b"}]}', "invalid-structure"),
    (b'{"vertices":["a"],"edges":[1]}', "invalid-structure"),
    (b'{"vertices":["a","b"],"edges":[{"from":1,"to":"b","color":1}]}', "invalid-structure"),
    (b'{"vertices":["a"],"edges":[],"labels":{"a":"x"}}', "invalid-labels"),
    (b'{"vertices":["a"],"edges":[],"labels":{"b":"c"}}', "invalid-labels"),
    (b'{"vertices":["a","b"],"edges":[],"labels":{"a":"c"}}', "invalid-labels"),
    (b'{"vertices":["a"],"edges":[],"labels":["a"]}', "invalid-labels"),
    (b'{"vertices":["a"],"edges":[],"centers":["a"]}', "invalid-centers"),
    (b'{"vertices":["a"],"edges":[],"centers":{"vertices":["a","a"]}}', "invalid-centers"),
    (b'{"vertices":["a"],"edges":[],"centers":{"edges_1":{}}}', "invalid-centers"),
    (b'{"vertices":["a"],"edges":[],"centers":{"vertices":["b"]}}', "invalid-centers"),
    (b'{"vertices":["a"],"edges":[],"centers":{"nope":[]}}', "invalid-centers"),
    (
        b'{"vertices":["a","b"],"edges":[{"from":"a","to":"b","color":2}],'
        b'"centers":{"edges_1":[["a","b"]]}}',
        "invalid-centers",
    ),
    (
        b'{"vertices":["a","b"],"edges":[{"from":"a","to":"b","color":1}],'
        b'"centers":{"edges_1":[["a"]]}}',
        "invalid-centers",
    ),
    (
        b'{"vertices":["a","b"],"edges":[{"from":"a","to":"b","color":1}],'
        b'"centers":{"edges_1":[["a","b"],["a","b"]]}}',
        "invalid-centers",
    ),
    *(pytest.param(raw, "malformed-syntax", id=name) for name, raw in HOSTILE_DOCUMENTS.items()),
])
def test_rejects_carry_distinct_kinds(raw, kind):
    with pytest.raises(DocumentError) as err:
        parse_document(raw)
    assert err.value.kind == kind
    assert err.value.location


def test_error_location_points_at_offending_edge():
    raw = doc_bytes({
        "vertices": ["a", "b", "c"],
        "edges": [
            {"from": "a", "to": "b", "color": 1},
            {"from": "b", "to": "b", "color": 2},
        ],
    })
    with pytest.raises(DocumentError) as err:
        parse_document(raw)
    assert err.value.kind == "self-loop"
    assert err.value.location == "edges[1]"


def test_labels_and_centers_are_parsed():
    doc = parse_document(doc_bytes({
        "vertices": ["a", "b"],
        "edges": [{"from": "a", "to": "b", "color": 1}],
        "labels": {"a": "0", "b": "1"},
        "centers": {"vertices": [], "edges_1": [["a", "b"]]},
    }))
    assert doc.labels is not None
    assert doc.labels.labels == {"a": "0", "b": "1"}
    assert doc.marking == CentralMarking(
        central_vertices=frozenset(),
        central_1_edges=frozenset({("a", "b")}),
    )


@given(colored_digraphs(max_vertices=5))
def test_graph_round_trip(g):
    again = parse_graph(serialize_graph(g))
    assert again == g
    assert parse_graph(serialize_graph(again)) == again


@given(graphs_with_labelings(max_vertices=5, require_b0=False))
def test_full_document_round_trip(pair):
    g, lab = pair
    one_edges = [(e.tail, e.head) for e in g.edges if e.color == 1]
    marking = CentralMarking(
        central_vertices=frozenset(g.vertices[:1]),
        central_1_edges=frozenset(one_edges[:1]),
    )
    payload = serialize_graph(g, labels=lab, marking=marking)
    doc = parse_document(payload)
    assert doc.graph == g
    assert doc.labels == lab
    assert doc.marking == marking


def test_serializing_a_labeling_not_total_on_the_graph_is_a_labeling_error():
    g = parse_graph(b'{"vertices":["a","b"],"edges":[{"from":"a","to":"b","color":1}]}')
    with pytest.raises(LabelingError, match=r"missing \['b'\], extraneous \[\]"):
        serialize_graph(g, labels=Labeling({"a": "0"}))
    with pytest.raises(LabelingError, match=r"missing \[\], extraneous \['z'\]"):
        document_from_graph(g, labels=Labeling({"a": "0", "b": "1", "z": "c"}))


def test_serializing_a_marking_off_the_graph_is_a_marking_error():
    g = parse_graph(b'{"vertices":["a","b"],"edges":[{"from":"a","to":"b","color":1}]}')
    with pytest.raises(MarkingError, match="central vertex 'z' is not in the graph"):
        serialize_graph(g, marking=CentralMarking(frozenset({"a", "z"}), frozenset()))
    with pytest.raises(MarkingError, match=r"central edge \('b', 'a'\) is not a 1-edge"):
        document_from_graph(g, marking=CentralMarking(frozenset(), frozenset({("b", "a")})))


def test_dumps_document_compact_and_pretty():
    doc = document_from_graph(parse_graph(b'{"vertices":["a"],"edges":[]}'))
    compact = dumps_document(doc, compact=True)
    pretty = dumps_document(doc)
    assert "\n" not in compact
    assert json.loads(compact) == json.loads(pretty) == doc


@pytest.mark.parametrize("canonical, counts", [(True, CANONICAL_COUNTS), (False, LABELED_COUNTS)])
def test_position_edge_lines_are_the_compact_documents(canonical, counts):
    # The line ``enumerate`` prints for each graph of both streams.
    stream = GraphStream(max_vertices=max(counts), canonical=canonical)
    lines = 0
    for n, edges in position_graphs(stream):
        g = graph_from_position_edges(n, edges)
        expected = dumps_document(document_from_graph(g), compact=True)
        assert dumps_position_edges(n, edges) == expected
        lines += 1
    assert lines == sum(counts.values())


@pytest.mark.parametrize("n", range(1, 9))
def test_position_edge_text_table_is_the_compact_documents(n):
    # Every edge a graph on n positions can have, alone on them, as
    # ``enumerate`` writes it from the per-n text table.
    _, items = _position_text(n)
    assert set(items) == {
        (i, j, color) for i in range(n) for j in range(n) if i != j for color in (1, 2)
    }
    for edge in items:
        g = graph_from_position_edges(n, [edge])
        expected = dumps_document(document_from_graph(g), compact=True)
        assert dumps_position_edges(n, [edge]) == expected
    assert dumps_position_edges(n, []) == dumps_document(
        document_from_graph(graph_from_position_edges(n, [])), compact=True
    )


# -- the parser against the one-loop oracle ----------------------------------

_NAMES = ["a", "b", "c", "d", "é"]
_BAD_EDGES = [
    1, [], None, "edge",
    {"from": "a", "to": "b"},
    {"from": "a", "to": "b", "color": 1, "weight": 0},
    {"from": 1, "to": "a", "color": 1},
    {"from": "a", "to": None, "color": 2},
]
_BAD_COLORS = [0, 3, -1, True, False, 1.0, 2.0, "1", None, [1]]


@st.composite
def faulty_documents(draw) -> bytes:
    """A graph document over a few names with up to five injected faults:
    a bad edge shape, a bad color, a dangling endpoint, a self-loop, a
    duplicate edge or vertex, a lone surrogate, a bad vertex or edge list."""
    vertices = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=5, unique=True))
    edge = st.fixed_dictionaries({
        "from": st.sampled_from(vertices),
        "to": st.sampled_from(vertices),
        "color": st.sampled_from([1, 2]),
    })
    edges = draw(st.lists(edge, max_size=8))

    def insert(items: list, item) -> None:
        items.insert(draw(st.integers(0, len(items))), item)

    faults = draw(st.lists(st.sampled_from([
        "shape", "color", "dangling", "self-loop", "duplicate-edge",
        "duplicate-vertex", "surrogate", "vertex-list", "edge-list",
    ]), max_size=5))
    # The faults that replace a whole list come last.
    for fault in sorted(faults, key=lambda fault: fault.endswith("-list")):
        if fault == "shape":
            insert(edges, draw(st.sampled_from(_BAD_EDGES)))
        elif fault == "color":
            insert(edges, {**draw(edge), "color": draw(st.sampled_from(_BAD_COLORS))})
        elif fault == "dangling":
            insert(edges, {**draw(edge), draw(st.sampled_from(["from", "to"])): "zz"})
        elif fault == "self-loop":
            v = draw(st.sampled_from(vertices))
            insert(edges, {**draw(edge), "from": v, "to": v})
        elif fault == "duplicate-edge" and edges:
            insert(edges, draw(st.sampled_from(edges)))
        elif fault == "duplicate-vertex":
            insert(vertices, draw(st.sampled_from(vertices)))
        elif fault == "surrogate":
            surrogate = draw(st.sampled_from(["\ud800", "\udfff", "x\udc00"]))
            insert(vertices, surrogate)
            if draw(st.booleans()):
                insert(edges, {"from": surrogate, "to": vertices[0], "color": 1})
        elif fault == "vertex-list":
            vertices = draw(st.sampled_from([[], {}, "a", [1], ["a", None]]))
        elif fault == "edge-list":
            edges = draw(st.sampled_from([{}, "edges", 1]))
    doc: dict = {"vertices": vertices, "edges": edges}
    if draw(st.booleans()) and type(vertices) is list:
        doc["labels"] = {v: draw(st.sampled_from(["0", "c", "1"])) for v in vertices}
    return json.dumps(doc).encode("utf-8")


def _outcome(parse, data):
    try:
        return parse(data)
    except DocumentError as exc:
        return (exc.kind, exc.location, exc.message)


@settings(max_examples=500)
@given(faulty_documents())
def test_parser_matches_the_one_loop_oracle(data):
    assert _outcome(parse_document, data) == _outcome(parse_document_oracle, data)
