"""Document parsing, error kinds, and serialization round-trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given

from crystalcheck import (
    DocumentError,
    dumps_document,
    document_from_graph,
    parse_document,
    parse_graph,
    serialize_graph,
)
from crystalcheck.axioms import CentralMarking

from helpers import HOSTILE_DOCUMENTS, colored_digraphs, doc_bytes, graphs_with_labelings


def test_smallest_legal_document():
    g = parse_graph(b'{"vertices":["a"],"edges":[]}')
    assert g.vertices == ("a",)
    assert g.edges == ()


def test_single_edge_document():
    g = parse_graph(b'{"vertices":["a","b"],"edges":[{"from":"a","to":"b","color":1}]}')
    assert len(g.edges) == 1
    assert g.edges[0].triple() == ("a", "b", 1)


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


def test_dumps_document_compact_and_pretty():
    doc = document_from_graph(parse_graph(b'{"vertices":["a"],"edges":[]}'))
    compact = dumps_document(doc, compact=True)
    pretty = dumps_document(doc)
    assert "\n" not in compact
    assert json.loads(compact) == json.loads(pretty) == doc
