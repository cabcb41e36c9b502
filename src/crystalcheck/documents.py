"""JSON graph documents: parsing, validation, and serialization.

The document format is a single JSON object:

    {
      "vertices": ["a", "b", ...],
      "edges":    [{"from": "a", "to": "b", "color": 1}, ...],
      "labels":   {"a": "c", ...},                        # optional
      "centers":  {"vertices": ["a"], "edges_1": [["a","b"]]}  # optional
    }

Unknown top-level keys are rejected.  Every reject carries a distinct error
kind plus a location, so callers can report precisely what was wrong.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from typing import Optional, Union

from .axioms import LABEL_VALUES, CentralMarking, Labeling, _check_marking_scope, _require_total
from .errors import DocumentError, GraphError
from .graph import ColoredDigraph, Edge

_TOP_LEVEL_KEYS = ("vertices", "edges", "labels", "centers")
# The code points UTF-8 cannot encode.
_SURROGATE = re.compile("[\ud800-\udfff]")
_EDGE_KEYS = {"from", "to", "color"}
_CENTERS_KEYS = {"vertices", "edges_1"}


@dataclass(frozen=True)
class GraphDocument:
    """A parsed document: the graph plus whatever annotations it carried."""

    graph: ColoredDigraph
    labels: Optional[Labeling] = None
    marking: Optional[CentralMarking] = None


def _require_str_list(value, kind: str, location: str) -> list[str]:
    if not isinstance(value, list) or any(not isinstance(x, str) for x in value):
        raise DocumentError(kind, location, "expected an array of strings")
    return value


# Where and how a document reports each ``GraphError`` kind; ``{0}`` is the
# error's value and ``{1}`` its index.
_GRAPH_FAULTS = {
    "empty-vertex-set": ("vertices", "a graph must declare at least one vertex"),
    "duplicate-vertex": ("vertices[{1}]", "vertex {0!r} declared twice"),
    "unknown-color": ("edges[{1}]", "color must be 1 or 2, got {0!r}"),
    "dangling-endpoint": ("edges[{1}]", "undeclared vertex {0!r}"),
    "self-loop": ("edges[{1}]", "self-loop at {0!r}"),
    "duplicate-edge": ("edges[{1}]", "duplicate edge {0}"),
}


def _graph(vertices, edges) -> ColoredDigraph:
    """The graph on these vertices and edges, or the ``DocumentError`` for
    its first fault."""
    try:
        return ColoredDigraph(vertices=vertices, edges=edges)
    except GraphError as exc:
        location, message = (
            text.format(exc.value, exc.index) for text in _GRAPH_FAULTS[exc.kind]
        )
        raise DocumentError(exc.kind, location, message) from exc


def _edge_shape_fault(item) -> Optional[str]:
    """What is wrong with the shape of one edge item, or None."""
    if type(item) is not dict:
        return "edge must be an object"
    if item.keys() != _EDGE_KEYS:
        return f"edge object must have exactly the keys {sorted(_EDGE_KEYS)}"
    if type(item["from"]) is not str or type(item["to"]) is not str:
        return "'from' and 'to' must be strings"
    return None


def parse_document(data: Union[bytes, str]) -> GraphDocument:
    """Parse and validate a JSON graph document."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentError("malformed-syntax", "<document>", f"not valid UTF-8: {exc}") from exc
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            "malformed-syntax", f"line {exc.lineno} column {exc.colno}", exc.msg
        ) from exc
    except RecursionError as exc:
        raise DocumentError("malformed-syntax", "<document>", "nesting too deep") from exc
    except ValueError as exc:
        # The only other decoder refusal: an integer literal longer than the
        # interpreter converts.
        raise DocumentError("malformed-syntax", "<document>", "integer literal too long") from exc

    if not isinstance(raw, dict):
        raise DocumentError("invalid-structure", "<document>", "top level must be a JSON object")
    for key in raw:
        if key not in _TOP_LEVEL_KEYS:
            raise DocumentError("unknown-key", key, f"unknown top-level key {key!r}")
    for key in ("vertices", "edges"):
        if key not in raw:
            raise DocumentError("invalid-structure", key, f"missing required key {key!r}")

    vertices = _require_str_list(raw["vertices"], "invalid-structure", "vertices")
    # A JSON escape can spell a lone surrogate, which no output can encode.
    # Each fault the parser finds itself is raised only after the graph
    # built from everything before it, so the first fault in document
    # order wins.
    if _SURROGATE.search("".join(vertices)):
        i = next(i for i, v in enumerate(vertices) if _SURROGATE.search(v))
        if i:
            _graph(vertices[:i], ())
        raise DocumentError("malformed-syntax", f"vertices[{i}]", "vertex id is not valid UTF-8")

    raw_edges = raw["edges"]
    if not isinstance(raw_edges, list):
        _graph(vertices, ())
        raise DocumentError("invalid-structure", "edges", "expected an array of edge objects")
    edges: list[Edge] = []
    for i, item in enumerate(raw_edges):
        fault = _edge_shape_fault(item)
        if fault is not None:
            _graph(vertices, edges)
            raise DocumentError("invalid-structure", f"edges[{i}]", fault)
        edges.append(Edge(item["from"], item["to"], item["color"]))
    graph = _graph(vertices, edges)

    labels = None
    if "labels" in raw:
        labels = _parse_labels(raw["labels"], graph)
    marking = None
    if "centers" in raw:
        marking = _parse_centers(raw["centers"], graph)
    return GraphDocument(graph=graph, labels=labels, marking=marking)


def _parse_labels(raw, graph: ColoredDigraph) -> Labeling:
    if not isinstance(raw, dict):
        raise DocumentError("invalid-labels", "labels", "expected an object mapping vertex to label")
    for v, value in raw.items():
        if not graph.has_vertex(v):
            raise DocumentError("invalid-labels", f"labels.{v}", f"label for undeclared vertex {v!r}")
        if value not in LABEL_VALUES:
            raise DocumentError(
                "invalid-labels", f"labels.{v}",
                f"label must be one of {list(LABEL_VALUES)}, got {value!r}",
            )
    missing = [v for v in graph.vertices if v not in raw]
    if missing:
        raise DocumentError(
            "invalid-labels", "labels", f"labels must cover every vertex; missing {missing}"
        )
    return Labeling(labels={v: raw[v] for v in graph.vertices})


def _parse_centers(raw, graph: ColoredDigraph) -> CentralMarking:
    if not isinstance(raw, dict):
        raise DocumentError("invalid-centers", "centers", "expected an object")
    for key in raw:
        if key not in _CENTERS_KEYS:
            raise DocumentError("invalid-centers", f"centers.{key}", f"unknown key {key!r}")

    central_vertices = _require_str_list(raw.get("vertices", []), "invalid-centers", "centers.vertices")
    seen_v = set()
    for i, v in enumerate(central_vertices):
        loc = f"centers.vertices[{i}]"
        if not graph.has_vertex(v):
            raise DocumentError("invalid-centers", loc, f"undeclared vertex {v!r}")
        if v in seen_v:
            raise DocumentError("invalid-centers", loc, f"vertex {v!r} listed twice")
        seen_v.add(v)

    raw_edges = raw.get("edges_1", [])
    if not isinstance(raw_edges, list):
        raise DocumentError("invalid-centers", "centers.edges_1", "expected an array of [tail, head] pairs")
    central_edges = set()
    for i, pair in enumerate(raw_edges):
        loc = f"centers.edges_1[{i}]"
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(not isinstance(x, str) for x in pair)
        ):
            raise DocumentError("invalid-centers", loc, "expected a [tail, head] pair of strings")
        tail, head = pair
        if not graph.has_edge(tail, head, 1):
            raise DocumentError(
                "invalid-centers", loc, f"({tail!r}, {head!r}) is not a declared 1-edge"
            )
        if (tail, head) in central_edges:
            raise DocumentError("invalid-centers", loc, f"edge ({tail!r}, {head!r}) listed twice")
        central_edges.add((tail, head))

    return CentralMarking(
        central_vertices=frozenset(seen_v),
        central_1_edges=frozenset(central_edges),
    )


def parse_graph(data: Union[bytes, str]) -> ColoredDigraph:
    """Parse a document and return just its graph."""
    return parse_document(data).graph


def document_from_graph(
    g: ColoredDigraph,
    labels: Optional[Labeling] = None,
    marking: Optional[CentralMarking] = None,
) -> dict:
    """Build the JSON-ready document for a graph and optional annotations.

    All collections follow declared order, so the output is deterministic.
    A labeling that is not total on ``g`` raises ``LabelingError``, and a
    marking naming a vertex or 1-edge not in ``g`` raises ``MarkingError``.
    """
    doc: dict = {
        "vertices": list(g.vertices),
        "edges": [{"from": e.tail, "to": e.head, "color": e.color} for e in g.edges],
    }
    if labels is not None:
        _require_total(g, labels)
        doc["labels"] = labels.as_jsonable(g)
    if marking is not None:
        _check_marking_scope(marking, g.has_vertex, lambda tail, head: g.has_edge(tail, head, 1))
        doc["centers"] = marking.as_jsonable(g)
    return doc


def graph_from_position_edges(n: int, edges) -> ColoredDigraph:
    """The graph on vertices v1..vn with these position edges, (tail, head,
    color) triples over positions 0..n-1."""
    names = tuple(f"v{k + 1}" for k in range(n))
    return ColoredDigraph(
        vertices=names,
        edges=tuple(Edge(names[i], names[j], color) for i, j, color in edges),
    )


@functools.cache
def _position_text(n: int) -> tuple[str, dict[tuple[int, int, int], str]]:
    """The head of ``dumps_position_edges``' line on n positions, up to the
    edge list, and the text of each edge (i, j, color) a graph on them can
    have."""
    vertices = ",".join(f'"v{k + 1}"' for k in range(n))
    items = {
        (i, j, color): f'{{"from":"v{i + 1}","to":"v{j + 1}","color":{color}}}'
        for i in range(n) for j in range(n) if i != j for color in (1, 2)
    }
    return f'{{"vertices":[{vertices}],"edges":[', items


def dumps_position_edges(n: int, edges) -> str:
    """The line ``dumps_document(document_from_graph(g), compact=True)``
    gives for ``g = graph_from_position_edges(n, edges)``, written without
    building the graph."""
    head, items = _position_text(n)
    return head + ",".join(map(items.__getitem__, edges)) + "]}"


def dumps_document(doc: dict, compact: bool = False) -> str:
    if compact:
        return json.dumps(doc, separators=(",", ":"))
    return json.dumps(doc, indent=2)


def serialize_graph(
    g: ColoredDigraph,
    labels: Optional[Labeling] = None,
    marking: Optional[CentralMarking] = None,
) -> bytes:
    """Serialize to the document format; parsing the result round-trips."""
    return dumps_document(document_from_graph(g, labels, marking)).encode("utf-8")

