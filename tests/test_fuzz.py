"""Hypothesis fuzzing of the document parser and the commands that read
documents.

Only ``DocumentError`` may leave ``parse_document``.  Every document goes
through ``validate``, ``validate --format text`` and ``infer`` in-process,
with stdout a strict UTF-8 stream as in a real run: the exit code must be 0,
1 or 2, and 2 exactly when the parser refuses the document.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from crystalcheck import DocumentError, cli, parse_document
from crystalcheck.axioms import LABEL_VALUES

COMMANDS = (("validate",), ("validate", "--format", "text"), ("infer",))

# Every code point, lone surrogates included: a JSON escape can spell any.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=4)
# Vertex names, weighted towards the ones that collide and the ones that
# no output encoding accepts as they are.
_NAMES = st.sampled_from(["a", "b", "c", "", "\ud800", "\udfff", "é", "\U0001f600", "\x00"]) | _TEXT
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=12,
)
_COLORS = st.sampled_from([1, 2]) | _SCALARS
_TOP_LEVEL_KEYS = st.sampled_from(["vertices", "edges", "labels", "centers", "extra"])


@st.composite
def near_valid_documents(draw) -> dict:
    """A well-formed graph document over a few drawn names, with optional
    labels and centers, then perhaps one top-level value replaced by
    arbitrary JSON."""
    names = draw(st.lists(_NAMES, max_size=5))
    endpoints = st.sampled_from(names) | _NAMES if names else _NAMES
    edges = draw(st.lists(
        st.fixed_dictionaries({"from": endpoints, "to": endpoints, "color": _COLORS}),
        max_size=8,
    ))
    doc: dict = {"vertices": names, "edges": edges}
    if draw(st.booleans()):
        doc["labels"] = {v: draw(st.sampled_from(LABEL_VALUES) | _SCALARS) for v in names}
    if draw(st.booleans()):
        one_edges = [[e["from"], e["to"]] for e in edges if e["color"] == 1]
        doc["centers"] = {
            "vertices": draw(st.lists(endpoints, max_size=3, unique=True)),
            "edges_1": draw(st.lists(st.sampled_from(one_edges), max_size=2))
            if one_edges else [],
        }
    if draw(st.booleans()):
        doc[draw(_TOP_LEVEL_KEYS)] = draw(_JSON)
    return doc


DOCUMENTS = (
    st.builds(lambda doc: json.dumps(doc).encode("utf-8"), near_valid_documents() | _JSON)
    | st.binary(max_size=64)
)


def run_in_process(argv: tuple[str, ...], data: bytes) -> int:
    """``crystalcheck <argv> -`` with ``data`` on stdin and a strict UTF-8
    stdout; an uncaught exception fails the caller."""
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "-"])
        stdout.flush()
    return code


@settings(max_examples=300)
@given(DOCUMENTS)
def test_parser_and_cli_keep_the_exit_code_contract(data):
    try:
        parse_document(data)
        parsed = True
    except DocumentError:
        parsed = False
    expected = (0, 1) if parsed else (2,)
    for argv in COMMANDS:
        assert run_in_process(argv, data) in expected, argv
