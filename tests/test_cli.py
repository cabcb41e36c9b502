"""End-to-end CLI behavior through real subprocesses, and through
``cli.main`` in process where a test needs one process's state."""

from __future__ import annotations

import contextlib
import enum
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crystalcheck import (
    ColoredDigraph,
    GraphStream,
    axioms,
    check_corollary2,
    check_corollary3,
    cli,
    enumerate_graphs,
    infer_labelings,
    parse_graph,
)
from crystalcheck.cli import _dumps_indented

from helpers import CANONICAL_COUNTS, HOSTILE_DOCUMENTS, LABELED_COUNTS

DOCUMENTS = Path(__file__).parent / "documents"


def cli_env(env_extra: dict | None = None) -> dict:
    """This process's environment without CRYSTALCHECK_THREADS, updated by
    ``env_extra``."""
    import os
    env = dict(os.environ)
    env.pop("CRYSTALCHECK_THREADS", None)
    env.update(env_extra or {})
    return env


def run_cli(*args, stdin: bytes = b"", env_extra: dict | None = None):
    return subprocess.run(
        [sys.executable, "-m", "crystalcheck", *args],
        input=stdin, capture_output=True, env=cli_env(env_extra),
    )


def test_validate_valid_labels_document():
    result = run_cli("validate", str(DOCUMENTS / "valid_labels_path5.json"))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["ok"] is True
    assert payload["mode"] == "labels"


def test_validate_centers_mode_derives_labels():
    result = run_cli("validate", str(DOCUMENTS / "valid_centers_path5.json"))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["mode"] == "centers"
    assert payload["derived_labels"] == {
        "v1": "c", "v2": "1", "v3": "c", "v4": "0", "v5": "c",
    }


def test_validate_inference_fallback():
    result = run_cli("validate", str(DOCUMENTS / "single_vertex.json"))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["mode"] == "inference"
    assert [entry["labels"] for entry in payload["labelings"]] == [{"a": "c"}]


def test_validate_cc_edge_names_clause():
    result = run_cli("validate", str(DOCUMENTS / "local_cc_edge.json"))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    local = [c for c in payload["checks"] if c["check"] == "local"][0]
    assert [v["clause"] for v in local["violations"]] == ["B1(i)"]


def test_validate_global_missing_centers():
    result = run_cli("validate", str(DOCUMENTS / "global_missing_centers.json"))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    global_check = [c for c in payload["checks"] if c["check"] == "global"][0]
    b1 = [v for v in global_check["violations"] if v["clause"] == "B1"]
    assert [v["at"] for v in b1] == ["v1", "v4"]
    assert all("0 central elements" in v["detail"] for v in b1)


def test_validate_corollary_gap_fails_with_predicate():
    result = run_cli("validate", str(DOCUMENTS / "corollary2_gap.json"))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert all(not c["violations"] for c in payload["checks"])
    statuses = {p["predicate"]: p["status"] for p in payload["predicates"]}
    assert statuses["corollary2"] == "fails"
    assert statuses["string-words"] == "holds"


def test_validate_connectivity_flag():
    doc = DOCUMENTS / "disconnected_pair.json"
    strict = run_cli("validate", str(doc))
    assert strict.returncode == 1
    relaxed = run_cli("validate", str(doc), "--no-require-connected")
    assert relaxed.returncode == 0
    payload = json.loads(relaxed.stdout)
    connectivity = [c for c in payload["checks"] if c["check"] == "connectivity"][0]
    assert connectivity["enforced"] is False


def test_validate_mode_requires_matching_key():
    result = run_cli("validate", str(DOCUMENTS / "single_vertex.json"), "--mode", "labels")
    assert result.returncode == 2
    result = run_cli("validate", str(DOCUMENTS / "single_vertex.json"), "--mode", "centers")
    assert result.returncode == 2


def test_validate_reads_stdin():
    payload = (DOCUMENTS / "valid_labels_path5.json").read_bytes()
    result = run_cli("validate", "-", stdin=payload)
    assert result.returncode == 0


def test_validate_missing_file_is_input_error():
    result = run_cli("validate", str(DOCUMENTS / "does_not_exist.json"))
    assert result.returncode == 2
    assert b"error" in result.stderr


def test_validate_text_format():
    result = run_cli("validate", str(DOCUMENTS / "valid_labels_path5.json"),
                     "--format", "text")
    assert result.returncode == 0
    text = result.stdout.decode()
    assert "check local: ok" in text
    assert "result: ok" in text


def test_labels_and_derived_centers_agree_on_exit_code():
    # Re-expressing a valid labeling as its marking must validate the same.
    from crystalcheck import marking_from_labels, parse_document, serialize_graph

    for name in ("valid_labels_path5.json", "valid_chain4_labels.json"):
        doc = parse_document((DOCUMENTS / name).read_bytes())
        marking = marking_from_labels(doc.graph, doc.labels)
        as_labels = run_cli("validate", "-", "--mode", "labels",
                            stdin=serialize_graph(doc.graph, labels=doc.labels))
        as_centers = run_cli("validate", "-", "--mode", "centers",
                             stdin=serialize_graph(doc.graph, marking=marking))
        assert as_labels.returncode == as_centers.returncode == 0


def test_infer_single_vertex():
    result = run_cli("infer", str(DOCUMENTS / "single_vertex.json"))
    assert result.returncode == 0
    assert result.stdout == b'{"a":"c"}\n'


def test_infer_no_labelings_still_succeeds():
    result = run_cli("infer", str(DOCUMENTS / "bare_1_edge.json"))
    assert result.returncode == 0
    assert result.stdout == b""


def test_infer_large_edgeless_graph_without_recursion_limit(tmp_path):
    # One vertex per search level: deeper than the interpreter's default
    # recursion limit.  The only labeling puts every vertex at c.
    vertices = [f"v{k}" for k in range(1200)]
    data = json.dumps({"vertices": vertices, "edges": []}).encode("utf-8")
    labelings = infer_labelings(parse_graph(data))
    assert [lab.labels for lab in labelings] == [{v: "c" for v in vertices}]

    path = tmp_path / "edgeless.json"
    path.write_bytes(data)
    infer = run_cli("infer", str(path))
    assert infer.returncode == 0
    assert b"Traceback" not in infer.stderr
    assert json.loads(infer.stdout) == {v: "c" for v in vertices}
    validate = run_cli("validate", "--no-require-connected", str(path))
    assert validate.returncode == 0
    assert b"Traceback" not in validate.stderr
    assert len(json.loads(validate.stdout)["labelings"]) == 1


def test_infer_rejects_cyclic_input():
    result = run_cli("infer", str(DOCUMENTS / "cyclic.json"))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["violations"][0]["clause"] == "acyclicity"


def test_enumerate_streams_documents():
    result = run_cli("enumerate", "--max-vertices", "2")
    assert result.returncode == 0
    lines = result.stdout.decode().splitlines()
    assert len(lines) == 4  # 1 graph on one vertex + 3 on two
    parsed = [json.loads(line) for line in lines]
    assert parsed[0] == {"vertices": ["v1"], "edges": []}


def test_enumerate_six_vertices_output_is_pinned():
    result = run_cli("enumerate", "--max-vertices", "6")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 4580
    assert Counter(len(json.loads(line)["vertices"]) for line in lines) == CANONICAL_COUNTS
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "7d403346b8728937fdf3e1b205993cd61ce8e5abd16d85e1c80c6ec938e60a5c"
    )


def test_enumerate_six_vertices_on_two_workers_is_pinned():
    # The shards of each row run on a pool; the stream is unchanged.
    result = run_cli("enumerate", "--max-vertices", "6", env_extra={"CRYSTALCHECK_THREADS": "2"})
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "7d403346b8728937fdf3e1b205993cd61ce8e5abd16d85e1c80c6ec938e60a5c"
    )


def test_enumerate_invalid_threads_env():
    result = run_cli("enumerate", "--max-vertices", "2",
                     env_extra={"CRYSTALCHECK_THREADS": "nope"})
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"CRYSTALCHECK_THREADS" in result.stderr
    assert b"Traceback" not in result.stderr


@pytest.mark.parametrize("env_extra", [{}, {"CRYSTALCHECK_THREADS": "2"}])
def test_enumerate_into_a_closed_pipe_exits_2(env_extra):
    # Row 6 is about 700 KB, more than a pipe buffer, so the writer meets
    # the closed pipe (as under ``| head -1``): one error line, no traceback.
    proc = subprocess.Popen(
        [sys.executable, "-m", "crystalcheck", "enumerate", "--max-vertices", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(env_extra),
    )
    assert json.loads(proc.stdout.readline()) == {"vertices": ["v1"], "edges": []}
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert b"Traceback" not in stderr
    assert stderr.decode().splitlines() == [
        "crystalcheck: error: stdout was closed before the output was complete"
    ]


@pytest.mark.parametrize("merged", [False, True])
def test_census_into_a_closed_stderr_exits_2(merged):
    # The reader closes stderr after the first gap note, alone or merged
    # with stdout (``2>&1 | head -1``); rows 6 and 7 write more notes.  A
    # closed stderr is not "violations found", and the error line, which
    # has nowhere to go, must not turn into a traceback or a second error.
    proc = subprocess.Popen(
        [sys.executable, "-m", "crystalcheck", "census", "--max-vertices", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT if merged else subprocess.PIPE,
        env=cli_env(),
    )
    notes = proc.stdout if merged else proc.stderr
    assert notes.readline().startswith(b"note: ")
    notes.close()
    stdout = b"" if merged else proc.stdout.read()
    assert proc.wait(timeout=60) == 2
    assert stdout == b""


@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"])
def test_census_started_with_stderr_closed_exits_2(redirect):
    # Fd 2 closed leaves ``sys.stderr`` None, where the gap notes went to
    # stdout with exit 0; fd 2 open for reading only made the first note
    # raise EBADF, which exited 1.  Both are a closed stderr.
    result = subprocess.run(
        ["sh", "-c", f'exec "$0" -m crystalcheck census --max-vertices 5 {redirect}',
         sys.executable],
        stdout=subprocess.PIPE, env=cli_env(),
    )
    assert result.returncode == 2
    assert result.stdout == b""


@pytest.mark.parametrize("command", ["census", "enumerate"])
def test_started_with_stdout_closed_exits_2(command):
    # Fd 1 closed leaves ``sys.stdout`` None: census raised AttributeError
    # and exited 1, and enumerate printed into nothing and exited 0.
    result = subprocess.run(
        ["sh", "-c", f'exec "$0" -m crystalcheck {command} --max-vertices 3 >&-', sys.executable],
        stderr=subprocess.PIPE, env=cli_env(),
    )
    assert result.returncode == 2
    assert result.stderr.decode().splitlines() == [
        "crystalcheck: error: stdout was closed before the output was complete"
    ]


def test_enumerate_seven_vertices_output_is_pinned():
    result = run_cli("enumerate", "--max-vertices", "7")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 40_007
    assert Counter(len(json.loads(line)["vertices"]) for line in lines) == {
        **CANONICAL_COUNTS, 7: 35_427
    }
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "68eec5c5fc906afa12e967c4b7892694d6f32ad52dee8e6a0edee764d157371a"
    )


def test_enumerate_no_canonical_gives_more():
    canonical = run_cli("enumerate", "--max-vertices", "2")
    labeled = run_cli("enumerate", "--max-vertices", "2", "--no-canonical")
    assert len(labeled.stdout.splitlines()) >= len(canonical.stdout.splitlines())
    assert len(labeled.stdout.splitlines()) == 7  # 1 + 6
    labeled = run_cli("enumerate", "--max-vertices", "4", "--no-canonical")
    assert labeled.returncode == 0
    lines = labeled.stdout.splitlines()
    assert len(lines) == 1849
    assert Counter(len(json.loads(line)["vertices"]) for line in lines) == LABELED_COUNTS
    assert hashlib.sha256(labeled.stdout).hexdigest() == (
        "1d81deeef82e571e0057267d8f4e973f59bbf23e9093858ccc78208675d94310"
    )


def test_enumerate_bounds_checked():
    assert run_cli("enumerate", "--max-vertices", "9").returncode == 2


def test_enumerate_no_canonical_refuses_seven_vertices():
    # Refused before any row is enumerated or held in memory.
    result = run_cli("enumerate", "--max-vertices", "7", "--no-canonical")
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"at most 6" in result.stderr
    assert run_cli("enumerate", "--max-vertices", "0").returncode == 2


def test_census_csv_output():
    result = run_cli("census", "--max-vertices", "3")
    assert result.returncode == 0
    assert result.stdout.decode() == (
        "n,graphs,graphs_with_labeling,labelings,markings\n"
        "1,1,1,1,1\n"
        "2,3,0,0,0\n"
        "3,13,2,2,2\n"
    )


def test_census_budget_exceeded_exits_3():
    result = run_cli("census", "--max-vertices", "4", "--budget-seconds", "0")
    assert result.returncode == 3
    assert b"budget" in result.stderr


@pytest.mark.parametrize("budget", ["nan", "-1", "-inf"])
def test_census_refuses_nan_and_negative_budgets(budget):
    result = run_cli("census", "--max-vertices", "2", f"--budget-seconds={budget}")
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"budget" in result.stderr
    assert b"Traceback" not in result.stderr


def test_census_infinite_budget_is_unbounded():
    result = run_cli("census", "--max-vertices", "2", "--budget-seconds=inf")
    assert result.returncode == 0
    assert result.stdout.decode().splitlines()[-1] == "2,3,0,0,0"


def test_census_bad_max_vertices():
    assert run_cli("census", "--max-vertices", "9").returncode == 2


def test_census_invalid_threads_env():
    result = run_cli("census", "--max-vertices", "2",
                     env_extra={"CRYSTALCHECK_THREADS": "nope"})
    assert result.returncode == 2
    assert b"CRYSTALCHECK_THREADS" in result.stderr


# The valid labelings of 5-vertex graphs on which corollary 2 fails; they are
# the smallest gaps between the local axioms and the corollaries.
CENSUS_GAP_NOTES = "".join(
    f"note: corollary2 fails on {doc}\n" for doc in (
        '{"vertices":["v1","v2","v3","v4","v5"],"edges":[{"from":"v4","to":"v5","color":1},'
        '{"from":"v5","to":"v3","color":1},{"from":"v2","to":"v4","color":2},'
        '{"from":"v3","to":"v1","color":2},{"from":"v5","to":"v3","color":2}],'
        '"labels":{"v1":"c","v2":"c","v3":"1","v4":"0","v5":"1"}}',
        '{"vertices":["v1","v2","v3","v4","v5"],"edges":[{"from":"v4","to":"v5","color":1},'
        '{"from":"v5","to":"v3","color":1},{"from":"v2","to":"v4","color":2},'
        '{"from":"v3","to":"v1","color":2},{"from":"v4","to":"v5","color":2}],'
        '"labels":{"v1":"c","v2":"c","v3":"1","v4":"0","v5":"0"}}',
        '{"vertices":["v1","v2","v3","v4","v5"],"edges":[{"from":"v4","to":"v3","color":1},'
        '{"from":"v5","to":"v2","color":1},{"from":"v2","to":"v3","color":2},'
        '{"from":"v3","to":"v1","color":2},{"from":"v4","to":"v5","color":2}],'
        '"labels":{"v1":"c","v2":"1","v3":"1","v4":"c","v5":"0"}}',
        '{"vertices":["v1","v2","v3","v4","v5"],"edges":[{"from":"v4","to":"v3","color":1},'
        '{"from":"v5","to":"v2","color":1},{"from":"v1","to":"v5","color":2},'
        '{"from":"v3","to":"v2","color":2},{"from":"v5","to":"v4","color":2}],'
        '"labels":{"v1":"c","v2":"c","v3":"1","v4":"0","v5":"0"}}',
    )
).encode()


def test_census_parallel_output_identical():
    # At five vertices the gap notes come from labelings the pool sends back.
    sequential = run_cli("census", "--max-vertices", "5")
    parallel = run_cli("census", "--max-vertices", "5",
                       env_extra={"CRYSTALCHECK_THREADS": "2"})
    assert sequential.returncode == parallel.returncode == 0
    assert sequential.stdout == parallel.stdout
    assert sequential.stderr == parallel.stderr == CENSUS_GAP_NOTES


# SHA-256 of `census --max-vertices 6` stdout (the table) and stderr (its 31
# gap notes, in order).
CENSUS_6_STDOUT_SHA256 = "bb3443609ef9a4c1c33e15f46b200f11d55a9134b1642953023d9e8d713619e2"
CENSUS_6_STDERR_SHA256 = "e3a43db87c51cadb86b72e1432ec5c4ef0c852aca1bd8aca84b50d00d5d9ed25"


@pytest.mark.parametrize("threads", [None, "2"], ids=["serial", "threads-2"])
def test_census_row_6_and_its_corollary_gaps(threads):
    env_extra = {"CRYSTALCHECK_THREADS": threads} if threads else None
    result = run_cli("census", "--max-vertices", "6", env_extra=env_extra)
    assert result.returncode == 0
    assert result.stdout.decode().splitlines()[-2:] == ["5,503,20,20,20", "6,3986,93,94,94"]
    assert hashlib.sha256(result.stdout).hexdigest() == CENSUS_6_STDOUT_SHA256
    assert hashlib.sha256(result.stderr).hexdigest() == CENSUS_6_STDERR_SHA256
    notes = Counter()
    for line in result.stderr.decode().splitlines():
        predicate, doc = re.fullmatch(r"note: (\w+) fails on (.*)", line).groups()
        notes[predicate, len(json.loads(doc)["vertices"])] += 1
    # Six vertices already break corollary 3.
    assert notes == {("corollary2", 5): 4, ("corollary2", 6): 24, ("corollary3", 6): 3}


# SHA-256 of `census --max-vertices 7` stdout (the table) and stderr (its
# 236 gap notes, in order).
CENSUS_7_STDOUT_SHA256 = "bdcf7f22ff46445fc5efe154a7b153f8616456414713872da9c67aea43dad01b"
CENSUS_7_STDERR_SHA256 = "ff943b689e05ab8b90b09b786676618e99633fdae54f459c61d96df4aeadb835"


@pytest.mark.parametrize("threads", [None, "2"], ids=["serial", "threads-2"])
def test_census_row_7_and_its_corollary_gaps(threads):
    env_extra = {"CRYSTALCHECK_THREADS": threads} if threads else None
    result = run_cli("census", "--max-vertices", "7", env_extra=env_extra)
    assert result.returncode == 0
    assert result.stdout.decode().splitlines()[-1] == "7,35427,505,517,517"
    assert len(result.stderr.splitlines()) == 236
    assert hashlib.sha256(result.stdout).hexdigest() == CENSUS_7_STDOUT_SHA256
    assert hashlib.sha256(result.stderr).hexdigest() == CENSUS_7_STDERR_SHA256


# SHA-256 of `census --max-vertices 8` stdout (the table) and stderr (its
# 1,837 gap notes, in order).
CENSUS_8_STDOUT_SHA256 = "acbc339143a341c58f0c6c78987e25a9967f5efcd31a130899d28ddd85e14a8d"
CENSUS_8_STDERR_SHA256 = "aa56662648754b9bf1249abe738a67315ad73e4d5b3229715ba0a91b58e97c7f"


def test_census_row_8_and_its_corollary_gaps():
    # On two workers only: a serial row 8 takes about twice as long, and
    # the row-7 pins already compare the serial and pooled paths.
    result = run_cli("census", "--max-vertices", "8", env_extra={"CRYSTALCHECK_THREADS": "2"})
    assert result.returncode == 0
    assert result.stdout.decode().splitlines()[-1] == "8,348122,3037,3149,3149"
    assert len(result.stderr.splitlines()) == 1837
    assert hashlib.sha256(result.stdout).hexdigest() == CENSUS_8_STDOUT_SHA256
    assert hashlib.sha256(result.stderr).hexdigest() == CENSUS_8_STDERR_SHA256


def test_census_gap_notes_name_their_witness_under_validate(tmp_path):
    # Each note is a document whose labeling passes every axiom check, and
    # ``validate`` names the central 1-edge on which corollary 2 fails.
    for k, line in enumerate(CENSUS_GAP_NOTES.decode().splitlines()):
        path = tmp_path / f"gap{k}.json"
        path.write_text(line.removeprefix("note: corollary2 fails on "))
        result = run_cli("validate", str(path))
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert all(not check["violations"] for check in payload["checks"])
        corollary2 = next(p for p in payload["predicates"] if p["predicate"] == "corollary2")
        assert corollary2["status"] == "fails"
        assert len(corollary2["witnesses"]) == 1


@pytest.mark.parametrize("name", ["malformed.json", "unknown_color.json", "self_loop.json"])
def test_parse_errors_exit_2_with_location(name):
    result = run_cli("validate", str(DOCUMENTS / name))
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"crystalcheck: error:" in result.stderr


@pytest.mark.parametrize("command", ["validate", "infer", "validate --format text"])
@pytest.mark.parametrize("name", sorted(HOSTILE_DOCUMENTS))
def test_hostile_json_exits_2_without_traceback(command, name):
    result = run_cli(*command.split(), "-", stdin=HOSTILE_DOCUMENTS[name])
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"crystalcheck: error: malformed-syntax" in result.stderr
    assert b"Traceback" not in result.stderr
    assert b"sys." not in result.stderr


# -- the report writer against json.dumps(indent=2) --------------------------

class _Color(enum.IntEnum):
    ONE = 1


class _Name(str):
    pass


# Every code point, lone surrogates and control characters included.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
_SCALARS = (
    st.none() | st.booleans() | st.sampled_from([0, 1, -1, True, False])
    | st.integers() | st.integers(min_value=-(10 ** 60), max_value=10 ** 60) | _TEXT
)
_SUPPORTED = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=4)
    ),
    max_leaves=24,
)
# Values json.dumps would encode (or refuse) but the writer does not take.
_UNSUPPORTED = (
    st.floats() | st.sets(st.integers(), max_size=2) | st.binary(max_size=3)
    | st.just(_Color.ONE) | _TEXT.map(_Name) | st.builds(object)
    | st.dictionaries(st.integers() | st.none() | st.booleans() | st.floats(), _SCALARS,
                      min_size=1, max_size=2)
)
_CONTAINING_UNSUPPORTED = st.recursive(
    _UNSUPPORTED,
    lambda children: (
        st.lists(children, min_size=1, max_size=3)
        | st.tuples(_SUPPORTED, children)
        | st.dictionaries(_TEXT, children, min_size=1, max_size=3)
    ),
    max_leaves=6,
)


@settings(max_examples=500)
@given(_SUPPORTED)
@example({})
@example([])
@example({"a": {}, "b": [[], {}], "c": [{"d": []}]})
@example([[[]], [{}], ()])
@example({"\x00\x1f\x7f 𐏿\U0001f600": "\"\\\n\t"})
@example([True, 1, False, 0, None, 10 ** 100, -(10 ** 100)])
def test_writer_matches_json_dumps_indent_2(value):
    assert _dumps_indented(value) == json.dumps(value, indent=2)


@settings(max_examples=300)
@given(_CONTAINING_UNSUPPORTED)
@example(1.0)
@example({1: "a"})
@example([_Color.ONE])
@example({"a": [_Name("b")]})
def test_writer_refuses_what_it_does_not_take(value):
    with pytest.raises(TypeError):
        _dumps_indented(value)


# -- in process ---------------------------------------------------------------

def main_in_process(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


# Exit code and SHA-256 of stdout and of stderr for each file under
# tests/documents and each document command: any change to what a command
# prints shows here.
DOCUMENT_COMMANDS = {
    "validate": ("validate",),
    "validate-text": ("validate", "--format", "text"),
    "infer": ("infer",),
}
DOCUMENT_PINS = {
    ("bad_centers_edge.json", "validate"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "68ae38b0d8de8e36aad58b84f7f56dd3fdb734779ce0f3fd17b572f2b721bd7d"),
    ("bad_centers_edge.json", "validate-text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "68ae38b0d8de8e36aad58b84f7f56dd3fdb734779ce0f3fd17b572f2b721bd7d"),
    ("bad_centers_edge.json", "infer"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "68ae38b0d8de8e36aad58b84f7f56dd3fdb734779ce0f3fd17b572f2b721bd7d"),
    ("bad_label_value.json", "validate"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "0a544850ea63f23bc6756388b51e3e0fb63181de6f6597847c28360e4ca655ac"),
    ("bad_label_value.json", "validate-text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "0a544850ea63f23bc6756388b51e3e0fb63181de6f6597847c28360e4ca655ac"),
    ("bad_label_value.json", "infer"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "0a544850ea63f23bc6756388b51e3e0fb63181de6f6597847c28360e4ca655ac"),
    ("bare_1_edge.json", "validate"): (1, "d4c2f0c3bb42b1d21538b8a7dec3b3f986925af0d41f27451fbc19efeee5688f", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bare_1_edge.json", "validate-text"): (1, "292a97b4eb779042410f809f7000cfbaa4a8ab987a1c7f090f8b53ecfa791936", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bare_1_edge.json", "infer"): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("corollary2_gap.json", "validate"): (1, "01a214903d6ff2a0e9415d65ac9629db5b8b7504dff5e72ac0ef3537e0a5a559", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("corollary2_gap.json", "validate-text"): (1, "5241a2ffd5c6fc36a2282fb1d5432cdb899df0ed6991cb1fe7ad14bb3b4204fe", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("corollary2_gap.json", "infer"): (0, "8b156a17ab4ae71afabe723fd76be75801b9cd5ce98ef4e635bca6aa6dcfe6ef", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cyclic.json", "validate"): (1, "ec037b52a7ed45dd08723ab3dba83477c401e4fb73085f90f71ef21a5a773a72", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cyclic.json", "validate-text"): (1, "b5f8cf536ba7b69d8fc4e0e0e788657d61de09cb47ed3655d7a87726bdce32ff", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cyclic.json", "infer"): (1, "7db38fea7b4b1991c2956679aab0c0cf76d5fcc0fa36ef246bf8f4df9b3d4481", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dangling_endpoint.json", "validate"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "4adc995afb5a5c7ef66ee98a5f851340a3d938f6b1ccc89b63138d7cc70d43e6"),
    ("dangling_endpoint.json", "validate-text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "4adc995afb5a5c7ef66ee98a5f851340a3d938f6b1ccc89b63138d7cc70d43e6"),
    ("dangling_endpoint.json", "infer"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "4adc995afb5a5c7ef66ee98a5f851340a3d938f6b1ccc89b63138d7cc70d43e6"),
    ("degree_violation.json", "validate"): (1, "8d8227efc8e9767a0595dcd6bed26646a5604af4613624426197ab3bf69db4b9", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("degree_violation.json", "validate-text"): (1, "51a7a7d6d81a53ec5dc63a01392dad591a03b08be2b8bac09881ccff4356d38d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("degree_violation.json", "infer"): (1, "d4b20a63129361c5e29ba25e625844213854bb014b1f6b7d31fa6870b3dfdb24", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("disconnected_pair.json", "validate"): (1, "48c0807fe6cbf25afa76e935866b5b07854eb5fd5dcded7f9d21e2cf41c91436", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("disconnected_pair.json", "validate-text"): (1, "a575baac4f4a73fc76eba6c1227f7c92acff2914a4deeeca61435efd4b4346b7", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("disconnected_pair.json", "infer"): (0, "26733d996cc18c65c7d823103d711e1f0331dfa799d3e238394471709d9d28e2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("duplicate_edge.json", "validate"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "32893c5326a64a4a277ad2b7a8cfbb6f1c7edf3f727371edd7d1986c27e612b2"),
    ("duplicate_edge.json", "validate-text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "32893c5326a64a4a277ad2b7a8cfbb6f1c7edf3f727371edd7d1986c27e612b2"),
    ("duplicate_edge.json", "infer"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "32893c5326a64a4a277ad2b7a8cfbb6f1c7edf3f727371edd7d1986c27e612b2"),
    ("duplicate_vertex.json", "validate"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "c5e8d72ba511c6636dd86e0835cfd133e7d99ec0090251544b2029a469926294"),
    ("duplicate_vertex.json", "validate-text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "c5e8d72ba511c6636dd86e0835cfd133e7d99ec0090251544b2029a469926294"),
    ("duplicate_vertex.json", "infer"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "c5e8d72ba511c6636dd86e0835cfd133e7d99ec0090251544b2029a469926294"),
    ("empty_vertices.json", "validate"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "29b2c87b1b48d7f6933b29db2833c7c0c91b0ffa2e88c3d8858248095520bd9f"),
    ("empty_vertices.json", "validate-text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "29b2c87b1b48d7f6933b29db2833c7c0c91b0ffa2e88c3d8858248095520bd9f"),
    ("empty_vertices.json", "infer"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "29b2c87b1b48d7f6933b29db2833c7c0c91b0ffa2e88c3d8858248095520bd9f"),
    ("global_missing_centers.json", "validate"): (1, "67ff5d35750fde8f17c0a215ee84c1c12d987427e1010bf4fa97d417adbe3959", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("global_missing_centers.json", "validate-text"): (1, "7b7790b57a366c81bf5c8d7fb2e9a39723adef03ed630bcf9586a177f48314f5", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("global_missing_centers.json", "infer"): (0, "a390ef7dce1852cc3ff422c1078066eeec7a2ec4bf8e98273aeafdafe665fec1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("local_cc_edge.json", "validate"): (1, "44842047464613aa7e0b8a2f5119b970033cb5367dc9af6b3fc877e1b2b4c12d", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("local_cc_edge.json", "validate-text"): (1, "bd6dfe4f033c677d983363ffced07ce00eb42506c4bbcf34db0c2a9325e22a08", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("local_cc_edge.json", "infer"): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("malformed.json", "validate"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "761f52f5a1c507dde8f3f2eeac119c984c1b00b8d3c95bbe019c6731b4544dee"),
    ("malformed.json", "validate-text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "761f52f5a1c507dde8f3f2eeac119c984c1b00b8d3c95bbe019c6731b4544dee"),
    ("malformed.json", "infer"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "761f52f5a1c507dde8f3f2eeac119c984c1b00b8d3c95bbe019c6731b4544dee"),
    ("partial_labels.json", "validate"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "0a07b53501f751f1a7ac7b07a116a692834ab5bb1e3e5814d54768eff42396b0"),
    ("partial_labels.json", "validate-text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "0a07b53501f751f1a7ac7b07a116a692834ab5bb1e3e5814d54768eff42396b0"),
    ("partial_labels.json", "infer"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "0a07b53501f751f1a7ac7b07a116a692834ab5bb1e3e5814d54768eff42396b0"),
    ("self_loop.json", "validate"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "17b7a80fe0f0d4ac821043fe4107b1d0afd8fc4d4897e5ff1fde8cd4fc9acc43"),
    ("self_loop.json", "validate-text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "17b7a80fe0f0d4ac821043fe4107b1d0afd8fc4d4897e5ff1fde8cd4fc9acc43"),
    ("self_loop.json", "infer"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "17b7a80fe0f0d4ac821043fe4107b1d0afd8fc4d4897e5ff1fde8cd4fc9acc43"),
    ("single_vertex.json", "validate"): (0, "d202a0728a4ac16cea78e43f86fa4f5799e1b5e688f942b6dacd420b214e8bfb", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("single_vertex.json", "validate-text"): (0, "f9ab0be03f9f6203288a86eb0f1facbd387bc2743b9eeed65707196eb36912fb", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("single_vertex.json", "infer"): (0, "2260b6aa380c980d7ed2eeeadf0a266d1a52ed220081a392036ee931a4892c88", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("unknown_color.json", "validate"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f408c64cd756233b35712c91d45933057365661549920d6ea165964dd0498f7a"),
    ("unknown_color.json", "validate-text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f408c64cd756233b35712c91d45933057365661549920d6ea165964dd0498f7a"),
    ("unknown_color.json", "infer"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "f408c64cd756233b35712c91d45933057365661549920d6ea165964dd0498f7a"),
    ("unknown_key.json", "validate"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "1b3a0eb9a3195291f1da91fe14cb337f7050449cd9fb949cd5c96d244c5448e9"),
    ("unknown_key.json", "validate-text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "1b3a0eb9a3195291f1da91fe14cb337f7050449cd9fb949cd5c96d244c5448e9"),
    ("unknown_key.json", "infer"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "1b3a0eb9a3195291f1da91fe14cb337f7050449cd9fb949cd5c96d244c5448e9"),
    ("valid_centers_path5.json", "validate"): (0, "b9310f4dfd88bb7b654f030461b68fc47d24359e073f378fbf0e80aa8dc49960", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("valid_centers_path5.json", "validate-text"): (0, "9f3ea899090f9dcbabf8f286c3de4121ea2f34f0776859d67661cb99b3cc11e9", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("valid_centers_path5.json", "infer"): (0, "a390ef7dce1852cc3ff422c1078066eeec7a2ec4bf8e98273aeafdafe665fec1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("valid_chain4_labels.json", "validate"): (0, "f90d67c491069eae19f092009af84738449915f170d988c0d0df44a90a140ef3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("valid_chain4_labels.json", "validate-text"): (0, "3a7aa9e9774e37acee222c05eb0cbbedf7e5ba28ad51d594bf7c803a6bb1416a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("valid_chain4_labels.json", "infer"): (0, "1258bf53f5dc59de4009fbb1a4d0c7adccaa6b37c0c55517b6351b4e51630fe3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("valid_labels_path5.json", "validate"): (0, "3d1fab282841ddbb7762b8470fe0103fc4b58e0a141623516826b9a5ce7a6d35", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("valid_labels_path5.json", "validate-text"): (0, "609d7e13673f01e7eaab5db256aa10bc1dbd993a70b0523cb0c0b17664aa3d62", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("valid_labels_path5.json", "infer"): (0, "a390ef7dce1852cc3ff422c1078066eeec7a2ec4bf8e98273aeafdafe665fec1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def test_document_pins_cover_every_document_and_command():
    files = {path.name for path in DOCUMENTS.glob("*.json")}
    assert len(files) == 22
    assert set(DOCUMENT_PINS) == {(f, c) for f in files for c in DOCUMENT_COMMANDS}


@pytest.mark.parametrize("name, command", sorted(DOCUMENT_PINS))
def test_document_output_is_pinned(name, command):
    # Read from stdin, so no path can reach the output; both streams are
    # strict UTF-8 as in a real run.
    stdin = io.TextIOWrapper(io.BytesIO((DOCUMENTS / name).read_bytes()), encoding="utf-8")
    out, err = io.BytesIO(), io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", errors="strict")
    stderr = io.TextIOWrapper(err, encoding="utf-8", errors="strict")
    with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main([*DOCUMENT_COMMANDS[command], "-"])
        stdout.flush()
        stderr.flush()
    digests = [hashlib.sha256(stream.getvalue()).hexdigest() for stream in (out, err)]
    assert (code, *digests) == DOCUMENT_PINS[(name, command)]


@pytest.mark.parametrize("name, local_calls, global_calls", [
    ("valid_labels_path5.json", 1, 0),
    ("valid_chain4_labels.json", 1, 0),
    ("valid_centers_path5.json", 0, 1),
    ("corollary2_gap.json", 1, 0),
    ("single_vertex.json", 0, 0),
])
def test_validate_checks_each_labeling_once(monkeypatch, name, local_calls, global_calls):
    # The corollaries and the derived labeling do not re-check what the
    # command has checked, inferred or derived from an accepted marking.
    calls = Counter()
    for function in (axioms.check_local, axioms.check_global):
        def counted(*args, _function=function):
            calls[_function.__name__] += 1
            return _function(*args)
        for module in (axioms, cli):
            monkeypatch.setattr(module, function.__name__, counted)
    main_in_process("validate", str(DOCUMENTS / name))
    assert (calls["check_local"], calls["check_global"]) == (local_calls, global_calls)


def test_parser_is_built_once_and_keeps_no_parsed_state(tmp_path):
    # Two components with valid labels: the defaults (auto mode,
    # connectivity enforced, JSON) give exit 1 with a JSON report, and the
    # options of the call between must not leak into a later call.
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b"], "edges": [], "labels": {"a": "c", "b": "c"},
    }))
    defaults = ("validate", str(path))
    cli.build_parser.cache_clear()
    fresh = main_in_process(*defaults)
    assert fresh[0] == 1 and json.loads(fresh[1])["mode"] == "labels"
    options = main_in_process("validate", str(path), "--mode", "auto",
                              "--no-require-connected", "--format", "text")
    assert options[0] == 0 and options[1].startswith("graph: 2 vertices")
    assert main_in_process(*defaults) == fresh
    assert main_in_process("infer", str(path)) == (0, '{"a":"c","b":"c"}\n')
    assert cli.build_parser.cache_info().misses == 1


def labelable_pieces() -> list[tuple[ColoredDigraph, dict, bool]]:
    """Every census graph on at most five vertices with a labeling, its one
    labeling, and whether a corollary fails on it."""
    pieces = []
    for g in enumerate_graphs(GraphStream(max_vertices=5)):
        labelings = infer_labelings(g)
        if labelings:
            (lab,) = labelings
            fails = any(report.status == "fails"
                        for report in (check_corollary2(g, lab), check_corollary3(g, lab)))
            pieces.append((g, lab.labels, fails))
    return pieces


def test_ten_thousand_vertex_document_in_linear_passes(tmp_path):
    # A disjoint union of renamed labelable census graphs, declared in a
    # shuffled order: its one labeling is the union of theirs.
    pieces = labelable_pieces()
    assert len(pieces) == 27
    rng = random.Random(10_000)
    vertices, edges, labels, fails = [], [], {}, False
    while len(vertices) < 10_000:
        g, piece_labels, piece_fails = pieces[len(labels) % len(pieces)]
        name = {v: f"p{len(vertices)}.{v}" for v in g.vertices}
        vertices.extend(name.values())
        edges.extend({"from": name[e.tail], "to": name[e.head], "color": e.color} for e in g.edges)
        labels.update((name[v], piece_labels[v]) for v in g.vertices)
        fails = fails or piece_fails
    rng.shuffle(vertices)
    rng.shuffle(edges)
    labels = {v: labels[v] for v in vertices}
    labeled, bare = tmp_path / "labeled.json", tmp_path / "bare.json"
    labeled.write_text(json.dumps({"vertices": vertices, "edges": edges, "labels": labels}))
    bare.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    expected = 1 if fails else 0

    start = time.perf_counter()
    code, out = main_in_process(
        "validate", str(labeled), "--mode", "labels", "--no-require-connected"
    )
    assert code == expected
    report = json.loads(out)
    assert report["graph"]["vertices"] == len(vertices)
    assert not any(check["violations"] for check in report["checks"])
    code, out = main_in_process("validate", str(bare), "--no-require-connected")
    assert code == expected
    assert [entry["labels"] for entry in json.loads(out)["labelings"]] == [labels]
    code, out = main_in_process("infer", str(bare))
    assert (code, out) == (0, json.dumps(labels, separators=(",", ":")) + "\n")
    # All three took about 1 s on a 2-vCPU host; the bound leaves room for
    # a slow or loaded machine, not for a pass that grows quadratically.
    assert time.perf_counter() - start < 15.0
