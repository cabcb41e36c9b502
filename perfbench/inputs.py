"""Seeded inputs for the benchmark workloads and the known answers that
gate every output.

The census and enumeration workloads have fixed inputs, so their known
answers are constants.  The documents workload draws its graphs from the
seed; every answer it checks follows from how the graph was built, never
from running the program under test:

* a *union* is a disjoint union of the 27 labelable census graphs with at
  most five vertices (``labelable_n5.json``).  Each of them has exactly one
  labeling, so the union has exactly one, the product of theirs.
* a *DAG* is a random acyclic graph satisfying (B0) in which some 1-string
  holds two vertices without any 2-edge.  Such a vertex must be labeled
  ``c`` (and be central under any valid marking), and a 1-string carries at
  most one ``c``, so the DAG has no labeling and no valid marking.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent

CENSUS_MAX_VERTICES = 5
# (n, graphs, graphs_with_labeling, labelings, markings): the published table.
CENSUS_ROWS = ((1, 1, 1, 1, 1), (2, 3, 0, 0, 0), (3, 13, 2, 2, 2), (4, 74, 4, 4, 4), (5, 503, 20, 20, 20))
CENSUS_GRAPHS = sum(row[1] for row in CENSUS_ROWS)

ENUMERATE_ARGV = ("enumerate", "--max-vertices", "6")
ENUMERATE_LINES = 4580
ENUMERATE_SHA256 = "7d403346b8728937fdf3e1b205993cd61ce8e5abd16d85e1c80c6ec938e60a5c"

DOCUMENTS = 200
MIN_VERTICES = 50
MAX_VERTICES = 5000
CORRUPTED_SHARE = 0.05
# Edge probabilities of the random DAGs, per color, and how far ahead in
# the hidden topological order an edge may reach.
DAG_EDGE_P = {1: 0.8, 2: 0.5}
DAG_WINDOW = 8


# The operations, in the order strata of each kind cycle through them.
OPERATIONS = ("labels", "centers", "corrupted", "infer")


@dataclass(frozen=True)
class Op:
    """One CLI call on a document file and the answer it must give.

    ``argv`` names the file relative to the input directory.  ``nonempty``
    names the validate checks that must report violations; every other
    check must report none.  ``stdout`` (infer only) is the exact expected
    output, and ``derived`` the labels a centers-mode validate must derive.
    """

    argv: tuple[str, ...]
    exit_code: int
    nonempty: frozenset = frozenset()
    stdout: Optional[str] = None
    derived: Optional[dict] = None


@dataclass(frozen=True)
class Document:
    kind: str  # "union" or "dag"
    operation: str  # one of OPERATIONS
    n_vertices: int
    file: str
    text: str
    op: Op


def load_labelable() -> list[dict]:
    with open(HERE / "labelable_n5.json", encoding="utf-8") as fh:
        return json.load(fh)


def _sizes(rng: random.Random, count: int) -> list[int]:
    """Vertex counts drawn log-uniform over [MIN_VERTICES, MAX_VERTICES],
    one from each of ``count`` equal strata, so every seed covers the range
    alike and the largest documents do not come and go with the seed."""
    span = math.log(MAX_VERTICES / MIN_VERTICES)
    return [
        round(MIN_VERTICES * math.exp(span * (k + rng.random()) / count))
        for k in range(count)
    ]


def _doc_json(vertices, edges, labels=None, centers=None) -> str:
    doc: dict = {
        "vertices": vertices,
        "edges": [{"from": t, "to": h, "color": c} for t, h, c in edges],
    }
    if labels is not None:
        doc["labels"] = labels
    if centers is not None:
        doc["centers"] = centers
    return json.dumps(doc, separators=(",", ":"))


def _validate_argv(path: str, mode: str) -> tuple[str, ...]:
    return ("validate", path, "--mode", mode, "--no-require-connected")


def _union(rng: random.Random, n: int, file: str, operation: str, pieces: list[dict]) -> Document:
    vertices: list[str] = []
    edges: list[tuple[str, str, int]] = []
    labels: dict[str, str] = {}
    failing_predicate = False
    j = 0
    while len(vertices) < n:
        piece = rng.choice(pieces)
        rename = {v: f"g{j}{v}" for v in piece["vertices"]}
        vertices.extend(rename.values())
        edges.extend((rename[t], rename[h], c) for t, h, c in piece["edges"])
        labels.update(zip(rename.values(), piece["labels"]))
        failing_predicate = failing_predicate or bool(piece["fails"])
        j += 1
    rng.shuffle(vertices)
    rng.shuffle(edges)
    labels = {v: labels[v] for v in vertices}
    # The corollary predicates fail on 4 of the 27 pieces; validate then
    # exits 1 although every axiom holds.
    valid_exit = 1 if failing_predicate else 0

    if operation == "labels":
        text, op = _doc_json(vertices, edges, labels), Op(_validate_argv(file, "labels"), valid_exit)
    elif operation == "centers":
        centers = {
            "vertices": [v for v in vertices if labels[v] == "c"],
            "edges_1": [[t, h] for t, h, c in edges if c == 1 and labels[t] == "0" and labels[h] == "1"],
        }
        text = _doc_json(vertices, edges, centers=centers)
        op = Op(_validate_argv(file, "centers"), valid_exit, derived=labels)
    elif operation == "corrupted":
        corrupted = dict(labels)
        for v in rng.sample(vertices, max(1, round(CORRUPTED_SHARE * len(vertices)))):
            corrupted[v] = rng.choice([x for x in "0c1" if x != labels[v]])
        text = _doc_json(vertices, edges, corrupted)
        op = Op(_validate_argv(file, "labels"), 1, nonempty=frozenset({"local"}))
    else:
        text = _doc_json(vertices, edges)
        op = Op(("infer", file), 0, stdout=json.dumps(labels, separators=(",", ":")) + "\n")
    return Document("union", operation, len(vertices), file, text, op)


def _has_certificate(vertices, edges) -> bool:
    """True when some 1-string holds two vertices that have no 2-edge."""
    succ1 = {t: h for t, h, c in edges if c == 1}
    heads1 = set(succ1.values())
    touched2 = {v for t, h, c in edges if c == 2 for v in (t, h)}
    for start in vertices:
        if start in heads1:
            continue
        bare = 0
        v: Optional[str] = start
        while v is not None:
            bare += v not in touched2
            v = succ1.get(v)
        if bare >= 2:
            return True
    return False


def _dag(rng: random.Random, n: int, file: str, operation: str) -> Document:
    while True:
        order = [f"x{i}" for i in range(n)]
        rng.shuffle(order)  # hidden topological order; edges only go forward
        edges: list[tuple[str, str, int]] = []
        for color, p in DAG_EDGE_P.items():
            has_in: set[str] = set()
            for i, tail in enumerate(order[:-1]):
                if rng.random() >= p:
                    continue
                ahead = [h for h in order[i + 1:i + 1 + DAG_WINDOW] if h not in has_in]
                if ahead:
                    head = rng.choice(ahead)
                    has_in.add(head)
                    edges.append((tail, head, color))
        vertices = sorted(order, key=lambda v: int(v[1:]))
        if _has_certificate(vertices, edges):
            break
    rng.shuffle(edges)

    # No labeling and no valid marking exist, so every annotation is wrong.
    if operation == "labels":
        labels = {v: rng.choice("0c1") for v in vertices}
        text = _doc_json(vertices, edges, labels)
        op = Op(_validate_argv(file, "labels"), 1, nonempty=frozenset({"local"}))
    elif operation == "centers":
        centers = {
            "vertices": [v for v in vertices if rng.random() < 0.3],
            "edges_1": [[t, h] for t, h, c in edges if c == 1 and rng.random() < 0.2],
        }
        text = _doc_json(vertices, edges, centers=centers)
        op = Op(_validate_argv(file, "centers"), 1, nonempty=frozenset({"global"}))
    elif operation == "corrupted":
        text = _doc_json(vertices, edges)
        op = Op(_validate_argv(file, "auto"), 1, nonempty=frozenset({"inference"}))
    else:
        text, op = _doc_json(vertices, edges), Op(("infer", file), 0, stdout="")
    return Document("dag", operation, n, file, text, op)


def make_documents(seed: int) -> list[Document]:
    """The documents workload for ``seed``.

    Even strata are unions and odd strata DAGs; within each kind the strata
    cycle through OPERATIONS, so every operation sees the whole size range.
    On a DAG, "corrupted" is inference: validate with no annotation.
    """
    rng = random.Random(seed)
    pieces = load_labelable()
    docs = []
    for k, n in enumerate(_sizes(rng, DOCUMENTS)):
        operation = OPERATIONS[(k // 2) % len(OPERATIONS)]
        file = f"d{k:03d}.json"
        docs.append(_union(rng, n, file, operation, pieces) if k % 2 == 0 else _dag(rng, n, file, operation))
    rng.shuffle(docs)
    return docs


def write_documents(docs: list[Document], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        (directory / doc.file).write_text(doc.text, encoding="utf-8")


# -- the correctness gate ------------------------------------------------

def census_mismatch(rows) -> Optional[str]:
    got = tuple((r.n, r.graphs, r.graphs_with_labeling, r.labelings, r.markings) for r in rows)
    return None if got == CENSUS_ROWS else f"census rows {got} != {CENSUS_ROWS}"


def enumerate_mismatch(exit_code: int, stdout: str) -> Optional[str]:
    if exit_code != 0:
        return f"enumerate exited {exit_code}"
    lines = stdout.count("\n")
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    if lines != ENUMERATE_LINES or digest != ENUMERATE_SHA256:
        return f"enumerate printed {lines} lines with SHA-256 {digest}"
    return None


def op_mismatch(op: Op, exit_code: int, stdout: str) -> Optional[str]:
    """Why the output of ``op`` is wrong, or None when it is right."""
    if exit_code != op.exit_code:
        return f"exit {exit_code}, expected {op.exit_code}"
    if op.stdout is not None:
        return None if stdout == op.stdout else "infer printed other labelings than the known one"
    try:
        result = json.loads(stdout)
    except json.JSONDecodeError:
        return "validate printed no JSON report"
    nonempty = {check["check"] for check in result["checks"] if check["violations"]}
    if nonempty != op.nonempty:
        return f"checks with violations {sorted(nonempty)}, expected {sorted(op.nonempty)}"
    if op.derived is not None and result.get("derived_labels") != op.derived:
        return "derived labels differ from the labeling the marking was built from"
    return None
