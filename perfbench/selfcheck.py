"""Self-check of the benchmark itself; run from the checkout root:

    python3 perfbench/selfcheck.py

It shows that the document generator is deterministic for a seed, that the
known answers it relies on hold by an independent brute force, that the
correctness gate accepts the program's outputs and rejects deliberately
wrong expected answers (counting them as failures without stopping), and
that the tracer restores every name it rebinds.  Exits 1 on any failure.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import sys
from types import SimpleNamespace

import inputs
import run
from tracer import Tracer

FAILURES: list[str] = []


def check(condition: bool, what: str) -> None:
    print(("PASS " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def locally_valid(vertices, edges, labels: dict) -> bool:
    """The local axioms, written out again independently of the package."""
    pairs = {1: {"00", "0c", "01", "c1", "11"}, 2: {"11", "1c", "c0", "00"}}
    has = {(v, kind, color): False for v in vertices for kind in "io" for color in (1, 2)}
    for t, h, c in edges:
        if labels[t] + labels[h] not in pairs[c]:
            return False
        has[(t, "o", c)] = has[(h, "i", c)] = True
    for v in vertices:
        if labels[v] == "1" and not (has[(v, "i", 1)] and has[(v, "o", 2)]):
            return False
        if labels[v] == "0" and not (has[(v, "o", 1)] and has[(v, "i", 2)]):
            return False
    return True


def corollary_failures(edges, labels: dict) -> list[str]:
    """Which of corollary 2 and 3 fail, written out independently."""
    def central(v):
        return labels[v] == "c"
    out2 = {t: h for t, h, c in edges if c == 2}
    in2 = {h: t for t, h, c in edges if c == 2}
    out1 = {t: h for t, h, c in edges if c == 1}
    central_edges = [(t, h) for t, h, c in edges if c == 1 and labels[t] == "0" and labels[h] == "1"]
    fails = []
    if any(not (u in in2 and central(in2[u]) and v in out2 and central(out2[v])) for u, v in central_edges):
        fails.append("corollary2")
    if any(u in out2 and not (out2[u] in out1 and central(out1[out2[u]])) for u, _ in central_edges):
        fails.append("corollary3")
    return fails


def check_known_answers() -> None:
    pieces = inputs.load_labelable()
    unique = all(
        [lab for lab in itertools.product("0c1", repeat=len(p["vertices"]))
         if locally_valid(p["vertices"], p["edges"], dict(zip(p["vertices"], lab)))]
        == [tuple(p["labels"])]
        for p in pieces
    )
    check(len(pieces) == 27 and unique, "each of the 27 census pieces has exactly its listed labeling")
    check(all(corollary_failures(p["edges"], dict(zip(p["vertices"], p["labels"]))) == p["fails"]
              for p in pieces), "the listed corollary failures of the pieces hold")


def check_generator(docs) -> None:
    again = inputs.make_documents(7)
    check(docs == again, "make_documents is deterministic for a seed")
    check(docs != inputs.make_documents(8), "another seed gives other documents")
    sizes = sorted(d.n_vertices for d in docs)
    check(sizes[0] >= inputs.MIN_VERTICES and sizes[-1] >= 4000 and sum(n > 1000 for n in sizes) >= 50,
          "document sizes span the range, past the recursion depth")
    dags_ok = True
    for doc in docs:
        if doc.kind == "dag":
            graph = json.loads(doc.text)
            edges = [(e["from"], e["to"], e["color"]) for e in graph["edges"]]
            dags_ok &= inputs._has_certificate(graph["vertices"], edges)
    check(dags_ok, "every DAG carries its no-labeling certificate")


def check_gate(docs) -> None:
    smallest: dict = {}
    for doc in sorted(docs, key=lambda d: d.n_vertices):
        smallest.setdefault((doc.kind, doc.operation), doc)
    workload = run.Documents()
    workload.docs = list(smallest.values())
    inputs.write_documents(workload.docs, workload.directory)
    try:
        program = run.load_program()
        good = workload.run(program, None)
        check(len(workload.docs) == 8 and good.failed == 0 and good.items == 8,
              "the gate accepts the program's outputs on every kind and operation")

        wrong = {
            ("union", "labels"): lambda op: dataclasses.replace(op, exit_code=1 - op.exit_code),
            ("union", "centers"): lambda op: dataclasses.replace(op, derived={v: "c" for v in op.derived}),
            ("union", "corrupted"): lambda op: dataclasses.replace(op, nonempty=frozenset()),
            ("union", "infer"): lambda op: dataclasses.replace(op, stdout=""),
            ("dag", "infer"): lambda op: dataclasses.replace(op, stdout="{}\n"),
        }
        workload.docs = [
            dataclasses.replace(doc, op=wrong[key](doc.op)) if key in wrong else doc
            for key, doc in smallest.items()
        ]
        bad = workload.run(program, None)
        check(bad.attempted == 8 and bad.failed == 5 and len(bad.mismatches) == 5 and bad.items == 3,
              "the gate rejects 5 wrong expected answers and the pass still completes")
    finally:
        workload.close()

    rows = [SimpleNamespace(n=r[0], graphs=r[1], graphs_with_labeling=r[2], labelings=r[3], markings=r[4])
            for r in inputs.CENSUS_ROWS]
    check(inputs.census_mismatch(rows) is None, "the census gate accepts the published table")
    rows[4].markings = 21
    check(inputs.census_mismatch(rows) is not None, "the census gate rejects a wrong row")
    check(inputs.enumerate_mismatch(0, "{}\n" * inputs.ENUMERATE_LINES) is not None,
          "the enumerate gate rejects output with the right line count but the wrong digest")


def check_tracer() -> None:
    program = run.load_program()
    original = program.cli.check_local
    tracer = Tracer(run.PACKAGE)
    tracer.install()
    try:
        traced = program.cli.check_local is not original and program.axioms.check_local is not original
        code, _ = run.run_cli(program, ("validate", str(run.WORK / "missing.json")))
    finally:
        tracer.uninstall()
    check(traced and program.cli.check_local is original and program.axioms.check_local is original,
          "the tracer rebinds imported names and restores them")
    summary = tracer.summary()
    check(code == 2 and summary["cli.main"]["calls"] == 1
          and all(0 <= s["self_s"] <= s["total_s"] + 1e-9 for s in summary.values()),
          "traced self time lies between 0 and the span's duration")
    check(all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name, *_ in run.LAYER_METRICS),
          "per-layer metric names are well formed")


def main() -> int:
    if not (run.SRC / run.PACKAGE / "__init__.py").is_file():
        print(f"selfcheck: no {run.PACKAGE} sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    docs = inputs.make_documents(7)
    check_known_answers()
    check_generator(docs)
    check_gate(docs)
    check_tracer()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
