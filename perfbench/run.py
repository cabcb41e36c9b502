"""crystalcheck benchmark.

    python3 perfbench/run.py --workload census-n5|enumerate-n6|documents \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Each workload is a closed
loop in this one process: one call at a time, no threads, the census with
one worker.  A *pass* is the workload's fixed work; passes repeat until the
next one would end after ``--seconds``, and at least one runs.  Every pass
imports the package afresh, so no module-level state carries over from one
pass to the next, just as no state carries over between two CLI processes.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate, and the per-layer metrics from
``tracer.py`` are printed together with the tracing overhead.  Human-readable
lines come first; the last line of stdout is the JSON result.  Outputs are
checked against known answers (``inputs.py``); an operation that raises or
answers wrongly counts as failed and never stops the run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import inputs
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
PACKAGE = "crystalcheck"
IMPORT_REPEATS = 15
GENERATE_REPEATS = 3

# Per-layer metrics: (name, unit, span name, field of the span summary).
LAYER_METRICS = [
    ("axioms.check_local.self_s", "s", "axioms.check_local", "self_s"),
    ("axioms.check_local.calls", "count", "axioms.check_local", "calls"),
    ("axioms.check_local.valid_ratio", "ratio", "axioms.check_local", "valid_ratio"),
    ("axioms.check_global.self_s", "s", "axioms.check_global", "self_s"),
    ("axioms.check_global.calls", "count", "axioms.check_global", "calls"),
    ("axioms.check_global.valid_ratio", "ratio", "axioms.check_global", "valid_ratio"),
    ("graph.decompose_strings.self_s", "s", "graph.decompose_strings", "self_s"),
    ("graph.decompose_strings.calls", "count", "graph.decompose_strings", "calls"),
    ("violations.ViolationReport.build.self_s", "s", "violations.ViolationReport.build", "self_s"),
    ("violations.ViolationReport.build.calls", "count", "violations.ViolationReport.build", "calls"),
    ("enumeration.census.self_s", "s", "enumeration.census", "self_s"),
    ("enumeration.check_proposition.self_s", "s", "enumeration.check_proposition", "self_s"),
    ("enumeration.enumerate_graphs.self_s", "s", "enumeration.enumerate_graphs", "self_s"),
    ("enumeration.enumerate_graphs.graphs_out", "count", "enumeration.enumerate_graphs", "yields"),
    ("documents.dumps_document.self_s", "s", "documents.dumps_document", "self_s"),
    ("documents.parse_document.self_s", "s", "documents.parse_document", "self_s"),
    ("graph.ColoredDigraph.self_s", "s", "graph.ColoredDigraph", "self_s"),
    ("graph.weak_components.self_s", "s", "graph.weak_components", "self_s"),
    ("graph.find_potential.self_s", "s", "graph.find_potential", "self_s"),
    ("graph.check_degree_axiom.self_s", "s", "graph.check_degree_axiom", "self_s"),
    ("axioms.infer_labelings.self_s", "s", "axioms.infer_labelings", "self_s"),
    ("axioms.infer_labelings.failed", "count", "axioms.infer_labelings", "raised"),
    ("predicates.check_string_words.self_s", "s", "predicates.check_string_words", "self_s"),
    ("predicates.check_corollary2.self_s", "s", "predicates.check_corollary2", "self_s"),
    ("predicates.check_corollary3.self_s", "s", "predicates.check_corollary3", "self_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
]


@dataclass
class Pass:
    """What one pass did: the program's time, its items, and its failures."""

    wall: float = 0.0
    cpu: float = 0.0
    items: int = 0
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    tracebacks: dict = field(default_factory=dict)  # the first of each kind of error
    item_latencies: list = field(default_factory=list)


class Call:
    """Times one call into the program; an exception is recorded, not raised."""

    def __init__(self, run: Pass, fn: Callable, *args, **kwargs):
        t0, c0 = time.perf_counter(), time.process_time()
        self.result, self.error = None, None
        try:
            self.result = fn(*args, **kwargs)
        except Exception as exc:  # a crash of the program under test is a failed operation
            self.error = exc
        self.seconds = time.perf_counter() - t0
        run.wall += self.seconds
        run.cpu += time.process_time() - c0
        run.attempted += 1

    def settle(self, run: Pass, mismatch: Callable[[object], Optional[str]]) -> bool:
        """Apply the correctness gate; return True when the call succeeded."""
        if self.error is not None:
            kind = type(self.error).__name__
            run.tracebacks.setdefault(kind, "".join(traceback.format_exception(self.error, limit=-3)))
            run.failed += 1
            run.errors[kind] += 1
            return False
        problem = mismatch(self.result)
        if problem is not None:
            run.failed += 1
            run.mismatches.append(problem)
            return False
        return True


def load_program():
    """Import the package afresh from the checkout and return it."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported {package.__file__}, not the package under {SRC}")
    return package


def run_cli(program, argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = program.cli.main(list(argv))
    return code, out.getvalue()


# -- workloads ----------------------------------------------------------------

class Workload:
    """A workload with fixed inputs: nothing to generate or clean up."""

    items_label = ""

    def setup(self, seed: int) -> None:
        pass

    def close(self) -> None:
        pass


class Census(Workload):
    """``census(5)``: many axiom checks on tiny graphs."""

    items_label = "graphs verified"

    def run(self, program, tracer: Optional[Tracer]) -> Pass:
        run = Pass()
        call = Call(run, program.enumeration.census, inputs.CENSUS_MAX_VERTICES, workers=1)
        if call.settle(run, inputs.census_mismatch):
            run.items = inputs.CENSUS_GRAPHS
        run.item_latencies.append(call.seconds)
        return run


class Enumerate(Workload):
    """``crystalcheck enumerate --max-vertices 6``: canonical forms."""

    items_label = "graphs emitted"

    def run(self, program, tracer: Optional[Tracer]) -> Pass:
        run = Pass()
        call = Call(run, run_cli, program, inputs.ENUMERATE_ARGV)
        if call.settle(run, lambda result: inputs.enumerate_mismatch(*result)):
            run.items = inputs.ENUMERATE_LINES
        run.item_latencies.append(call.seconds)
        return run


class Documents(Workload):
    """validate and infer on seeded documents of 50 to 5,000 vertices."""

    items_label = "documents decided"

    def __init__(self):
        self.directory = WORK / f"documents-{os.getpid()}"
        self.docs: list[inputs.Document] = []

    def setup(self, seed: int) -> None:
        self.docs = inputs.make_documents(seed)
        shutil.rmtree(self.directory, ignore_errors=True)
        inputs.write_documents(self.docs, self.directory)

    def run(self, program, tracer: Optional[Tracer]) -> Pass:
        run = Pass()
        for k, doc in enumerate(self.docs):
            if tracer is not None:
                tracer.item = k
            argv = (doc.op.argv[0], str(self.directory / doc.op.argv[1])) + doc.op.argv[2:]
            call = Call(run, run_cli, program, argv)
            run.items += call.settle(run, lambda result: inputs.op_mismatch(doc.op, *result))
            run.item_latencies.append(call.seconds)
        return run

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


WORKLOADS = {"census-n5": Census, "enumerate-n6": Enumerate, "documents": Documents}


# -- measurement --------------------------------------------------------------

def measure_setup(workload, seed: int) -> float:
    """Median time of a fresh import plus median time of input generation,
    each over several repetitions."""
    def median_time(action, repeats: int) -> float:
        times = []
        for _ in range(repeats):
            gc.collect()
            t0 = time.perf_counter()
            action()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return median_time(load_program, IMPORT_REPEATS) + median_time(lambda: workload.setup(seed), GENERATE_REPEATS)


def one_pass(workload, tracer: Optional[Tracer] = None) -> Pass:
    program = load_program()
    gc.collect()
    if tracer is None:
        return workload.run(program, None)
    tracer.install()
    try:
        return workload.run(program, tracer)
    finally:
        tracer.uninstall()


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it, or the
    maximum when there are too few samples for one."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:g} of {n}"


def end_to_end(runs: list[Pass], setup_s: float, label: str) -> dict:
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    tails = [tail(r.item_latencies) for r in runs]
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall for r in runs), "s"),
        "cpu_s": (statistics.median(r.cpu for r in runs), "s"),
        "items_per_s": (statistics.median(r.items / r.wall for r in runs), "1/s"),
        "item_p50_ms": (statistics.median(statistics.median(r.item_latencies) for r in runs) * 1e3, "ms"),
        "item_tail_ms": (statistics.median(t for t, _ in tails) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_rate": (1 - failed / attempted, "ratio"),
    }
    print(f"passes: {len(runs)}; items per pass: {runs[0].items} {label}")
    print(f"item latency per pass: p50 and {tails[0][1]} (median over passes)")
    return values


def per_layer(traced: list[tuple[Pass, dict]], untraced: list[Pass]) -> dict:
    values = {}
    for name, unit, span, key in LAYER_METRICS:
        samples = []
        for _, summary in traced:
            entry = summary.get(span, {"calls": 0, "self_s": 0.0, "valid": 0, "raised": 0, "yields": 0})
            if key == "valid_ratio":
                samples.append(entry["valid"] / entry["calls"] if entry["calls"] else 0.0)
            else:
                samples.append(entry[key])
        values[name] = (statistics.median(samples), unit)
    overhead = statistics.median(r.wall for r, _ in traced) - statistics.median(r.wall for r in untraced)
    values["trace.overhead_s"] = (overhead, "s")
    return values


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("CRYSTALCHECK_THREADS", None)

    workload = WORKLOADS[args.workload]()
    try:
        setup_s = measure_setup(workload, args.seed)
        untraced: list[Pass] = []
        traced: list[tuple[Pass, dict]] = []
        tracer = None
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            untraced.append(one_pass(workload))
            if args.trace:
                tracer = Tracer(PACKAGE)
                run = one_pass(workload, tracer)
                traced.append((run, tracer.summary()))
            elapsed = time.perf_counter() - started
            if elapsed + (time.perf_counter() - t0) > args.seconds:
                break
    finally:
        workload.close()

    runs = untraced + [r for r, _ in traced]
    if args.trace:
        metrics = per_layer(traced, untraced)
        spans = WORK / f"{args.workload}.spans.tsv.gz"
        tracer.write_spans(spans)
        print(f"spans of the last traced pass: {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(untraced, setup_s, workload.items_label)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    errors = sum((r.errors for r in runs), Counter())
    mismatches = [m for r in runs for m in r.mismatches]
    for kind, count in sorted(errors.items()):
        print(f"failed: {count} operation(s) raised {kind}")
        print(next(r.tracebacks[kind] for r in runs if kind in r.tracebacks), file=sys.stderr)
    for problem in mismatches[:5]:
        print(f"wrong output: {problem}")
    result = {
        "correct": not mismatches,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
