"""Command-line interface.

Exit codes partition the outcomes: 0 success, 1 axiom violations or
predicate failures, 2 input/parse/config errors or a closed stdout or
stderr, 3 census budget exceeded.
Output is byte-identical across runs on identical input.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .axioms import Labeling, _labels_from_marking, check_global, check_local, infer_labelings
from .documents import GraphDocument, document_from_graph, dumps_document, dumps_position_edges, parse_document
from .enumeration import (
    GraphStream,
    census,
    census_rows_to_csv,
    position_graphs,
    resolve_workers,
)
from .errors import BudgetError, CounterexampleError, CrystalCheckError, DocumentError
from .graph import (
    ColoredDigraph,
    CycleCertificate,
    check_degree_axiom,
    decompose_strings,
    find_potential,
    weak_components,
)
from .predicates import (
    FAILS,
    _corollaries,
    _status_report,
    check_string_words,
)
from .violations import CLAUSE_ACYCLICITY, CLAUSE_CONNECTIVITY, CLAUSE_INFERENCE, Violation

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _stream(name: str = "stdout"):
    """``sys.stdout`` or ``sys.stderr``.  Started with that fd closed
    (``>&-``, ``2>&-``), the process has the stream None, where ``print``
    would write nothing or, for stderr, write to stdout; this raises as on
    a closed descriptor instead."""
    out = getattr(sys, name)
    if out is None:
        raise OSError(errno.EBADF, f"{name} is closed")
    return out


def _error(message: str) -> None:
    print(f"crystalcheck: error: {message}", file=_stream("stderr"))


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _load_document(path: str) -> Optional[GraphDocument]:
    """Read and parse the input document, or report why not and return None."""
    try:
        return parse_document(_read_input(path))
    except (OSError, DocumentError) as exc:
        _error(str(exc))
        return None


def _cycle_violation(cycle: CycleCertificate) -> dict:
    detail = "directed cycle: " + " -> ".join(cycle.vertices)
    return Violation(CLAUSE_ACYCLICITY, cycle.vertices[0], detail).as_jsonable()


def _predicate_dicts(g: ColoredDigraph, lab: Labeling) -> list[dict]:
    """The three predicate reports for one labeling, with the per-color
    string-word checks merged into a single report.  The labeling passes
    the local axioms: the caller has checked or inferred it, or read it off
    a marking that ``check_global`` accepts (the bijection ``census``
    re-proves), so the corollaries' own check of it is skipped."""
    reports = [*_corollaries(g, lab)]
    words = [check_string_words(decompose_strings(g, color), lab) for color in (1, 2)]
    # A holding report's witnesses are all its instances, so these are all
    # the instances whenever none fails.
    reports.append(_status_report(
        "string-words",
        [w for report in words for w in report.witnesses],
        [w for report in words if report.status == FAILS for w in report.witnesses],
    ))
    return [report.as_jsonable() for report in reports]


def _structural_checks(g: ColoredDigraph) -> list[dict]:
    """The degree check and, once (B0) holds, the acyclicity check."""
    degree = check_degree_axiom(g)
    checks = [{"check": "degree", "violations": degree.as_jsonable()}]
    if not degree:
        potential = find_potential(g)
        cycle = [_cycle_violation(potential)] if isinstance(potential, CycleCertificate) else []
        checks.append({"check": "acyclicity", "violations": cycle})
    return checks


def _dumps_indented(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, without its
    pure-Python encoder.

    Takes dicts with str keys, lists, tuples, str, int, bool and None;
    anything else raises ``TypeError``.  Strings are escaped by the C
    escaper that ``json.dumps`` uses.
    """
    encode = _SCALARS.get(type(value))
    if encode is not None:
        return encode(value)
    parts: list[str] = []
    _write_indented(value, "\n", parts.append)
    return "".join(parts)


# Exact types only: a subclass of one of these raises TypeError.
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _write_indented(value, newline: str, put) -> None:
    """Put the pieces of one container, which starts on a line indented as
    ``newline`` ends.  Scalars are encoded in line; a list of strings is one
    join."""
    kind = type(value)
    if kind is dict:
        opener, closer = "{", "}"
    elif kind is list or kind is tuple:
        opener, closer = "[", "]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        put(opener + closer)
        return
    inner = newline + "  "
    separator = opener + inner
    if kind is not dict:
        if {*map(type, value)} == {str}:
            put(separator + ("," + inner).join(map(_quote, value)) + newline + closer)
            return
        for item in value:
            encode = _SCALARS.get(type(item))
            if encode is not None:
                put(separator + encode(item))
            else:
                put(separator)
                _write_indented(item, inner, put)
            separator = "," + inner
    else:
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            encode = _SCALARS.get(type(item))
            if encode is not None:
                put(separator + _quote(key) + ": " + encode(item))
            else:
                put(separator + _quote(key) + ": ")
                _write_indented(item, inner, put)
            separator = "," + inner
    put(newline + closer)


def _render_text(result: dict) -> str:
    lines = [
        f"graph: {result['graph']['vertices']} vertices, {result['graph']['edges']} edges, "
        f"{result['graph']['components']} component(s)",
        f"mode: {result['mode']}",
    ]
    for check in result["checks"]:
        name = check["check"]
        if not check.get("enforced", True):
            lines.append(f"check {name}: skipped")
            continue
        if check["violations"]:
            lines.append(f"check {name}: {len(check['violations'])} violation(s)")
            for violation in check["violations"]:
                at = violation["at"]
                at_text = "->".join(map(str, at)) if isinstance(at, list) else at
                lines.append(f"  {violation['clause']} at {at_text}: {violation['detail']}")
        else:
            lines.append(f"check {name}: ok")
    if "derived_labels" in result:
        pairs = ", ".join(f"{v}={label}" for v, label in result["derived_labels"].items())
        lines.append(f"derived labels: {pairs}")
    for predicate in result.get("predicates", []):
        lines.append(f"predicate {predicate['predicate']}: {predicate['status']}")
    if "labelings" in result:
        lines.append(f"labelings found: {len(result['labelings'])}")
        for entry in result["labelings"]:
            pairs = ", ".join(f"{v}={label}" for v, label in entry["labels"].items())
            lines.append(f"  labels: {pairs}")
            for predicate in entry["predicates"]:
                lines.append(f"    predicate {predicate['predicate']}: {predicate['status']}")
    lines.append("result: ok" if result["ok"] else "result: violations found")
    return "\n".join(lines)


def _cmd_validate(args) -> int:
    doc = _load_document(args.input)
    if doc is None:
        return EXIT_INPUT

    g = doc.graph
    if args.mode == "labels" and doc.labels is None:
        _error("--mode labels requires a 'labels' key in the document")
        return EXIT_INPUT
    if args.mode == "centers" and doc.marking is None:
        _error("--mode centers requires a 'centers' key in the document")
        return EXIT_INPUT
    if args.mode == "auto":
        mode = "labels" if doc.labels is not None else (
            "centers" if doc.marking is not None else "inference"
        )
    else:
        mode = args.mode

    components = weak_components(g)
    result: dict = {
        "command": "validate",
        "mode": mode,
        "graph": {
            "vertices": g.n_vertices,
            "edges": len(g.edges),
            "components": len(components),
        },
        "checks": [],
    }
    checks = result["checks"]

    checks.extend(_structural_checks(g))
    structural_ok = not any(check["violations"] for check in checks)
    if structural_ok:
        connectivity: list[dict] = []
        if args.require_connected and len(components) > 1:
            detail = f"graph has {len(components)} weakly-connected components"
            connectivity = [
                Violation(CLAUSE_CONNECTIVITY, components[1][0], detail).as_jsonable()
            ]
        checks.append({
            "check": "connectivity",
            "violations": connectivity,
            "enforced": args.require_connected,
        })

    predicate_fail = False
    if structural_ok:
        if mode == "labels":
            local = check_local(g, doc.labels)
            checks.append({"check": "local", "violations": local.as_jsonable()})
            if not local:
                result["predicates"] = _predicate_dicts(g, doc.labels)
        elif mode == "centers":
            global_report = check_global(g, doc.marking)
            checks.append({"check": "global", "violations": global_report.as_jsonable()})
            if not global_report:
                derived = _labels_from_marking(g, doc.marking)
                result["derived_labels"] = derived.as_jsonable(g)
                result["predicates"] = _predicate_dicts(g, derived)
        else:
            labelings = infer_labelings(g)
            if not labelings:
                checks.append({"check": "inference", "violations": [
                    Violation(
                        CLAUSE_INFERENCE, g.vertices[0],
                        "no labeling satisfies the local axioms",
                    ).as_jsonable()
                ]})
                result["labelings"] = []
            else:
                result["labelings"] = [
                    {
                        "labels": lab.as_jsonable(g),
                        "predicates": _predicate_dicts(g, lab),
                    }
                    for lab in labelings
                ]
        for predicate in result.get("predicates", []):
            predicate_fail = predicate_fail or predicate["status"] == FAILS
        for entry in result.get("labelings", []):
            for predicate in entry["predicates"]:
                predicate_fail = predicate_fail or predicate["status"] == FAILS

    any_violation = any(check["violations"] for check in checks)
    result["ok"] = not any_violation and not predicate_fail

    if args.format == "json":
        print(_dumps_indented(result), file=_stream())
    else:
        print(_render_text(result), file=_stream())
    return EXIT_OK if result["ok"] else EXIT_VIOLATIONS


def _cmd_infer(args) -> int:
    doc = _load_document(args.input)
    if doc is None:
        return EXIT_INPUT

    g = doc.graph
    for check in _structural_checks(g):
        if check["violations"]:
            report = {"command": "infer", "violations": check["violations"]}
            print(_dumps_indented(report), file=_stream())
            return EXIT_VIOLATIONS

    for lab in infer_labelings(g):
        print(json.dumps(lab.as_jsonable(g), separators=(",", ":")), file=_stream())
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    try:
        stream = GraphStream(max_vertices=args.max_vertices, canonical=not args.no_canonical)
        # The stream reads CRYSTALCHECK_THREADS once it starts; a bad value
        # is refused here, before any output.
        resolve_workers()
    except ValueError as exc:
        _error(str(exc))
        return EXIT_INPUT
    out = _stream()
    # Closed first if stdout breaks, so a process pool shuts down.
    with contextlib.closing(position_graphs(stream)) as positions:
        for n, edges in positions:
            print(dumps_position_edges(n, edges), file=out)
    return EXIT_OK


def _cmd_census(args) -> int:
    def report_gap(g: ColoredDigraph, lab: Labeling, report) -> None:
        doc = dumps_document(document_from_graph(g, labels=lab), compact=True)
        print(f"note: {report.predicate} fails on {doc}", file=_stream("stderr"))

    try:
        rows = census(
            args.max_vertices,
            budget_seconds=args.budget_seconds,
            on_corollary_gap=report_gap,
        )
    except ValueError as exc:
        _error(str(exc))
        return EXIT_INPUT
    except BudgetError as exc:
        _error(str(exc))
        return EXIT_BUDGET
    except CounterexampleError as exc:
        _error(str(exc))
        return EXIT_VIOLATIONS
    _stream().write(census_rows_to_csv(rows))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves no state
    on it."""
    parser = argparse.ArgumentParser(
        prog="crystalcheck",
        description="Validate, label, enumerate, and census 2-colored crystal graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="check a graph document against the axioms")
    validate.add_argument("input", help="path to a JSON graph document, or - for stdin")
    validate.add_argument("--mode", choices=("labels", "centers", "auto"), default="auto")
    validate.add_argument(
        "--no-require-connected", dest="require_connected", action="store_false",
        help="do not require weak connectivity",
    )
    validate.add_argument("--format", choices=("json", "text"), default="json")
    validate.set_defaults(func=_cmd_validate)

    infer = sub.add_parser("infer", help="list all labelings satisfying the local axioms")
    infer.add_argument("input", help="path to a JSON graph document, or - for stdin")
    infer.set_defaults(func=_cmd_infer)

    enumerate_cmd = sub.add_parser("enumerate", help="stream connected acyclic (B0) graphs")
    enumerate_cmd.add_argument("--max-vertices", type=int, required=True)
    enumerate_cmd.add_argument("--no-canonical", action="store_true",
                               help="emit all labeled graphs instead of canonical forms")
    enumerate_cmd.set_defaults(func=_cmd_enumerate)

    census_cmd = sub.add_parser("census", help="tabulate graphs, labelings, and markings per size")
    census_cmd.add_argument("--max-vertices", type=int, default=5)
    census_cmd.add_argument("--budget-seconds", type=float, default=None)
    census_cmd.set_defaults(func=_cmd_census)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.func(args)
        except CrystalCheckError as exc:
            # Anything not handled closer to its source is an input problem.
            _error(str(exc))
            return EXIT_INPUT
    except OSError as exc:
        # The reader closed stdout (``| head``) or stderr (``2>&-`` or a
        # pipe), or the process started without stdout (``>&-``); any other
        # OSError is no output problem.  Devnull in place of an open stdout
        # keeps the final flush from raising again; the error line goes out
        # only while stderr is open, and then stdout closed.
        if exc.errno not in (errno.EPIPE, errno.EBADF):
            raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        if sys.stdout is not None:
            os.dup2(devnull, sys.stdout.fileno())
        try:
            _error("stdout was closed before the output was complete")
        except OSError:
            if sys.stderr is not None:
                os.dup2(devnull, sys.stderr.fileno())
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
