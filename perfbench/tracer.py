"""Outside-in tracer: times the program's layers without changing its source.

``Tracer.install`` wraps the public functions of the package's modules,
plus the construction of ``ColoredDigraph`` and ``ViolationReport.build``,
and rebinds each wrapped name in every package module that imported it.
Every call becomes a span (name, start, end, parent, item) held in flat
arrays; ``uninstall`` puts the original objects back.  Generator functions
are timed per ``next()``, so the consumer's work between items is not
charged to them.  Self time is a span's duration minus that of its
children, computed from the spans after the run.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("graph", "axioms", "predicates", "enumeration", "documents", "violations", "cli")
# Functions whose return value is a violation report: an empty report
# counts as a valid outcome, giving the useful-to-attempted ratio.
REPORT_RETURNING = frozenset({"axioms.check_local", "axioms.check_global"})


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.item = -1
        # Per name id: empty reports returned, calls that raised, items yielded.
        self.valid: list[int] = []
        self.raised: list[int] = []
        self.yields: list[int] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            for counts in (self.valid, self.raised, self.yields):
                counts.append(0)
        return self.name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_item.append(self.item)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def wrap_function(self, name: str, fn):
        nid = self._name_id(name)
        counts_valid = name in REPORT_RETURNING
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[nid] += 1
                raise
            finally:
                tracer._close(idx)
            if counts_valid and not result:
                tracer.valid[nid] += 1
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = tracer._open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except BaseException:
                    tracer.raised[nid] += 1
                    raise
                finally:
                    tracer._close(idx)
                tracer.yields[nid] += 1
                yield item

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of the layer modules and rebind it
        wherever the package holds a reference to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{self.package}.{layer}")
            if module is None:
                continue
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrap = self.wrap_generator if inspect.isgeneratorfunction(obj) else self.wrap_function
                wrapped[id(obj)] = wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._set(module, attr, wrapped[id(obj)])

        # Class members the layers spend time in; skipped if they change shape.
        digraph = getattr(sys.modules.get(f"{self.package}.graph"), "ColoredDigraph", None)
        if digraph is not None and "__init__" in vars(digraph):
            self._set(digraph, "__init__", self.wrap_function("graph.ColoredDigraph", vars(digraph)["__init__"]))
        report = getattr(sys.modules.get(f"{self.package}.violations"), "ViolationReport", None)
        if report is not None and isinstance(vars(report).get("build"), classmethod):
            build = self.wrap_function("violations.ViolationReport.build", vars(report)["build"].__func__)
            self._set(report, "build", classmethod(build))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, valid returns,
        calls that raised, and items yielded."""
        n = len(self.span_start)
        start, end, parent, name = self.span_start, self.span_end, self.span_parent, self.span_name
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {
            label: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "valid": self.valid[nid],
                    "raised": self.raised[nid], "yields": self.yields[nid]}
            for nid, label in enumerate(self.names)
        }
        for i in range(n):
            entry = out[self.names[name[i]]]
            duration = end[i] - start[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child[i]
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as a gzip'd TSV: id, parent, item, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\titem\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.span_item[i]}\t"
                         f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
