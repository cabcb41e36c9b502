"""Checkable structural predicates around central 1-edges and string words.

These are diagnostics, not axioms: the two corollary predicates are known to
follow from a larger axiom set than the one this package checks, so a graph
can satisfy every local axiom and still fail them.  Reports therefore carry
a three-valued status: ``holds``, ``fails``, or ``vacuous`` when the
predicate's hypothesis is never instantiated.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .axioms import LABEL_CENTRAL, Labeling, _central_1_edges, _require_local_validity
from .errors import LabelingError
from .graph import ColoredDigraph, StringDecomposition

HOLDS, FAILS, VACUOUS = "holds", "fails", "vacuous"

# Valid label words along a string: 0^a c 1^b (a,b >= 0) or 0^a 1^b
# (a,b >= 1) in color 1, and 1^a c 0^b (a,b >= 0) in color 2.
WORD_PATTERN_1 = re.compile(r"0*c1*|0+1+")
WORD_PATTERN_2 = re.compile(r"1*c0*")


@dataclass(frozen=True)
class PredicateReport:
    """Outcome of one predicate check.

    ``witnesses`` lists the hypothesis instances behind the status: the
    instances verified when the predicate holds, the offending instances
    when it fails, and nothing when it is vacuous.  It is a tuple of frozen
    copies of the witnesses given: a sequence of vertices becomes a tuple,
    and a string-words entry a read-only mapping whose "string" is a tuple.
    """

    predicate: str
    status: str
    witnesses: tuple

    def __post_init__(self):
        object.__setattr__(self, "witnesses", tuple(map(_frozen, self.witnesses)))

    def __reduce__(self):
        # A read-only mapping cannot be pickled or deep-copied; its plain
        # copy can, and the constructor freezes it again.
        return type(self), (self.predicate, self.status, self.as_jsonable()["witnesses"])

    @property
    def ok(self) -> bool:
        return self.status != FAILS

    def as_jsonable(self) -> dict:
        return {
            "predicate": self.predicate,
            "status": self.status,
            "witnesses": [
                list(w) if type(w) is tuple else dict(w, string=list(w["string"]))
                for w in self.witnesses
            ],
        }


def _frozen(witness):
    """A read-only copy of one witness (see ``PredicateReport``); a witness
    already frozen, as when one report's witnesses make another's, is kept."""
    if type(witness) is MappingProxyType and type(witness["string"]) is tuple:
        return witness
    if isinstance(witness, Mapping):
        return MappingProxyType(dict(witness, string=tuple(witness["string"])))
    return tuple(witness)


def _status_report(predicate: str, instances: list, failing: list) -> PredicateReport:
    """The report on a predicate's hypothesis instances and the failing ones
    among them: vacuous without instances, fails with the failing ones as
    witnesses, else holds with every instance as a witness."""
    if not instances:
        return PredicateReport(predicate=predicate, status=VACUOUS, witnesses=())
    if failing:
        return PredicateReport(predicate=predicate, status=FAILS, witnesses=tuple(failing))
    return PredicateReport(predicate=predicate, status=HOLDS, witnesses=tuple(instances))


def check_corollary2(g: ColoredDigraph, lab: Labeling) -> PredicateReport:
    """For every central 1-edge (u, v): a 2-edge must enter u from a
    central vertex and a 2-edge must leave v toward a central vertex.

    Witnesses are (u, v) pairs.  Vacuous when no central 1-edge exists.
    Requires a labeling that passes the local axioms.
    """
    _require_local_validity(g, lab)
    return _corollaries(g, lab)[0]


def check_corollary3(g: ColoredDigraph, lab: Labeling) -> PredicateReport:
    """For every central 1-edge (u, v) with a 2-edge (u, w) leaving u: some
    1-edge (w, w') must exist with w' central.

    Witnesses are (u, v, w) triples.  Vacuous when no central 1-edge has a
    leaving 2-edge at its tail.  Requires a labeling that passes the local
    axioms.
    """
    _require_local_validity(g, lab)
    return _corollaries(g, lab)[1]


def _corollaries(g: ColoredDigraph, lab: Labeling) -> tuple[PredicateReport, PredicateReport]:
    """``check_corollary2`` and ``check_corollary3`` on a labeling known to
    pass the local axioms, from one scan for its central 1-edges."""
    labels = lab.labels
    instances2, failing2, instances3, failing3 = [], [], [], []
    for e in _central_1_edges(g, lab):
        witness = (e.tail, e.head)
        instances2.append(witness)
        if not (any(labels[prev.tail] == LABEL_CENTRAL for prev in g.in_edges(e.tail, 2))
                and any(labels[nxt.head] == LABEL_CENTRAL for nxt in g.out_edges(e.head, 2))):
            failing2.append(witness)
        for via in g.out_edges(e.tail, 2):
            witness = (e.tail, e.head, via.head)
            instances3.append(witness)
            if not any(labels[nxt.head] == LABEL_CENTRAL for nxt in g.out_edges(via.head, 1)):
                failing3.append(witness)
    return (
        _status_report("corollary2", instances2, failing2),
        _status_report("corollary3", instances3, failing3),
    )


def string_word(string: tuple[str, ...], lab: Labeling) -> str:
    """The label word read along a string."""
    return "".join(map(lab.labels.__getitem__, string))


def check_string_words(decomp: StringDecomposition, lab: Labeling) -> PredicateReport:
    """Check that every string's label word has the admissible shape.

    This is equivalent to the local axioms restricted to the string: each
    1-string word must match 0^a c 1^b (a,b >= 0) or 0^a 1^b (a,b >= 1),
    and each 2-string word must match 1^a c 0^b (a,b >= 0).  Witnesses
    identify strings as read-only {"color": ..., "string": (...)} mappings.
    """
    labels = lab.labels
    if not all(map(labels.__contains__, itertools.chain.from_iterable(decomp.strings))):
        # Named on refusal only: the first uncovered vertex in string order.
        v = next(v for string in decomp.strings for v in string if v not in labels)
        raise LabelingError(f"labeling does not cover vertex {v!r}")
    pattern = WORD_PATTERN_1 if decomp.color == 1 else WORD_PATTERN_2
    instances, failing = [], []
    for string in decomp.strings:
        witness = MappingProxyType({"color": decomp.color, "string": string})
        instances.append(witness)
        if not pattern.fullmatch(string_word(string, lab)):
            failing.append(witness)
    return _status_report("string-words", instances, failing)
