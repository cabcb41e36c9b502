"""Violation records produced by the axiom checkers.

A checker never raises on an axiom violation; it returns a report listing
every violated clause instance so the tool can be used as a diagnostic.
Reports are deterministic: identical inputs produce identical entry order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from .graph import ColoredDigraph

# Clause identifiers used in reports.  B0 is the per-color degree axiom;
# B1/B2 are the global central-element axioms; the (i)/(ii) variants are
# their local label counterparts.  "acyclicity" and "connectivity" name the
# structural checks the CLI runs before any axiom checking.
CLAUSE_B0 = "B0"
CLAUSE_B1 = "B1"
CLAUSE_B2 = "B2"
CLAUSE_B1_I = "B1(i)"
CLAUSE_B1_II = "B1(ii)"
CLAUSE_B2_I = "B2(i)"
CLAUSE_B2_II = "B2(ii)"
CLAUSE_ACYCLICITY = "acyclicity"
CLAUSE_CONNECTIVITY = "connectivity"
CLAUSE_INFERENCE = "inference"

Location = Union[str, tuple[str, str, int]]


@dataclass(frozen=True, slots=True)
class Violation:
    """One violated clause instance.

    ``at`` is either a vertex id or an ``(tail, head, color)`` edge triple.
    """

    clause: str
    at: Location
    detail: str

    def as_jsonable(self) -> dict:
        at = list(self.at) if isinstance(self.at, tuple) else self.at
        return {"clause": self.clause, "at": at, "detail": self.detail}


@dataclass(frozen=True, slots=True)
class ViolationReport:
    """Ordered list of violations; empty means the checked axioms hold."""

    entries: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.entries

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def as_jsonable(self) -> list[dict]:
        return [entry.as_jsonable() for entry in self.entries]

    @classmethod
    def build(cls, graph: "ColoredDigraph", violations: list[Violation]) -> "ViolationReport":
        """Sort violations into the canonical report order.

        Vertex-located entries come first, in declared vertex order, then
        edge-located entries in declared edge order; ties break on clause id
        and detail text.
        """
        def key(violation: Violation):
            if isinstance(violation.at, tuple):
                return (1, graph.edge_index(*violation.at), violation.clause, violation.detail)
            return (0, graph.vertex_index(violation.at), violation.clause, violation.detail)

        return cls(entries=tuple(sorted(violations, key=key)))
