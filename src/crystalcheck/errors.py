"""Exception hierarchy shared by all crystalcheck modules."""

from __future__ import annotations


class CrystalCheckError(Exception):
    """Base class for everything this package raises on purpose."""


class DocumentError(CrystalCheckError):
    """A graph document was rejected during parsing.

    ``kind`` is a stable machine-readable identifier (e.g. ``"self-loop"``,
    ``"dangling-endpoint"``), ``location`` points at the offending piece of
    the document (a JSON path such as ``"edges[3]"`` or a vertex id).
    """

    def __init__(self, kind: str, location: str, message: str):
        super().__init__(f"{kind} at {location}: {message}")
        self.kind = kind
        self.location = location
        self.message = message


class DegreeAxiomError(CrystalCheckError):
    """An operation that requires axiom (B0) was called on a graph violating it."""


class MonochromaticCycleError(CrystalCheckError):
    """A single-color subgraph contains a directed cycle, so it is not a
    disjoint union of strings."""

    def __init__(self, color: int, cycle: tuple[str, ...]):
        super().__init__(f"color-{color} subgraph has a directed cycle: {' -> '.join(cycle)}")
        self.color = color
        self.cycle = cycle


class MarkingError(CrystalCheckError):
    """A central marking references a vertex or edge that is not in the graph."""


class LabelingError(CrystalCheckError):
    """A labeling gives a vertex a value outside {0, c, 1}, or is not a
    total map on the graph's vertex set."""


class CentralityError(CrystalCheckError):
    """A 1-string does not carry exactly one central element, so vertices on
    it cannot be classified as left/central/right."""

    def __init__(self, string: tuple[str, ...], count: int):
        super().__init__(
            f"1-string {list(string)} carries {count} central elements, expected exactly 1"
        )
        self.string = string
        self.count = count


class PreconditionError(CrystalCheckError):
    """An operation's documented precondition does not hold for the input."""


class BudgetError(CrystalCheckError):
    """A census run exceeded its wall-clock budget."""

    def __init__(self, budget_seconds: float, completed_rows: int):
        super().__init__(
            f"census exceeded its {budget_seconds:g}s budget "
            f"after completing {completed_rows} row(s)"
        )
        self.budget_seconds = budget_seconds
        self.completed_rows = completed_rows


class CounterexampleError(CrystalCheckError):
    """The marking/labeling correspondence failed on an enumerated graph.

    This should never happen; if it does, either the checker or the
    enumeration is wrong, and the offending graph is attached for inspection.
    """

    def __init__(self, message: str, graph=None):
        super().__init__(message)
        self.graph = graph
