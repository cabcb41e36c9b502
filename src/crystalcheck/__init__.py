"""crystalcheck: validation, label inference, and exhaustive verification
for finite 2-edge-colored crystal graphs."""

from .axioms import (
    ALLOWED_PAIRS_1,
    ALLOWED_PAIRS_2,
    LABEL_VALUES,
    CentralMarking,
    Labeling,
    VertexClass,
    check_global,
    check_local,
    classify_edges,
    classify_vertices,
    infer_labelings,
    labels_from_marking,
    marking_from_labels,
)
from .documents import (
    GraphDocument,
    document_from_graph,
    dumps_document,
    parse_document,
    parse_graph,
    serialize_graph,
)
from .enumeration import (
    CensusRow,
    GraphStream,
    PropositionResult,
    census,
    census_rows_to_csv,
    check_proposition,
    enumerate_graphs,
)
from .errors import (
    BudgetError,
    CentralityError,
    CounterexampleError,
    CrystalCheckError,
    DegreeAxiomError,
    DocumentError,
    GraphError,
    LabelingError,
    MarkingError,
    MonochromaticCycleError,
    PreconditionError,
)
from .graph import (
    ColoredDigraph,
    CycleCertificate,
    Edge,
    Potential,
    StringDecomposition,
    check_degree_axiom,
    decompose_strings,
    find_potential,
    weak_components,
)
from .predicates import (
    PredicateReport,
    check_corollary2,
    check_corollary3,
    check_string_words,
)
from .violations import Violation, ViolationReport

__version__ = "0.1.0"
