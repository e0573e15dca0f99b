"""Four-qubit hypergraph states: construction, local-Pauli orbits, and
entanglement classification.

The code space is tiny (2**15 states), which lets everything be exact and
exhaustive: hypergraphs are 15-bit integers, local moves are precomputed
permutation tables, and the 28 locally inequivalent hypergraph classes are
recovered by measuring each orbit's canonical representative.
"""

from .classifier import (
    ClassificationError,
    ClassRecord,
    ClassSignature,
    ReferenceRow,
    REFERENCE_ROWS,
    classify_all,
    emit_report,
    match_row,
    reference_comparison,
    signature,
)
from .geoment import (
    DegeneracyPattern,
    GeSolution,
    IterationDiverged,
    ProductState,
    SolvePolicy,
    closed_form_values,
    closest_product,
    degeneracy_pattern,
    geometric_entanglement,
    real_grid_eg,
    solve_code,
    stable_symmetric_z,
    symmetric_z_iteration,
)
from .hypercore import (
    apply_x,
    apply_z,
    edges_of,
    format_edges,
    hypergraph_from_signs,
    neighborhood,
    parse_edges,
    permute,
    rank,
    signs_from_hypergraph,
    standardize,
)
from .orbits import (
    OrbitRecord,
    OrbitTable,
    enumerate_orbits,
    orbit_of,
    rank_census,
)
from .statevec import (
    EntropyProfile,
    build_state,
    entropy,
    entropy_profile,
    neighborhood_equivalence_check,
    reduced_density,
    stabilizer_operator,
    verify_stabilizers,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationError",
    "ClassRecord",
    "ClassSignature",
    "DegeneracyPattern",
    "EntropyProfile",
    "GeSolution",
    "IterationDiverged",
    "OrbitRecord",
    "OrbitTable",
    "ProductState",
    "REFERENCE_ROWS",
    "ReferenceRow",
    "SolvePolicy",
    "apply_x",
    "apply_z",
    "build_state",
    "classify_all",
    "closed_form_values",
    "closest_product",
    "degeneracy_pattern",
    "edges_of",
    "emit_report",
    "entropy",
    "entropy_profile",
    "enumerate_orbits",
    "format_edges",
    "geometric_entanglement",
    "hypergraph_from_signs",
    "match_row",
    "neighborhood",
    "neighborhood_equivalence_check",
    "orbit_of",
    "parse_edges",
    "permute",
    "rank",
    "rank_census",
    "real_grid_eg",
    "reduced_density",
    "reference_comparison",
    "signature",
    "signs_from_hypergraph",
    "solve_code",
    "stabilizer_operator",
    "stable_symmetric_z",
    "standardize",
    "symmetric_z_iteration",
    "verify_stabilizers",
]
