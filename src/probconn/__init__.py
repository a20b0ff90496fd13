"""Connectivity quality of networks with unreliable links.

Builds the probabilistic connectivity matrix of an undirected graph whose
edges exist independently with given probabilities — exactly, by edge-state
enumeration, or approximately, by Monte Carlo — and analyzes it: entrywise
relay bounds, critical vertices, the largest-eigenvalue quality metric,
walk probabilities, and per-link sensitivity ranking.
"""

from .bounds import (
    BoundsReport,
    BoundViolation,
    CriticalFinding,
    compute_bounds,
    find_critical_vertices,
)
from .exact import (
    DEFAULT_MAX_EDGES,
    EdgeLimitExceeded,
    conditional_connectivity,
    exact_connectivity,
    state_probability,
)
from .fileio import GraphFileError, format_graph_file, parse_graph_file, to_json
from .graph import (
    GraphValidationError,
    ProbGraph,
    add_edge,
    adjacency_matrix,
    articulation_points,
    build_graph,
    support_components,
    with_edge_probability,
)
from .montecarlo import HalfWidths, McEstimate, ci_halfwidth, mc_connectivity
from .sensitivity import (
    AffineSlice,
    EdgeDerivative,
    RankedEdge,
    SensitivityRanking,
    affine_slice,
    lambda_derivative,
    rank_improvements,
)
from .spectral import (
    CornerCertificate,
    CornerStructureError,
    QualityComparison,
    SpectralReport,
    compare_quality,
    spectral_report,
    sym_eig,
    verify_corner_structure,
)
from .walks import WalkMatrix, otimes, walk_matrix, walk_probabilities

__version__ = "0.2.0"

__all__ = [
    "AffineSlice",
    "BoundViolation",
    "BoundsReport",
    "CornerCertificate",
    "CornerStructureError",
    "CriticalFinding",
    "DEFAULT_MAX_EDGES",
    "EdgeDerivative",
    "EdgeLimitExceeded",
    "GraphFileError",
    "GraphValidationError",
    "HalfWidths",
    "McEstimate",
    "ProbGraph",
    "QualityComparison",
    "RankedEdge",
    "SensitivityRanking",
    "SpectralReport",
    "WalkMatrix",
    "add_edge",
    "adjacency_matrix",
    "affine_slice",
    "articulation_points",
    "build_graph",
    "ci_halfwidth",
    "compare_quality",
    "compute_bounds",
    "conditional_connectivity",
    "exact_connectivity",
    "find_critical_vertices",
    "format_graph_file",
    "lambda_derivative",
    "mc_connectivity",
    "otimes",
    "parse_graph_file",
    "rank_improvements",
    "spectral_report",
    "state_probability",
    "support_components",
    "sym_eig",
    "to_json",
    "verify_corner_structure",
    "walk_matrix",
    "walk_probabilities",
    "with_edge_probability",
]
