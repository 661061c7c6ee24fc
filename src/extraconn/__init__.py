"""Edge-connectivity reliability profiles for hypercube-family networks.

Closed-form xi/lambda values and tables for the plain hypercube and the
(n,2)-enhanced hypercube, plus an exhaustive graph-level oracle that
certifies them on small instances.
"""

from .concentration import (
    Breakpoints,
    ConcentrationReport,
    RatioRow,
    XiProfile,
    breakpoints,
    concentration_report,
    h_min,
    lambda_at,
    lambda_profile,
    ratio_table,
)
from .errors import DomainError, ResourceLimitError, VerificationError
from .extremal import ex, xi
from .graphs import (
    GraphSpec,
    adjacency_bitmap,
    boundary_size,
    induced_double_edge_count,
    is_connected_subset,
    pbm_text,
)
from .oracle import (
    CutSample,
    OracleResult,
    enumerate_connected_subsets,
    ex_bruteforce,
    sample_cuts,
    xi_bruteforce_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Breakpoints",
    "ConcentrationReport",
    "CutSample",
    "DomainError",
    "GraphSpec",
    "OracleResult",
    "RatioRow",
    "ResourceLimitError",
    "VerificationError",
    "XiProfile",
    "adjacency_bitmap",
    "boundary_size",
    "breakpoints",
    "concentration_report",
    "enumerate_connected_subsets",
    "ex",
    "ex_bruteforce",
    "h_min",
    "induced_double_edge_count",
    "is_connected_subset",
    "lambda_at",
    "lambda_profile",
    "pbm_text",
    "ratio_table",
    "sample_cuts",
    "xi",
    "xi_bruteforce_sweep",
]
