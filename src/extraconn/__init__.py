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
    table2_breakpoints,
)
from .errors import DomainError, ResourceLimitError, VerificationError
from .extremal import (
    SplitIdentity,
    binary_decomposition,
    ex,
    ex_enhanced,
    ex_hypercube,
    ex_upper_bound_check,
    split_identity_check,
    xi,
)
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
    lambda_bruteforce,
    sample_cuts,
    xi_bruteforce,
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
    "SplitIdentity",
    "VerificationError",
    "XiProfile",
    "adjacency_bitmap",
    "binary_decomposition",
    "boundary_size",
    "breakpoints",
    "concentration_report",
    "enumerate_connected_subsets",
    "ex",
    "ex_bruteforce",
    "ex_enhanced",
    "ex_hypercube",
    "ex_upper_bound_check",
    "h_min",
    "induced_double_edge_count",
    "is_connected_subset",
    "lambda_at",
    "lambda_bruteforce",
    "lambda_profile",
    "pbm_text",
    "ratio_table",
    "sample_cuts",
    "split_identity_check",
    "table2_breakpoints",
    "xi",
    "xi_bruteforce",
    "xi_bruteforce_sweep",
]
