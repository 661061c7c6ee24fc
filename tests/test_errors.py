import numpy
import pytest
from extremal_reference import (
    binary_decomposition,
    ex_enhanced,
    ex_hypercube,
    ex_upper_bound_check,
    split_identity_check,
)

import extraconn
from extraconn import (
    DomainError,
    GraphSpec,
    boundary_size,
    breakpoints,
    concentration_report,
    enumerate_connected_subsets,
    ex,
    ex_bruteforce,
    h_min,
    induced_double_edge_count,
    is_connected_subset,
    lambda_at,
    lambda_profile,
    ratio_table,
    sample_cuts,
    xi,
    xi_bruteforce_sweep,
)

Q42 = GraphSpec(4, 2)
Q32 = GraphSpec(3, 2)

# (argument, call taking that argument's value, an int the call accepts)
INTEGER_ARGUMENTS = [
    ("GraphSpec.n", lambda v: GraphSpec(v), 2),
    ("GraphSpec.k", lambda v: GraphSpec(4, v), 2),
    ("induced_double_edge_count.members", lambda v: induced_double_edge_count(Q42, [v]), 2),
    ("is_connected_subset.members", lambda v: is_connected_subset(Q42, [v]), 2),
    ("boundary_size.members", lambda v: boundary_size(Q42, [v]), 2),
    ("ex.m", lambda v: ex(Q42, v), 2),
    ("xi.m", lambda v: xi(Q42, v), 2),
    ("XiProfile.xi_at.m", lambda v: lambda_profile(Q42).xi_at(v), 2),
    ("XiProfile.lambda_at.h", lambda v: lambda_profile(Q42).lambda_at(v), 2),
    ("lambda_at.h", lambda v: lambda_at(GraphSpec(9, 2), v), 2),
    ("h_min.n", lambda v: h_min(v), 4),
    ("breakpoints.n", lambda v: breakpoints(v), 9),
    ("concentration_report.n", lambda v: concentration_report(v), 9),
    ("ratio_table.n_min", lambda v: ratio_table(v, 5), 4),
    ("ratio_table.n_max", lambda v: ratio_table(4, v), 4),
    ("enumerate_connected_subsets.m", lambda v: list(enumerate_connected_subsets(Q32, v)), 2),
    (
        "enumerate_connected_subsets.budget",
        lambda v: list(enumerate_connected_subsets(Q32, 2, v)),
        100,
    ),
    ("xi_bruteforce_sweep.m_max", lambda v: xi_bruteforce_sweep(Q32, v), 2),
    ("xi_bruteforce_sweep.budget", lambda v: xi_bruteforce_sweep(Q32, 2, v), 100),
    ("ex_bruteforce.m", lambda v: ex_bruteforce(Q32, v), 2),
    ("ex_bruteforce.budget", lambda v: ex_bruteforce(Q32, 2, v), 100),
    ("sample_cuts.samples", lambda v: list(sample_cuts(Q32, v, 0)), 2),
    ("sample_cuts.seed", lambda v: list(sample_cuts(Q32, 2, v)), 2),
    # the closed-form references and paper-lemma helpers the tests keep in
    # extremal_reference follow the same policy
    ("binary_decomposition.m", lambda v: binary_decomposition(v), 2),
    ("ex_hypercube.n", lambda v: ex_hypercube(v, 2), 2),
    ("ex_hypercube.m", lambda v: ex_hypercube(4, v), 2),
    ("ex_enhanced.n", lambda v: ex_enhanced(v, 2), 3),
    ("ex_enhanced.m", lambda v: ex_enhanced(4, v), 2),
    ("split_identity_check.n", lambda v: split_identity_check(v, 3, 0), 3),
    ("split_identity_check.m", lambda v: split_identity_check(4, v, 0), 3),
    ("split_identity_check.a", lambda v: split_identity_check(4, 3, v), 0),
    ("ex_upper_bound_check.n", lambda v: ex_upper_bound_check(v, 2, 2), 3),
    ("ex_upper_bound_check.t", lambda v: ex_upper_bound_check(4, v, 2), 2),
    ("ex_upper_bound_check.m", lambda v: ex_upper_bound_check(4, 2, v), 2),
]


@pytest.mark.parametrize(
    "call,ok",
    [case[1:] for case in INTEGER_ARGUMENTS],
    ids=[case[0] for case in INTEGER_ARGUMENTS],
)
def test_integer_arguments_refuse_other_types(call, ok):
    # the int is accepted; the same number as a float or numpy integer, and a bool, are not
    call(ok)
    bad = [2.0, numpy.int64(2), True]
    if ok != 2:
        bad += [float(ok), numpy.int64(ok)]
    for value in bad:
        with pytest.raises(DomainError):
            call(value)


def test_require_message():
    DomainError.require(5, 1, 5, "m")
    DomainError.require(10**30, 0, None, "budget")
    with pytest.raises(DomainError, match=r"^m=6 outside \[1, 5\]$"):
        DomainError.require(6, 1, 5, "m")
    with pytest.raises(DomainError, match=r"^budget=-1 outside \[0, inf\)$"):
        DomainError.require(-1, 0, None, "budget")
    with pytest.raises(DomainError, match=r"^n=9\.0 is not an int$"):
        DomainError.require(9.0, 9, 62, "n")
    with pytest.raises(DomainError, match=r"^n=True is not an int$"):
        DomainError.require(True, 0, 62, "n")


PUBLIC_NAMES = [
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

# second entry points to an answer, or wrappers only the tests called
REMOVED_NAMES = [
    "ex_hypercube",
    "ex_enhanced",
    "binary_decomposition",
    "split_identity_check",
    "SplitIdentity",
    "ex_upper_bound_check",
    "xi_bruteforce",
    "lambda_bruteforce",
    "table2_breakpoints",
]


def test_public_api():
    assert sorted(extraconn.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(extraconn, name) is not None
    for name in REMOVED_NAMES:
        assert not hasattr(extraconn, name)
