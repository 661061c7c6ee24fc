import inspect
from itertools import combinations

import graph_reference as ref
import pytest

import extraconn
from extraconn import (
    DomainError,
    GraphSpec,
    ResourceLimitError,
    enumerate_connected_subsets,
    ex,
    ex_bruteforce,
    is_connected_subset,
    lambda_profile,
    sample_cuts,
    xi,
    xi_bruteforce_sweep,
)
from extraconn.oracle import DEFAULT_EXTENSION_BUDGET


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_connected_subsets(GraphSpec(3, 2), 1)) == 8
    assert sum(1 for _ in enumerate_connected_subsets(GraphSpec(3, 2), 8)) == 1
    # connected pairs are exactly the edges
    assert sum(1 for _ in enumerate_connected_subsets(GraphSpec(4, 2), 2)) == 40


@pytest.mark.parametrize("m", range(1, 6))
def test_enumerate_yields_each_connected_set_once(m):
    spec = GraphSpec(4, 2)
    seen = set()
    for members in enumerate_connected_subsets(spec, m):
        assert len(members) == m
        assert is_connected_subset(spec, members)
        assert members not in seen
        seen.add(members)
    # cross-count against a direct sweep of all subsets
    expected = sum(
        1
        for combo in combinations(range(16), m)
        if is_connected_subset(spec, frozenset(combo))
    )
    assert len(seen) == expected


def test_enumerate_rejects_large_dimension():
    with pytest.raises(DomainError):
        list(enumerate_connected_subsets(GraphSpec(6, 2), 3))


def test_generators_check_arguments_at_the_call():
    # no iteration: the bad argument is refused when the call is made
    with pytest.raises(DomainError):
        enumerate_connected_subsets(GraphSpec(9, 2), 2)
    with pytest.raises(DomainError):
        enumerate_connected_subsets(GraphSpec(4, 2), 17)
    with pytest.raises(DomainError):
        sample_cuts(GraphSpec(4, 2), 2.0, 0)
    with pytest.raises(DomainError):
        sample_cuts(GraphSpec(13, 2), 1, 0)
    with pytest.raises(DomainError):
        sample_cuts(GraphSpec(4, 2), 1, -1)


def test_enumerate_budget_exhaustion():
    with pytest.raises(ResourceLimitError):
        list(enumerate_connected_subsets(GraphSpec(4, 2), 5, budget=10))


_BUDGETED = {
    "enumerate_connected_subsets": lambda spec, budget: list(
        enumerate_connected_subsets(spec, 2, budget)
    ),
    "xi_bruteforce_sweep": lambda spec, budget: xi_bruteforce_sweep(spec, 2, budget),
    "ex_bruteforce": lambda spec, budget: ex_bruteforce(spec, 2, budget),
}


def test_budget_default_and_domain():
    spec = GraphSpec(3, 2)
    for name, call in _BUDGETED.items():
        default = inspect.signature(getattr(extraconn, name)).parameters["budget"].default
        assert default == DEFAULT_EXTENSION_BUDGET == 10**9
        call(spec, default)
        for budget in ("x", -1):
            with pytest.raises(DomainError):
                call(spec, budget)


def test_xi_bruteforce_examples():
    results = xi_bruteforce_sweep(GraphSpec(4, 2), 8)
    assert results[3].xi_exact == 12
    assert results[7].xi_exact == 8


def test_xi_bruteforce_witness_revalidates():
    spec = GraphSpec(4, 2)
    everything = frozenset(range(spec.num_vertices))
    # m_max = 1 leaves the search stack empty: only the root {0} is checked
    for m_max in (1, 8):
        results = xi_bruteforce_sweep(spec, m_max)
        assert [result.m for result in results] == list(range(1, m_max + 1))
        for result in results:
            assert len(result.witness) == result.m
            assert ref.connected(spec, result.witness)
            assert ref.connected(spec, everything - result.witness)
            assert ref.boundary(spec, result.witness) == result.xi_exact


@pytest.mark.parametrize("n", [3, 4])
def test_oracle_matches_formula_plain(n):
    spec = GraphSpec(n)
    for result in xi_bruteforce_sweep(spec, spec.num_vertices // 2):
        assert result.xi_exact == n * result.m - ex(spec, result.m)


def test_oracle_matches_formula_enhanced_n4():
    spec = GraphSpec(4, 2)
    family = GraphSpec(4, 2)
    for result in xi_bruteforce_sweep(spec, 8):
        assert result.xi_exact == xi(family, result.m)


def test_oracle_matches_formula_enhanced_n5_prefix():
    # the full m range is covered by the acceptance suite; keep this quick
    spec = GraphSpec(5, 2)
    family = GraphSpec(5, 2)
    for result in xi_bruteforce_sweep(spec, 6):
        assert result.xi_exact == xi(family, result.m)


@pytest.mark.parametrize("k", [None, 1, 2])
def test_pruned_search_agrees_with_plain_enumeration(k):
    # same minima through the unpruned generator, complement filtered;
    # Q_{4,1} has no closed form, so this is its only independent check
    spec = GraphSpec(4, k)
    everything = frozenset(range(spec.num_vertices))
    results = xi_bruteforce_sweep(spec, 8)
    for m in range(1, 9):
        plain_min = min(
            ref.boundary(spec, members)
            for members in enumerate_connected_subsets(spec, m)
            if ref.connected(spec, everything - members)
        )
        assert results[m - 1].xi_exact == plain_min


def test_lambda_bruteforce():
    # exact lambda_h: the minimum of the exact xi_m over h <= m <= 2^(n-1)
    spec = GraphSpec(4, 2)
    exact = [result.xi_exact for result in xi_bruteforce_sweep(spec, 8)]
    lambdas = [min(exact[h - 1 :]) for h in range(1, 9)]
    assert lambdas[2] == 8
    profile = lambda_profile(spec)
    assert lambdas == [profile.lambda_at(h) for h in range(1, 9)]
    with pytest.raises(DomainError):
        xi_bruteforce_sweep(spec, 9)


def test_ex_bruteforce_examples():
    assert ex_bruteforce(GraphSpec(4, 2), 8) == 32
    assert ex_bruteforce(GraphSpec(4, 2), 4) == 8
    assert ex_bruteforce(GraphSpec(4), 2) == 2


def test_ex_bruteforce_matches_formula_n4_all_subsets():
    spec = GraphSpec(4, 2)
    for m in range(1, 17):
        assert ex_bruteforce(spec, m) == ex(spec, m)


def test_ex_bruteforce_n5_connected():
    spec = GraphSpec(5, 2)
    for m in (1, 2, 4, 6):
        assert ex_bruteforce(spec, m) == ex(spec, m)
    assert ex_bruteforce(GraphSpec(5), 6) == ex(GraphSpec(5), 6)


@pytest.mark.parametrize("k", [None, 1, 2])
def test_ex_bruteforce_matches_unrooted_sweep_n4(k):
    # reference: every subset, not only those containing vertex 0
    spec = GraphSpec(4, k)
    for m in range(1, 17):
        expected = max(
            ref.induced_double_edges(spec, combo) for combo in combinations(range(16), m)
        )
        assert ex_bruteforce(spec, m) == expected


@pytest.mark.parametrize("k", [None, 1, 2])
def test_ex_bruteforce_matches_connected_enumeration_n5(k):
    # reference: every connected set, grown from each start vertex
    spec = GraphSpec(5, k)
    for m in range(1, 6):
        expected = max(
            ref.induced_double_edges(spec, members)
            for members in enumerate_connected_subsets(spec, m)
        )
        assert ex_bruteforce(spec, m) == expected


def test_ex_bruteforce_rejects_large_dimension():
    with pytest.raises(DomainError):
        ex_bruteforce(GraphSpec(6, 2), 4)


def test_sample_cuts_deterministic():
    spec = GraphSpec(5, 2)
    first = list(sample_cuts(spec, 300, seed=42))
    second = list(sample_cuts(spec, 300, seed=42))
    assert first == second
    assert list(sample_cuts(spec, 50, seed=1)) != list(sample_cuts(spec, 50, seed=2))


def test_sample_cuts_respect_lower_bound():
    spec = GraphSpec(5, 2)
    family = GraphSpec(5, 2)
    cuts = list(sample_cuts(spec, 2000, seed=9))
    assert cuts
    for cut in cuts:
        assert cut.both_connected
        assert 1 <= cut.h <= 16
        assert cut.cut_size >= xi(family, cut.h)
    observed_h6 = {cut.cut_size for cut in cuts if cut.h == 6}
    assert observed_h6 <= {22, 24, 26, 28, 30, 32, 34}


def test_sample_cuts_rejects_large_dimension():
    with pytest.raises(DomainError):
        list(sample_cuts(GraphSpec(13, 2), 1, seed=0))
