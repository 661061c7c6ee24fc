import random

import graph_reference
import pytest
from extremal_reference import (
    binary_decomposition,
    complementary_credit,
    ex_enhanced,
    ex_hypercube,
    ex_table,
    ex_upper_bound_check,
    hart_count,
    split_identity_check,
)
from graph_reference import lexicographic_set

from extraconn import (
    DomainError,
    GraphSpec,
    ResourceLimitError,
    ex,
    induced_double_edge_count,
    lambda_at,
    lambda_profile,
    xi,
)


def test_binary_decomposition_examples():
    assert binary_decomposition(59) == [5, 4, 3, 1, 0]
    assert binary_decomposition(1) == [0]
    assert binary_decomposition(118) == [6, 5, 4, 2, 1]


def test_binary_decomposition_round_trip():
    for m in range(1, 4097):
        exps = binary_decomposition(m)
        assert exps == sorted(exps, reverse=True)
        assert sum(1 << t for t in exps) == m
    rng = random.Random(7)
    for _ in range(1000):
        m = rng.randint(1, 1 << 20)
        assert sum(1 << t for t in binary_decomposition(m)) == m


def test_binary_decomposition_rejects_nonpositive():
    with pytest.raises(DomainError):
        binary_decomposition(0)
    with pytest.raises(DomainError):
        binary_decomposition(-3)


def test_ex_hypercube_examples():
    plain = GraphSpec(4)
    assert ex(plain, 4) == ex_hypercube(4, 4) == 8
    assert ex(plain, 8) == ex_hypercube(4, 8) == 24
    assert ex(GraphSpec(5), 6) == ex_hypercube(5, 6) == 14
    with pytest.raises(DomainError):
        ex(plain, 0)
    with pytest.raises(DomainError):
        ex(plain, 17)


def test_ex_enhanced_examples():
    enhanced = GraphSpec(4, 2)
    assert ex(enhanced, 8) == ex_enhanced(4, 8) == 32
    assert ex(enhanced, 4) == ex_enhanced(4, 4) == 8
    assert ex(GraphSpec(5, 2), 6) == ex_enhanced(5, 6) == 14
    with pytest.raises(DomainError):
        ex(enhanced, 0)
    with pytest.raises(DomainError):
        ex(enhanced, 17)
    with pytest.raises(DomainError):
        GraphSpec(2, 2)


@pytest.mark.parametrize("n", range(3, 10))
def test_ex_enhanced_matches_piecewise_definition(n):
    # the references share no code with ex: Hart's identity for Q_n, and
    # the four-range piecewise credit on top of it for Q_{n,2}
    plain = GraphSpec(n)
    enhanced = GraphSpec(n, 2)
    for m in range(1, (1 << n) + 1):
        assert ex(plain, m) == ex_hypercube(n, m)
        assert ex(enhanced, m) == ex_enhanced(n, m)


def test_hart_count_matches_hart_identity():
    # neither reference depends on n beyond its range check, so n = 12
    # covers every m <= 2^n for every n <= 12
    for m in range(1, (1 << 12) + 1):
        assert hart_count(12, m) == ex_hypercube(12, m)
    assert [hart_count(n, 1 << n) for n in range(13)] == [n << n for n in range(13)]


@pytest.mark.parametrize("n", range(10, 63))
def test_ex_matches_hart_count_at_large_n(n):
    # both halves of [1, 2^n], the range ends and the four ranges' ends
    half, quarter = 1 << (n - 1), 1 << (n - 2)
    rng = random.Random(n)
    ms = [rng.randint(1, half) for _ in range(40)] + [rng.randint(half + 1, 2 * half) for _ in range(40)]
    for end in (quarter, half, half + quarter):
        ms += [end - 1, end, end + 1]
    for m in ms + [2 * half - 1, 2 * half]:
        hart = hart_count(n, m)
        assert ex(GraphSpec(n), m) == hart, m
        assert ex(GraphSpec(n, 2), m) == hart + complementary_credit(n, m), m


@pytest.mark.parametrize("n", range(3, 11))
def test_closed_forms_match_graph_counts(n):
    plain = GraphSpec(n)
    enhanced = GraphSpec(n, 2)
    for m in range(1, (1 << (n - 1)) + 1):
        segment = lexicographic_set(n, m)
        assert ex(plain, m) == induced_double_edge_count(plain, segment)
        assert ex(enhanced, m) == induced_double_edge_count(enhanced, segment)


def test_ex_enhanced_upper_range_matches_graph_counts():
    # ex is defined beyond half the vertices even though xi is not: every
    # m in (2^(n-1), 2^n], on both families, against the segment counted
    # vertex by vertex
    for n in range(3, 9):
        for spec in (GraphSpec(n), GraphSpec(n, 2)):
            for m in range(spec.half + 1, spec.num_vertices + 1):
                segment = lexicographic_set(n, m)
                assert ex(spec, m) == graph_reference.induced_double_edges(spec, segment)


def test_refusal_order():
    # every closed form checks its ranges first and then refuses a family
    # without a closed form, on the way to its first value
    folded = GraphSpec(5, 1)
    ranges = [
        (ex, 0, r"m=0 outside \[1, 32\]"),
        (ex, 33, r"m=33 outside \[1, 32\]"),
        (ex, True, r"m=True is not an int"),
        (xi, 0, r"m=0 outside \[1, 16\]"),
        (xi, 17, r"m=17 outside \[1, 16\]"),
        (lambda_at, 0, r"h=0 outside \[1, 16\]"),
        (lambda_at, 17, r"h=17 outside \[1, 16\]"),
    ]
    for function, value, message in ranges:
        with pytest.raises(DomainError, match=f"^{message}$"):
            function(folded, value)
    for function, value in ((ex, 3), (ex, 32), (xi, 3), (xi, 16), (lambda_at, 3)):
        with pytest.raises(DomainError, match="no closed form"):
            function(folded, value)
    with pytest.raises(ResourceLimitError, match=r"^profiles .* up to n=26, got n=27$"):
        lambda_profile(GraphSpec(27, 1))
    with pytest.raises(DomainError, match="no closed form"):
        lambda_profile(folded)


def test_xi_values():
    assert xi(GraphSpec(5, 2), 6) == 22
    assert xi(GraphSpec(4, 2), 8) == 8
    assert xi(GraphSpec(9, 2), 256) == 256
    assert xi(GraphSpec(4), 8) == 8


def test_xi_rejects_above_half():
    with pytest.raises(DomainError):
        xi(GraphSpec(5, 2), 17)
    with pytest.raises(DomainError):
        xi(GraphSpec(5, 2), 0)


def test_xi_at_half_is_half():
    # at m = 2^(n-1) the complementary edges add exactly 2^(n-1) to ex
    for n in range(3, 63):
        half = 1 << (n - 1)
        assert ex(GraphSpec(n), half) == (n - 1) * half
        assert ex(GraphSpec(n, 2), half) == n * half
        assert xi(GraphSpec(n, 2), half) == half


def test_family_validation():
    with pytest.raises(DomainError):
        GraphSpec(2, 2)
    assert GraphSpec(6).degree == 6
    assert GraphSpec(6, 2).degree == 7


@pytest.mark.parametrize("n", range(4, 13))
def test_superadditivity_full_sweep(n):
    # ex_{m0+m1} >= ex_{m0} + ex_{m1} + 2*m0 for m0 <= m1
    import numpy as np

    table = ex_table(n)
    top = 1 << n
    for m0 in range(1, top // 2 + 1):
        m1 = np.arange(m0, top - m0 + 1)
        assert (table[m0 + m1] >= table[m0] + table[m1] + 2 * m0).all()


def test_superadditivity_random_large_n():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(13, 30)
        m0 = rng.randint(1, (1 << n) // 2)
        m1 = rng.randint(m0, (1 << n) - m0)
        plain = GraphSpec(n)
        assert ex(plain, m0 + m1) >= ex(plain, m0) + ex(plain, m1) + 2 * m0


def test_split_identity_examples():
    check = split_identity_check(6, 12, 0)
    assert (check.m1, check.m2) == (8, 4)
    assert check.lhs == check.rhs_statement == check.rhs_proof
    assert check.lhs == ex(GraphSpec(6, 2), 8) + ex(GraphSpec(6, 2), 4) + 8

    # upper range: the two candidate corrections split apart
    check = split_identity_check(5, 12, 0)
    assert check.lhs == check.rhs_proof
    assert check.rhs_statement == check.lhs + 2 * (check.m1 - check.m2)


def test_split_identity_rejects_unsplittable():
    with pytest.raises(DomainError):
        split_identity_check(4, 8, 0)
    with pytest.raises(DomainError):
        split_identity_check(6, 12, 1)
    with pytest.raises(DomainError):
        split_identity_check(6, 12, -1)


@pytest.mark.parametrize("n", range(4, 13))
def test_split_identity_full_sweep(n):
    for m in range(3, (1 << (n - 1)) + 1):
        s = len(binary_decomposition(m)) - 1
        for a in range(s):
            check = split_identity_check(n, m, a)
            if m <= 1 << (n - 2):
                assert check.lhs == check.rhs_statement == check.rhs_proof
            else:
                assert check.lhs == check.rhs_proof
                assert check.rhs_statement > check.lhs


def test_ex_upper_bound_examples():
    assert ex_upper_bound_check(6, 3, 8)
    assert ex_upper_bound_check(5, 0, 1)
    assert all(ex_upper_bound_check(9, 8, m) for m in range(1, 257))


@pytest.mark.parametrize("n", range(3, 13))
def test_ex_upper_bound_full_sweep(n):
    for t in range(0, n + 1):
        for m in range(1, (1 << t) + 1):
            assert ex_upper_bound_check(n, t, m)


@pytest.mark.parametrize("n", range(4, 13))
def test_monotone_floor_at_powers(n):
    # xi_m >= xi_{2^c} whenever 2^c <= m <= 2^(n-1), for c up to n-3; the
    # c = n-3 floor is 4*2^(n-3) = 2^(n-1), the constant of the whole
    # concentration interval
    family = GraphSpec(n, 2)
    values = [xi(family, m) for m in range(1, family.half + 1)]
    for c in range(0, n - 2):
        floor = values[(1 << c) - 1]
        assert all(v >= floor for v in values[(1 << c) - 1 :])
    assert values[(1 << (n - 3)) - 1] == 1 << (n - 1)


@pytest.mark.parametrize("n", range(4, 13))
def test_monotone_floor_breaks_at_second_highest_power(n):
    # the floor property cannot extend to c = n-2: the quarter point has
    # boundary 3*2^(n-2), above the 2^(n-1) value at the half point
    family = GraphSpec(n, 2)
    assert xi(family, 1 << (n - 2)) == 3 * (1 << (n - 2))
    assert xi(family, family.half) == family.half < 3 * (1 << (n - 2))
