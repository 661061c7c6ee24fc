import random
from fractions import Fraction

import pytest

import extraconn.concentration
from extraconn import (
    DomainError,
    GraphSpec,
    ResourceLimitError,
    VerificationError,
    breakpoints,
    concentration_report,
    h_min,
    lambda_at,
    lambda_profile,
    ratio_table,
    table2_breakpoints,
    xi,
)


def test_profile_small_values():
    profile = lambda_profile(GraphSpec(4, 2))
    assert profile.lambda_values == (5, 8, 8, 8, 8, 8, 8, 8)
    profile5 = lambda_profile(GraphSpec(5, 2))
    assert profile5.xi_values[:4] == (6, 10, 14, 16)
    profile9 = lambda_profile(GraphSpec(9, 2))
    assert profile9.lambda_at(58) == 254


@pytest.mark.parametrize("n", range(3, 13))
def test_suffix_minimum_recurrence(n):
    profile = lambda_profile(GraphSpec(n, 2))
    half = profile.half
    assert profile.lambda_values[half - 1] == profile.xi_values[half - 1]
    for h in range(1, half):
        assert profile.lambda_at(h) == min(profile.xi_at(h), profile.lambda_at(h + 1))
        assert profile.lambda_at(h) <= profile.xi_at(h)


def test_profile_index_bounds():
    profile = lambda_profile(GraphSpec(4, 2))
    with pytest.raises(DomainError):
        profile.xi_at(0)
    with pytest.raises(DomainError):
        profile.lambda_at(9)


def test_profile_rejects_huge_dimension():
    with pytest.raises(ResourceLimitError):
        lambda_profile(GraphSpec(27, 2))


def test_lambda_at_examples():
    assert lambda_at(GraphSpec(7, 2), 16) == 64
    assert lambda_at(GraphSpec(9, 2), 256) == 256
    assert lambda_at(GraphSpec(5, 2), 4) == 16
    with pytest.raises(DomainError):
        lambda_at(GraphSpec(5, 2), 17)


def test_lambda_at_scan_is_bounded_like_a_profile():
    # a scan longer than the largest profile (2^25 values) is refused at once
    with pytest.raises(ResourceLimitError):
        lambda_at(GraphSpec(40, 2), 1)
    with pytest.raises(ResourceLimitError):
        lambda_at(GraphSpec(27, 2), 1 << 25)  # 2^26 - 2^25 + 1 values
    # h near the top still answers, however large n is
    assert lambda_at(GraphSpec(40, 2), 1 << 39) == 1 << 39
    top = GraphSpec(62)
    assert lambda_at(top, top.half - 3) == min(xi(top, m) for m in range(top.half - 3, top.half + 1))


def test_suffix_minima_matches_loop():
    rng = random.Random(5)
    for length in (1, 2, 7, 100):
        values = [rng.randint(-20, 20) for _ in range(length)]
        expected = list(values)
        for i in range(len(expected) - 2, -1, -1):
            if expected[i + 1] < expected[i]:
                expected[i] = expected[i + 1]
        assert extraconn.concentration.suffix_minima(values) == tuple(expected)


@pytest.mark.parametrize("n", range(3, 15))
def test_lambda_at_matches_profile(n):
    family = GraphSpec(n, 2)
    profile = lambda_profile(family)
    rng = random.Random(n)
    candidates = range(1, family.half + 1)
    sample = candidates if family.half <= 64 else rng.sample(candidates, 64)
    for h in sample:
        assert lambda_at(family, h) == profile.lambda_at(h)


def test_h_min_values():
    assert h_min(9) == 59
    assert h_min(8) == 30
    assert h_min(18) == 30038
    with pytest.raises(DomainError):
        h_min(3)
    with pytest.raises(DomainError):
        h_min(63)


def test_breakpoints_tables():
    assert breakpoints(9).values == (59, 60, 64, 256)
    assert breakpoints(10).values == (118, 120, 128, 512)
    assert breakpoints(11).values[0] == 235 == h_min(11)
    assert breakpoints(9).f == 1
    assert breakpoints(10).f == 0
    with pytest.raises(DomainError):
        breakpoints(8)
    assert breakpoints(62).values[-1] == 1 << 61
    with pytest.raises(DomainError):
        breakpoints(63)


@pytest.mark.parametrize("n", range(9, 41))
def test_breakpoints_shape(n):
    points = breakpoints(n).values
    assert len(points) == (n + 1) // 2 - 1
    assert all(a < b for a, b in zip(points, points[1:]))
    assert points[0] == h_min(n)
    assert points[-1] == 1 << (n - 1)


def test_table2_breakpoints():
    assert table2_breakpoints(4).values == (1,)
    assert table2_breakpoints(5).values == (4, 16)
    assert table2_breakpoints(6).values == (8, 32)
    assert table2_breakpoints(7).values == (15, 16, 64)
    assert table2_breakpoints(8).values == (30, 32, 128)
    with pytest.raises(DomainError):
        table2_breakpoints(3)
    with pytest.raises(DomainError):
        table2_breakpoints(9)


@pytest.mark.parametrize("n", range(9, 15))
def test_breakpoints_hit_the_constant(n):
    family = GraphSpec(n, 2)
    for value in breakpoints(n).values:
        assert xi(family, value) == 1 << (n - 1)


@pytest.mark.parametrize("n", range(9, 15))
def test_strictly_above_constant_off_breakpoints(n):
    family = GraphSpec(n, 2)
    half = 1 << (n - 1)
    points = set(breakpoints(n).values)
    for m in range(h_min(n), half + 1):
        if m in points:
            continue
        assert xi(family, m) > half


def test_concentration_report_n9():
    report = concentration_report(9)
    assert (report.h_min, report.h_max) == (59, 256)
    assert report.constant == 256
    assert report.optimal_h == (59, 60, 64, 256)
    assert report.lambda_below == 254
    assert report.gap == 2


def test_concentration_report_n10():
    report = concentration_report(10)
    assert (report.h_min, report.h_max) == (118, 512)
    assert report.constant == 512
    assert report.optimal_h == (118, 120, 128, 512)
    assert report.lambda_below == 511
    assert report.gap == 1


def test_concentration_report_n12_optimal_count():
    assert len(concentration_report(12).optimal_h) == 5
    assert concentration_report(12).constant == 2048


def test_concentration_report_rejects_small_n():
    with pytest.raises(DomainError):
        concentration_report(8)


def test_concentration_report_raises_on_bad_values(monkeypatch):
    # force a wrong xi into the interval to prove failures surface as
    # errors, not booleans
    real_xi = extraconn.concentration.xi

    def skewed(family, m):
        return 200 if m == 100 else real_xi(family, m)

    monkeypatch.setattr(extraconn.concentration, "xi", skewed)
    with pytest.raises(VerificationError) as info:
        concentration_report(9)
    assert info.value.h is not None


@pytest.mark.parametrize("n", range(9, 21))
def test_tightness_gap_below_interval(n):
    # xi drops by 1 (even n) or 2 (odd n) one step below the interval
    family = GraphSpec(n, 2)
    lo = h_min(n)
    gap = 2 if n % 2 else 1
    assert xi(family, lo) - xi(family, lo - 1) == gap
    assert lambda_at(family, lo - 1) == (1 << (n - 1)) - gap


def test_ratio_rows():
    row4 = ratio_table(4, 4)[0]
    assert (row4.g, row4.display) == (7, "87.500000")
    assert row4.ratio == Fraction(7, 8)
    row18 = ratio_table(18, 18)[0]
    assert (row18.g, row18.display) == (101035, "77.083587")
    row28 = ratio_table(28, 28)[0]
    assert (row28.g, row28.display) == (103459499, "77.083333")
    with pytest.raises(DomainError):
        ratio_table(3, 10)
    with pytest.raises(DomainError):
        ratio_table(10, 63)


@pytest.mark.parametrize("n", range(4, 13))
def test_g_counts_constant_lambda_entries(n):
    profile = lambda_profile(GraphSpec(n, 2))
    half = 1 << (n - 1)
    count = sum(1 for value in profile.lambda_values if value == half)
    assert count == ratio_table(n, n)[0].g


def test_ratio_converges_to_37_48ths():
    target = Fraction(37, 48)
    for row in ratio_table(9, 62):
        assert abs(row.ratio - target) < Fraction(1, 1 << (row.n - 7))
