import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

import extraconn.concentration
import extraconn.extremal
from extraconn import (
    ConcentrationReport,
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
    xi,
)


def test_profile_small_values():
    profile = lambda_profile(GraphSpec(4, 2))
    assert profile.lambda_values.tolist() == [5, 8, 8, 8, 8, 8, 8, 8]
    profile5 = lambda_profile(GraphSpec(5, 2))
    assert profile5.xi_values[:4].tolist() == [6, 10, 14, 16]
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


@pytest.mark.parametrize("k", [None, 2])
def test_profile_fields_are_read_only_int64_arrays(k):
    profile = lambda_profile(GraphSpec(6, k))
    for values in (profile.xi_values, profile.lambda_values):
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.int64
        assert values.shape == (32,)
        with pytest.raises(ValueError):
            values[0] = 1
    assert profile.xi_values[0] == 6 + (k is not None)
    assert type(profile.xi_at(3)) is int
    assert type(profile.lambda_at(3)) is int


def _lambda_loop(values):
    """The former suffix_minima: accumulate min over the reversed values."""
    return list(accumulate(reversed(values), min))[::-1]


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 17) for k in (None, 2) if k is None or n >= 3])
def test_profile_matches_scalar_closed_form(n, k):
    family = GraphSpec(n, k)
    profile = lambda_profile(family)
    values = [xi(family, m) for m in range(1, family.half + 1)]
    assert profile.xi_values.tolist() == values
    assert profile.lambda_values.tolist() == _lambda_loop(values)


@pytest.mark.parametrize("k", [None, 2])
@pytest.mark.parametrize("n", [20, 22])
def test_profile_matches_scalar_closed_form_sampled(n, k):
    family = GraphSpec(n, k)
    half = family.half
    profile = lambda_profile(family)
    table = extraconn.extremal._xi_profile(family)
    assert table[0] == 0
    edges = [1, half >> 1, (half >> 1) + 1, half - 1, half]
    rng = random.Random(n * 5 + (k or 0))
    for m in edges + [rng.randint(1, half) for _ in range(1000)]:
        assert profile.xi_at(m) == xi(family, m), m
        assert int(table[m]) == xi(family, m), m
    for h in edges:
        assert profile.lambda_at(h) == lambda_at(family, h), h


@pytest.mark.parametrize("k", [None, 2])
def test_profile_peak_memory(k):
    # the two result arrays plus at most 0.6 of one more for temporaries
    family = GraphSpec(22, k)
    lambda_profile(GraphSpec(4, k))  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        profile = lambda_profile(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile.xi_at(family.half) == family.half
    assert peak <= 2.6 * 8 * (family.half + 1)


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


def test_lambda_at_answers_every_dimension():
    # lambda_1 is the degree; no h is refused, however long its range
    assert lambda_at(GraphSpec(40, 2), 1) == 41
    assert lambda_at(GraphSpec(40), 1) == 40
    assert lambda_at(GraphSpec(62, 2), 1) == 63
    # h near the top answers by the old scan too, however large n is
    assert lambda_at(GraphSpec(40, 2), 1 << 39) == 1 << 39
    top = GraphSpec(62)
    assert lambda_at(top, top.half - 3) == min(xi(top, m) for m in range(top.half - 3, top.half + 1))


def test_free_minima_table_is_cached_and_immutable():
    # every interval query of a family reads one table per slope; tuples, so
    # no caller can change what later queries read
    free_minima = extraconn.extremal._free_minima
    weight = extraconn.extremal._weight
    assert free_minima(19, 18) is free_minima(19, 18)
    a, bits = 7, 6
    g = free_minima(a, bits)
    assert type(g) is tuple and all(type(row) is tuple for row in g)
    # g[j][c]: the least weight over every choice of the free bits 0..j-1
    # below c set bits, each chosen bit t weighed below the chosen bits above it
    for j in range(bits + 1):
        for c in range(len(g[j])):
            least = min(
                sum(
                    weight(a, t, c + (low >> (t + 1)).bit_count())
                    for t in range(j)
                    if low >> t & 1
                )
                for low in range(1 << j)
            )
            assert g[j][c] == least, (j, c)


def _xi_values(family):
    return [xi(family, m) for m in range(1, family.half + 1)]


def _scan(xi_values, h):
    """The former lambda_at: min xi_m over h <= m <= 2^(n-1), one value at a time."""
    return min(xi_values[h - 1 :])


@pytest.mark.parametrize("k", [None, 2])
@pytest.mark.parametrize("n", range(3, 13))
def test_lambda_at_matches_scan_every_h(n, k):
    family = GraphSpec(n, k)
    values = _xi_values(family)
    for h in range(1, family.half + 1):
        assert lambda_at(family, h) == _scan(values, h), h


@pytest.mark.parametrize("k", [None, 2])
@pytest.mark.parametrize("n", range(13, 19))
def test_lambda_at_matches_scan_sampled(n, k):
    family = GraphSpec(n, k)
    half, quarter = family.half, family.half >> 1
    values = _xi_values(family)
    hs = {1, quarter - 1, quarter, quarter + 1, half - 1, half}
    hs |= {(1 << i) + d for i in range(n) for d in (-1, 0, 1)}
    rng = random.Random(n * 3 + (k or 0))
    hs |= {rng.randint(1, half) for _ in range(32)}
    for h in sorted(h for h in hs if 1 <= h <= half):
        assert lambda_at(family, h) == _scan(values, h), h


def test_suffix_minima_matches_loop():
    rng = random.Random(5)
    for length in (1, 2, 7, 100):
        values = [rng.randint(-20, 20) for _ in range(length)]
        expected = list(values)
        for i in range(len(expected) - 2, -1, -1):
            if expected[i + 1] < expected[i]:
                expected[i] = expected[i + 1]
        assert extraconn.concentration.suffix_minima(values).tolist() == expected


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
        breakpoints(3)
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
    # n = 4..8 do not realize the general pattern; breakpoints reads a table
    assert breakpoints(4).values == (1,)
    assert breakpoints(5).values == (4, 16)
    assert breakpoints(6).values == (8, 32)
    assert breakpoints(7).values == (15, 16, 64)
    assert breakpoints(8).values == (30, 32, 128)
    assert [breakpoints(n).f for n in range(4, 9)] == [0, 1, 0, 1, 0]
    with pytest.raises(DomainError):
        breakpoints(3)


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


@pytest.mark.parametrize("k", [None, 2])
@pytest.mark.parametrize("n", range(3, 11))
def test_interval_helpers_match_scan(n, k):
    # any interval, not only [h, 2^(n-1)], where 2^(n-1) alone attains the minimum
    family = GraphSpec(n, k)
    values = _xi_values(family)
    rng = random.Random(n * 5 + (k or 0))
    for _ in range(40):
        lo, hi = sorted(rng.randint(1, family.half) for _ in range(2))
        low = min(values[lo - 1 : hi])
        assert extraconn.extremal._interval_min(family, lo, hi) == low, (lo, hi)
        at = tuple(m for m in range(lo, hi + 1) if values[m - 1] == low)
        assert extraconn.extremal._minimizers(family, lo, hi, low) == at, (lo, hi)


def test_concentration_report_raises_on_bad_values(monkeypatch):
    # force a wrong minimum into the interval to prove failures surface as
    # errors, not booleans
    real_min = extraconn.concentration._interval_min

    def skewed(family, lo, hi):
        value = real_min(family, lo, hi)
        return value - 1 if (family, lo, hi) == (GraphSpec(9, 2), 59, 256) else value

    monkeypatch.setattr(extraconn.concentration, "_interval_min", skewed)
    with pytest.raises(VerificationError) as info:
        concentration_report(9)
    assert info.value.h == 59


def test_concentration_report_names_a_missing_breakpoint(monkeypatch):
    real = extraconn.concentration._minimizers
    dropped = breakpoints(12).values[1]

    def missing_one(*args):
        return tuple(m for m in real(*args) if m != dropped)

    monkeypatch.setattr(extraconn.concentration, "_minimizers", missing_one)
    with pytest.raises(VerificationError, match="differs from breakpoints") as info:
        concentration_report(12)
    assert info.value.h == dropped


@pytest.mark.parametrize("n", [11, 12])
def test_concentration_report_names_a_wrong_gap_below(monkeypatch, n):
    real = extraconn.concentration.lambda_at
    below = h_min(n) - 1

    def skewed(family, h):
        value = real(family, h)
        return value - 1 if h == below else value

    monkeypatch.setattr(extraconn.concentration, "lambda_at", skewed)
    with pytest.raises(VerificationError, match=f"lambda_{below}") as info:
        concentration_report(n)
    assert info.value.h == below


def _profile_report(n):
    """The former concentration_report, read off a full profile."""
    family = GraphSpec(n, 2)
    profile = lambda_profile(family)
    lo, half = h_min(n), family.half
    assert all(profile.lambda_at(h) == half for h in range(lo, half + 1))
    optimal = tuple(h for h in range(lo, half + 1) if profile.xi_at(h) == profile.lambda_at(h))
    assert optimal == breakpoints(n).values
    gap = 2 if n & 1 else 1
    assert half - profile.lambda_at(lo - 1) == gap
    return ConcentrationReport(
        n=n,
        h_min=lo,
        h_max=half,
        constant=half,
        breakpoints=breakpoints(n).values,
        optimal_h=optimal,
        lambda_below=profile.lambda_at(lo - 1),
        gap=gap,
    )


@pytest.mark.parametrize("n", range(9, 19))
def test_concentration_report_matches_profile(n):
    assert concentration_report(n) == _profile_report(n)


@pytest.mark.parametrize("n", range(19, 63))
def test_concentration_report_beyond_profiles(n):
    report = concentration_report(n)
    gap = 2 if n & 1 else 1
    assert report.optimal_h == breakpoints(n).values
    assert report.h_min == h_min(n)
    assert report.lambda_below == (1 << (n - 1)) - gap


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
