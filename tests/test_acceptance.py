"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with pytest -s) and enforces
its stated runtime budget on top of exact value equality.
"""

import contextlib
import csv
import random
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from extremal_reference import (
    binary_decomposition,
    ex_table,
    ex_upper_bound_check,
    split_identity_check,
)
from graph_reference import edge_count, lexicographic_set, neighbors

from extraconn import (
    GraphSpec,
    boundary_size,
    breakpoints,
    concentration_report,
    ex,
    h_min,
    induced_double_edge_count,
    is_connected_subset,
    lambda_profile,
    ratio_table,
    sample_cuts,
    xi,
    xi_bruteforce_sweep,
)
from extraconn.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


@pytest.fixture(scope="module")
def q52_sweep():
    """The one expensive search: exact minima for Q_{5,2}, every m up to 16."""
    start = time.monotonic()
    results = xi_bruteforce_sweep(GraphSpec(5, 2), 16)
    return results, time.monotonic() - start


def test_criterion_1_profile_tables(tmp_path):
    with criterion(1, "profile tables n=4..9"):
        start = time.monotonic()
        runner = CliRunner()
        for n in range(4, 10):
            out = tmp_path / f"profile_q{n}2.csv"
            result = runner.invoke(
                cli_main, ["profile", "--n", str(n), "--family", "q2", "--out", str(out)]
            )
            assert result.exit_code == 0
            assert out.read_text() == (FIXTURES / f"profile_q{n}2.csv").read_text()
        # spot anchors straight from the checked-in fixture
        lines = (FIXTURES / "profile_q92.csv").read_text().splitlines()
        rows = {int(r["h"]): r for r in csv.DictReader(lines)}
        assert int(rows[127]["xi"]) == 388
        assert int(rows[58]["lambda"]) == 254
        assert time.monotonic() - start < 1.0


def test_criterion_2_breakpoint_tables():
    with criterion(2, "breakpoint tables"):
        start = time.monotonic()
        assert breakpoints(9).values == (59, 60, 64, 256)
        assert breakpoints(10).values == (118, 120, 128, 512)
        expected_small = {4: (1,), 5: (4, 16), 6: (8, 32), 7: (15, 16, 64), 8: (30, 32, 128)}
        for n, values in expected_small.items():
            assert breakpoints(n).values == values
        assert time.monotonic() - start < 1.0


def test_criterion_3_concentration_interval():
    with criterion(3, "concentration interval n=9..16"):
        start = time.monotonic()
        for n in range(9, 17):
            report = concentration_report(n)
            half = 1 << (n - 1)
            assert report.h_min == h_min(n)
            assert report.h_max == half
            assert report.constant == half
            assert report.optimal_h == breakpoints(n).values
            expected_gap = 2 if n % 2 else 1
            assert report.gap == expected_gap
            assert report.lambda_below == half - expected_gap
        assert time.monotonic() - start < 10.0


# transcribed reference rows: n -> (g, percentage as printed)
REFERENCE_RATIOS = {
    4: (7, "87.5"),
    5: (13, "81.25"),
    6: (25, "78.125"),
    7: (50, "78.125"),
    8: (99, "77.34375"),
    9: (198, "77.34375"),
    10: (395, "77.148437"),
    11: (790, "77.148437"),
    12: (1579, "77.099609"),
    13: (3158, "77.099609"),
    14: (6315, "77.087402"),
    15: (12630, "77.087402"),
    16: (25259, "77.084350"),
    17: (50518, "77.084350"),
    18: (101035, "77.083587"),
    19: (202070, "77.083587"),
    20: (404139, "77.083396"),
    21: (808278, "77.083396"),
    22: (1616555, "77.083349"),
    23: (3233110, "77.083349"),
    24: (6466219, "77.083337"),
    25: (12932438, "77.083337"),
    26: (25864875, "77.083334"),
    27: (51729750, "77.083334"),
    28: (103459499, "77.083333"),
    29: (206918998, "77.083333"),
    30: (413837995, "77.083333"),
    31: (827675990, "77.083333"),
}


def _trim(display):
    trimmed = display.rstrip("0")
    return trimmed[:-1] if trimmed.endswith(".") else trimmed


def test_criterion_4_ratio_table():
    with criterion(4, "ratio table n=4..31"):
        start = time.monotonic()
        rows = ratio_table(4, 31)
        assert len(rows) == 28
        for row in rows:
            g_ref, percent_ref = REFERENCE_RATIOS[row.n]
            assert row.g == g_ref
            assert _trim(row.display) == _trim(percent_ref)
        assert time.monotonic() - start < 1.0


def test_criterion_5_oracle_equivalence(q52_sweep):
    with criterion(5, "oracle equivalence n=4,5"):
        start4 = time.monotonic()
        results4 = xi_bruteforce_sweep(GraphSpec(4, 2), 8)
        family4 = GraphSpec(4, 2)
        for result in results4:
            assert result.xi_exact == xi(family4, result.m)
        # exact lambda: suffix minima of the exact xi values
        exact4 = [r.xi_exact for r in results4]
        profile4 = lambda_profile(family4)
        for h in range(1, 9):
            assert min(exact4[h - 1 :]) == profile4.lambda_at(h)
        elapsed4 = time.monotonic() - start4
        assert elapsed4 < 1.0

        results5, elapsed5 = q52_sweep
        family5 = GraphSpec(5, 2)
        assert [r.xi_exact for r in results5] == [xi(family5, m) for m in range(1, 17)]
        # exact lambda: suffix minima of the exact xi values
        suffix = [r.xi_exact for r in results5]
        for i in range(14, -1, -1):
            suffix[i] = min(suffix[i], suffix[i + 1])
        profile5 = lambda_profile(family5)
        assert suffix == [profile5.lambda_at(h) for h in range(1, 17)]
        assert elapsed5 < 600.0


def test_criterion_6_worked_examples():
    with criterion(6, "worked examples n=4"):
        spec = GraphSpec(4, 2)
        assert ex(spec, 4) == 8
        assert ex(spec, 8) == 32
        assert induced_double_edge_count(spec, lexicographic_set(4, 4)) == 8
        assert induced_double_edge_count(spec, lexicographic_set(4, 8)) == 32


def test_criterion_7_property_suites():
    with criterion(7, "property suites"):
        # superadditivity, full sweep through n=12
        for n in range(4, 13):
            table = ex_table(n)
            top = 1 << n
            for m0 in range(1, top // 2 + 1):
                m1 = np.arange(m0, top - m0 + 1)
                assert (table[m0 + m1] >= table[m0] + table[m1] + 2 * m0).all()

        # upper bounds ex_m(Q_n) <= t*m and ex_m(Q_{n,2}) <= (t+1)*m
        for n in range(3, 13):
            for t in range(n + 1):
                assert all(ex_upper_bound_check(n, t, m) for m in range(1, (1 << t) + 1))

        # split identity, full sweep over the lower range
        for n in range(4, 13):
            for m in range(3, (1 << (n - 2)) + 1):
                s = len(binary_decomposition(m)) - 1
                for a in range(s):
                    check = split_identity_check(n, m, a)
                    assert check.lhs == check.rhs_statement == check.rhs_proof

        # monotone floor at powers of two, on the range where it holds
        # (c = n-2 is refuted by the tabled values: the quarter point has
        # boundary 3*2^(n-2), above the 2^(n-1) top value)
        for n in range(4, 13):
            family = GraphSpec(n, 2)
            values = [xi(family, m) for m in range(1, family.half + 1)]
            for c in range(n - 2):
                floor = values[(1 << c) - 1]
                assert all(v >= floor for v in values[(1 << c) - 1 :])
            assert values[(1 << (n - 2)) - 1] == 3 * (1 << (n - 2))
            assert values[family.half - 1] == family.half

        # breakpoints hit the constant, everything between exceeds it
        for n in range(9, 15):
            family = GraphSpec(n, 2)
            half = 1 << (n - 1)
            points = set(breakpoints(n).values)
            for point in points:
                assert xi(family, point) == half
            for m in range(h_min(n), half + 1):
                if m not in points:
                    assert xi(family, m) > half

        # graph invariants: handshake, boundary symmetry, segment connectivity
        for n in range(3, 11):
            for k in (None, 2):
                spec = GraphSpec(n, k)
                assert (
                    sum(len(neighbors(spec, v)) for v in range(spec.num_vertices))
                    == 2 * edge_count(spec)
                )
        rng = random.Random(321)
        for _ in range(1000):
            n = rng.randint(3, 10)
            spec = GraphSpec(n, rng.choice([None, 2]))
            size = rng.randint(1, spec.num_vertices - 1)
            members = frozenset(rng.sample(range(spec.num_vertices), size))
            comp = frozenset(range(spec.num_vertices)) - members
            assert boundary_size(spec, members) == boundary_size(spec, comp)
        for n in range(3, 11):
            spec = GraphSpec(n, 2)
            everything = frozenset(range(spec.num_vertices))
            for m in range(1, spec.num_vertices // 2 + 1):
                segment = lexicographic_set(n, m)
                assert is_connected_subset(spec, segment)
                assert is_connected_subset(spec, everything - segment)


def test_criterion_8_sampled_cuts_lower_bound():
    with criterion(8, "sampled cuts lower bound"):
        start = time.monotonic()
        spec = GraphSpec(5, 2)
        family = GraphSpec(5, 2)
        bounds = {h: xi(family, h) for h in range(1, 17)}
        below = 0
        observed_h6 = set()
        emitted = 0
        for cut in sample_cuts(spec, 100_000, seed=2024):
            emitted += 1
            if cut.cut_size < bounds[cut.h]:
                below += 1
            if cut.h == 6:
                observed_h6.add(cut.cut_size)
        assert emitted > 99_000
        assert below == 0
        assert observed_h6
        assert observed_h6 <= {22, 24, 26, 28, 30, 32, 34}
        assert time.monotonic() - start < 30.0
