"""Suffix-minimum profiles, breakpoints, and the concentration report.

lambda_h is the minimum of xi_m over h <= m <= 2^(n-1): the smallest cut
whose removal leaves two connected components of at least h vertices each.
For Q_{n,2} with n >= 9 it is the constant 2^(n-1) on the whole interval
[ceil(11*2^(n-1)/48), 2^(n-1)]; the breakpoints m_{n,r} partition that
interval and are exactly the h values where lambda_h = xi_h.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import DomainError, ResourceLimitError, VerificationError
from .extremal import xi
from .graphs import MAX_DIMENSION, GraphSpec

MAX_PROFILE_DIMENSION = 26


@dataclass(frozen=True)
class XiProfile:
    """xi and lambda for every 1 <= m <= 2^(n-1) of one family."""

    family: GraphSpec
    xi_values: tuple[int, ...]
    lambda_values: tuple[int, ...]

    @property
    def half(self) -> int:
        return self.family.half

    def xi_at(self, m: int) -> int:
        if not 1 <= m <= self.half:
            raise DomainError(f"profile index m={m} outside [1, {self.half}]")
        return self.xi_values[m - 1]

    def lambda_at(self, h: int) -> int:
        if not 1 <= h <= self.half:
            raise DomainError(f"profile index h={h} outside [1, {self.half}]")
        return self.lambda_values[h - 1]

    def optimal_flags(self) -> tuple[bool, ...]:
        """flag[h-1] is True when lambda_h = xi_h."""
        return tuple(x == lam for x, lam in zip(self.xi_values, self.lambda_values))


def suffix_minima(values: Sequence[int]) -> tuple[int, ...]:
    """out[i] = min(values[i:]), the lambda sequence of a xi sequence."""
    return tuple(accumulate(reversed(values), min))[::-1]


def lambda_profile(family: GraphSpec) -> XiProfile:
    """Materialize xi_1..xi_{2^(n-1)} and their suffix minima in one sweep."""
    if family.n > MAX_PROFILE_DIMENSION:
        raise ResourceLimitError(
            f"profiles are materialized only up to n={MAX_PROFILE_DIMENSION}; "
            f"use lambda_at for point queries"
        )
    xs = tuple(xi(family, m) for m in range(1, family.half + 1))
    return XiProfile(family, xs, suffix_minima(xs))


def lambda_at(family: GraphSpec, h: int) -> int:
    """lambda_h = min xi_m over h <= m <= 2^(n-1), without storing the profile.

    Scans the half - h + 1 values of xi, at most as many as a profile holds.
    """
    if not 1 <= h <= family.half:
        raise DomainError(f"h={h} outside [1, 2^(n-1) = {family.half}]")
    scan = family.half - h + 1
    if scan > 1 << (MAX_PROFILE_DIMENSION - 1):
        raise ResourceLimitError(
            f"lambda_at scans at most 2^{MAX_PROFILE_DIMENSION - 1} values of xi; "
            f"h={h} needs {scan}"
        )
    return min(xi(family, m) for m in range(h, family.half + 1))


@dataclass(frozen=True)
class Breakpoints:
    """The subinterval endpoints m_{n,1} < ... < m_{n,ceil(n/2)-1}."""

    n: int
    f: int
    values: tuple[int, ...]


def h_min(n: int) -> int:
    """ceil(11 * 2^(n-1) / 48), the lower end of the constant-lambda interval."""
    if n < 4:
        raise DomainError(f"h_min needs n >= 4, got n={n}")
    return (11 * (1 << (n - 1)) + 47) // 48


def breakpoints(n: int) -> Breakpoints:
    """Breakpoint values for n >= 9, from the four-range definition.

    With f the parity flag of n and r running to ceil(n/2)-1: the early
    values add a three-term leading block, a geometric middle block and a
    single low power 2^(2r-1-f); the last three values are the fixed
    patterns summing four leading powers, 2^(n-3), and 2^(n-1).
    """
    if n < 9:
        raise DomainError(
            f"breakpoints(n) needs n >= 9, got n={n}; "
            f"dimensions 4..8 are enumerated by table2_breakpoints"
        )
    f = n & 1
    count = (n + 1) // 2 - 1
    values = []
    for r in range(1, count + 1):
        if r <= count - 3:
            lead = sum(1 << (n - 4 - i) for i in range(3))
            mid = sum(1 << (n - 8 - 2 * i) for i in range(count - 3 - r + 1))
            values.append(lead + mid + (1 << (2 * r - 1 - f)))
        elif r == count - 2:
            values.append(sum(1 << (n - 4 - i) for i in range(4)))
        elif r == count - 1:
            values.append(1 << (n - 3))
        else:
            values.append(1 << (n - 1))
    return Breakpoints(n, f, tuple(values))


# Small dimensions do not realize all four ranges of the general pattern;
# their breakpoint sequences are enumerated directly.
_SMALL_BREAKPOINTS = {
    4: (1,),
    5: (4, 16),
    6: (8, 32),
    7: (15, 16, 64),
    8: (30, 32, 128),
}


def table2_breakpoints(n: int) -> Breakpoints:
    """Enumerated breakpoint values for 4 <= n <= 8."""
    if n not in _SMALL_BREAKPOINTS:
        raise DomainError(f"table2_breakpoints covers 4 <= n <= 8, got n={n}")
    return Breakpoints(n, n & 1, _SMALL_BREAKPOINTS[n])


@dataclass(frozen=True)
class ConcentrationReport:
    """Verified summary of the constant-lambda interval of Q_{n,2}."""

    n: int
    h_min: int
    h_max: int
    constant: int
    breakpoints: tuple[int, ...]
    optimal_h: tuple[int, ...]
    lambda_below: int
    gap: int


def concentration_report(n: int) -> ConcentrationReport:
    """Check every claim about the constant-lambda interval and report it.

    Verifies lambda_h = 2^(n-1) across [h_min, 2^(n-1)], that the h values
    with lambda_h = xi_h inside the interval are exactly the breakpoints,
    and that lambda just below the interval drops by 1 (even n) or 2 (odd
    n). Any failure raises VerificationError carrying the offending h; that
    signals an implementation bug, never a property of the graphs.
    """
    if n < 9:
        raise DomainError(
            f"concentration_report needs n >= 9, got n={n}; "
            f"dimensions 4..8 are enumerated by table2_breakpoints"
        )
    family = GraphSpec(n, 2)
    profile = lambda_profile(family)
    lo = h_min(n)
    half = family.half
    constant = half
    for h in range(lo, half + 1):
        if profile.lambda_at(h) != constant:
            raise VerificationError(
                f"lambda_{h}(Q_{{{n},2}}) = {profile.lambda_at(h)}, expected {constant}", h=h
            )
    optimal = tuple(
        h for h in range(lo, half + 1) if profile.xi_at(h) == profile.lambda_at(h)
    )
    expected = breakpoints(n).values
    if optimal != expected:
        extra = set(optimal) ^ set(expected)
        bad = min(extra) if extra else lo
        raise VerificationError(
            f"optimal h set {optimal} differs from breakpoints {expected}", h=bad
        )
    lambda_below = profile.lambda_at(lo - 1)
    gap = 2 if n & 1 else 1
    if constant - lambda_below != gap:
        raise VerificationError(
            f"lambda_{lo - 1}(Q_{{{n},2}}) = {lambda_below}, expected {constant - gap}",
            h=lo - 1,
        )
    return ConcentrationReport(
        n=n,
        h_min=lo,
        h_max=half,
        constant=constant,
        breakpoints=expected,
        optimal_h=optimal,
        lambda_below=lambda_below,
        gap=gap,
    )


@dataclass(frozen=True)
class RatioRow:
    """Count g(n) of h with lambda_h = 2^(n-1), and its share of [1, 2^(n-1)]."""

    n: int
    g: int
    ratio: Fraction
    display: str


def _truncated_percent(g: int, half: int) -> str:
    """Percentage truncated toward zero at six fractional digits."""
    scaled = g * 100 * 10**6 // half
    return f"{scaled // 10**6}.{scaled % 10**6:06d}"


def ratio_table(n_min: int, n_max: int) -> list[RatioRow]:
    """Rows (n, g, g/2^(n-1)) for n_min <= n <= n_max.

    g(n) = 2^(n-1) - ceil(11*2^(n-1)/48) + 1; the exact rational ratio
    converges to 37/48 from above as n grows.
    """
    if not 4 <= n_min <= n_max <= MAX_DIMENSION:
        raise DomainError(
            f"ratio_table needs 4 <= n_min <= n_max <= {MAX_DIMENSION}, got [{n_min}, {n_max}]"
        )
    rows = []
    for n in range(n_min, n_max + 1):
        half = 1 << (n - 1)
        g = half - h_min(n) + 1
        rows.append(RatioRow(n, g, Fraction(g, half), _truncated_percent(g, half)))
    return rows
