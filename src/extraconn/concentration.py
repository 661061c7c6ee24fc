"""lambda profiles and point queries, breakpoints, and the concentration report.

lambda_h is the minimum of xi_m over h <= m <= 2^(n-1): the smallest cut
whose removal leaves two connected components of at least h vertices each.
For Q_{n,2} with n >= 9 it is the constant 2^(n-1) on the whole interval
[ceil(11*2^(n-1)/48), 2^(n-1)]; the breakpoints m_{n,r} partition that
interval and are exactly the h values where lambda_h = xi_h. breakpoints
answers 4 <= n <= 62, by one formula except at n = 4; the concentration
report takes 9 <= n <= 62.

Only Q_n and Q_{n,2} have a closed form; lambda_profile and lambda_at
refuse any other family in extremal._runs, after their range checks and
before any work. A profile (n <= 26) fills every xi_m into one int64 array
by xi's own dyadic block doublings and takes lambda as its suffix minima. A
point query and the concentration report ask extremal for the minimum of xi
over an interval and for its argmins, in O(n^2) steps for any n <= 62.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    MAX_DIMENSION,
    MAX_PROFILE_DIMENSION,
    DomainError,
    ResourceLimitError,
    VerificationError,
)
from .extremal import _interval_min, _minimizers, _xi_profile
from .graphs import GraphSpec


@dataclass(frozen=True, eq=False)
class XiProfile:
    """xi and lambda for every 1 <= m <= 2^(n-1) of one family, as read-only int64 arrays."""

    family: GraphSpec
    xi_values: np.ndarray
    lambda_values: np.ndarray

    @property
    def half(self) -> int:
        return self.family.half

    def xi_at(self, m: int) -> int:
        DomainError.require(m, 1, self.half, "m")
        return int(self.xi_values[m - 1])

    def lambda_at(self, h: int) -> int:
        DomainError.require(h, 1, self.half, "h")
        return int(self.lambda_values[h - 1])


def suffix_minima(values) -> np.ndarray:
    """out[i] = min(values[i:]), the lambda sequence of a xi sequence."""
    return np.minimum.accumulate(values[::-1])[::-1]


def lambda_profile(family: GraphSpec) -> XiProfile:
    """Materialize xi_1..xi_{2^(n-1)} and their suffix minima as arrays (n <= 26;
    lambda_at answers a single h for any n)."""
    if family.n > MAX_PROFILE_DIMENSION:
        raise ResourceLimitError(
            f"profiles are materialized only up to n={MAX_PROFILE_DIMENSION}, got n={family.n}"
        )
    xs = _xi_profile(family)[1:]
    lambdas = suffix_minima(xs)
    xs.flags.writeable = lambdas.flags.writeable = False
    return XiProfile(family, xs, lambdas)


def lambda_at(family: GraphSpec, h: int) -> int:
    """lambda_h = min xi_m over h <= m <= 2^(n-1), in O(n^2) for any n <= 62,
    read off O(n) aligned dyadic blocks by extremal._interval_min."""
    DomainError.require(h, 1, family.half, "h")
    return _interval_min(family, h, family.half)


@dataclass(frozen=True)
class Breakpoints:
    """The subinterval endpoints m_{n,1} < ... < m_{n,ceil(n/2)-1}."""

    n: int
    f: int
    values: tuple[int, ...]


def h_min(n: int) -> int:
    """ceil(11 * 2^(n-1) / 48), the lower end of the constant-lambda interval."""
    DomainError.require(n, 4, MAX_DIMENSION, "n")
    return (11 * (1 << (n - 1)) + 47) // 48


def breakpoints(n: int) -> Breakpoints:
    """Breakpoint values for 4 <= n <= 62.

    They follow the four-range definition, except at n = 4, where it
    gives (8,) but the one breakpoint is 1. With f the parity flag of n
    and r running to ceil(n/2)-1: the early values add a three-term
    leading block, a geometric middle block and a single low power
    2^(2r-1-f); the last three values are the fixed patterns summing four
    leading powers, 2^(n-3), and 2^(n-1).
    """
    DomainError.require(n, 4, MAX_DIMENSION, "n")
    f = n & 1
    if n == 4:
        return Breakpoints(n, f, (1,))
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

    Verifies lambda_h = 2^(n-1) at both ends of [h_min, 2^(n-1)], which
    covers the interval since lambda is nondecreasing in h; that the h
    values with xi_h = 2^(n-1) inside the interval are exactly the
    breakpoints; and that lambda just below the interval drops by 1 (even
    n) or 2 (odd n). No profile is built, so every n <= 62 answers. Any
    failure raises VerificationError carrying the offending h; that signals
    an implementation bug, never a property of the graphs.
    """
    DomainError.require(n, 9, MAX_DIMENSION, "n")
    family = GraphSpec(n, 2)
    lo = h_min(n)
    half = family.half
    constant = half
    for h in (lo, half):
        value = lambda_at(family, h)
        if value != constant:
            raise VerificationError(
                f"lambda_{h}(Q_{{{n},2}}) = {value}, expected {constant}", h=h
            )
    optimal = _minimizers(family, lo, half, constant)
    expected = breakpoints(n).values
    if optimal != expected:
        extra = set(optimal) ^ set(expected)
        bad = min(extra) if extra else lo
        raise VerificationError(
            f"optimal h set {optimal} differs from breakpoints {expected}", h=bad
        )
    lambda_below = lambda_at(family, lo - 1)
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
    DomainError.require(n_min, 4, MAX_DIMENSION, "n_min")
    DomainError.require(n_max, n_min, MAX_DIMENSION, "n_max")
    rows = []
    for n in range(n_min, n_max + 1):
        half = 1 << (n - 1)
        g = half - h_min(n) + 1
        rows.append(RatioRow(n, g, Fraction(g, half), _truncated_percent(g, half)))
    return rows
