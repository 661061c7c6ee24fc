"""Closed forms for extremal induced-edge counts and minimum boundary sizes.

ex_m is twice the maximum number of edges an m-vertex induced subgraph can
have; it is attained by the lexicographic segment {0, ..., m-1}, which makes
the minimum boundary over size-m sets with both sides connected equal to
degree*m - ex_m. Everything is exact integer arithmetic; values reach the
2^(n+6) scale, so no floating point appears anywhere on these paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MAX_DIMENSION, DomainError
from .graphs import GraphSpec


def binary_decomposition(m: int) -> list[int]:
    """Exponents of the set bits of m, strictly decreasing.

    The head exponent is floor(log2 m) and each later exponent is the floor
    log of the remainder, so summing 2^t over the result reassembles m.
    """
    DomainError.require(m, 1, None, "m")
    exponents = []
    while m:
        t = m.bit_length() - 1
        exponents.append(t)
        m ^= 1 << t
    return exponents


def _ex_plain(m: int) -> int:
    """ex_m(Q_n) for any n with m <= 2^n; the value does not depend on n."""
    return sum((t + 2 * i) << t for i, t in enumerate(binary_decomposition(m)))


def ex_hypercube(n: int, m: int) -> int:
    """ex_m of the plain n-cube: sum of (t_i + 2i) * 2^(t_i) over the decomposition."""
    DomainError.require(n, 0, MAX_DIMENSION, "n")
    DomainError.require(m, 1, 1 << n, "m")
    return _ex_plain(m)


def ex_enhanced(n: int, m: int) -> int:
    """ex_m of Q_{n,2}, the plain value plus the complementary-edge credit.

    Compact form: ex_m(Q_n) + floor(m/2^(n-1))*2^(n-1) + 2*[m mod 2^(n-1) -
    2^(n-2)]^+ with [x]^+ = max(x, 0). It collapses the four ranges of the
    piecewise definition (no credit up to a quarter of the vertices, a 2m -
    2^(n-1) ramp up to half, a flat 2^(n-1) plateau, then a 2x ramp) into a
    single expression, so there are no branch-boundary cases to get wrong.
    """
    DomainError.require(n, 3, MAX_DIMENSION, "n")
    DomainError.require(m, 1, 1 << n, "m")
    half = 1 << (n - 1)
    quarter = 1 << (n - 2)
    wraps = m >> (n - 1)
    rest = m - (wraps << (n - 1))
    return _ex_plain(m) + wraps * half + 2 * max(rest - quarter, 0)


def ex(spec: GraphSpec, m: int) -> int:
    """ex_m of the spec's graph; only Q_n and Q_{n,2} have a closed form."""
    if spec.k is None:
        return ex_hypercube(spec.n, m)
    if spec.k == 2:
        return ex_enhanced(spec.n, m)
    raise DomainError(
        f"no closed form for k={spec.k}; supported families are qn (plain) and q2 (k=2)"
    )


def xi(family: GraphSpec, m: int) -> int:
    """Minimum boundary over size-m sets with both sides connected.

    Defined only up to half the vertices; larger m is rejected rather than
    mirrored, even though ex itself extends further.
    """
    DomainError.require(m, 1, family.half, "m")
    return family.degree * m - ex(family, m)


@dataclass(frozen=True)
class SplitIdentity:
    """Both candidate right-hand sides for splitting ex_m(Q_{n,2}) at index a.

    The decomposition prefix through index a contributes m1, the tail m2.
    For m up to a quarter of the vertices the stated identity and its
    derivation agree on the correction term 2(a+1)m2, so the two fields
    coincide. On the upper range the stated correction 2m1 + 2(a+1)m2 and
    the derived correction 2(a+2)m2 differ; both are reported so callers can
    decide which side matches the directly computed value.
    """

    n: int
    m: int
    a: int
    m1: int
    m2: int
    lhs: int
    rhs_statement: int
    rhs_proof: int


def split_identity_check(n: int, m: int, a: int) -> SplitIdentity:
    """Evaluate ex_m(Q_{n,2}) directly and via both split identities."""
    DomainError.require(n, 3, MAX_DIMENSION, "n")
    DomainError.require(m, 1, 1 << (n - 1), "m")
    exponents = binary_decomposition(m)
    s = len(exponents) - 1
    if s < 1:
        raise DomainError(f"m={m} has a single-term decomposition; no split exists")
    DomainError.require(a, 0, s - 1, "a")
    m1 = sum(1 << t for t in exponents[: a + 1])
    m2 = m - m1
    lhs = ex_enhanced(n, m)
    base = ex_enhanced(n, m1) + ex_enhanced(n, m2)
    if m <= 1 << (n - 2):
        rhs_statement = rhs_proof = base + 2 * (a + 1) * m2
    else:
        rhs_statement = base + 2 * m1 + 2 * (a + 1) * m2
        rhs_proof = base + 2 * (a + 2) * m2
    return SplitIdentity(n, m, a, m1, m2, lhs, rhs_statement, rhs_proof)


def ex_upper_bound_check(n: int, t: int, m: int) -> bool:
    """True iff ex_m(Q_n) <= t*m and ex_m(Q_{n,2}) <= (t+1)*m for m <= 2^t."""
    DomainError.require(t, 0, n, "t")
    DomainError.require(m, 1, 1 << t, "m")
    return ex_hypercube(n, m) <= t * m and ex_enhanced(n, m) <= (t + 1) * m
