"""Reference closed forms and the paper's lemmas, for checking extraconn.ex.

ex_hypercube is Hart's identity: the segment {0, ..., m-1} induces one edge
from each i to i - 2^b per set bit b of i, so ex_m(Q_n) = 2 * sum of
popcount(i) over i < m. ex_hypercube sums it i by i, O(m); hart_count counts
it bit by bit, O(n), for any n. complementary_credit is what the
complementary edges add to ex_m(Q_{n,2}), range by range, as the four-range
piecewise definition states it, and ex_enhanced adds it to ex_hypercube.
None of them shares code with extraconn.extremal. split_identity_check and
ex_upper_bound_check state two of the paper's lemmas against extraconn.ex,
and ex_table feeds the superadditivity sweeps. Every helper refuses an
out-of-range or non-int argument with DomainError.require, so a mis-sized
sweep fails at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from extraconn import DomainError, GraphSpec, ex
from extraconn.errors import MAX_DIMENSION


def binary_decomposition(m: int) -> list[int]:
    """Exponents of the set bits of m, strictly decreasing."""
    DomainError.require(m, 1, None, "m")
    return [t for t in range(m.bit_length() - 1, -1, -1) if m >> t & 1]


def ex_hypercube(n: int, m: int) -> int:
    """ex_m(Q_n) by Hart's identity, O(m)."""
    DomainError.require(n, 0, MAX_DIMENSION, "n")
    DomainError.require(m, 1, 1 << n, "m")
    return 2 * sum(i.bit_count() for i in range(m))


def hart_count(n: int, m: int) -> int:
    """ex_m(Q_n) by Hart's identity, O(n): bit b is set in 2^b of every
    2^(b+1) consecutive integers, so [0, m) holds (m >> (b+1)) * 2^b of them
    in whole periods and [m mod 2^(b+1) - 2^b]^+ in the last, partial one."""
    DomainError.require(n, 0, MAX_DIMENSION, "n")
    DomainError.require(m, 1, 1 << n, "m")
    ones = 0
    for b in range(n + 1):
        ones += (m >> (b + 1) << b) + max(m % (2 << b) - (1 << b), 0)
    return 2 * ones


def complementary_credit(n: int, m: int) -> int:
    """ex_m(Q_{n,2}) - ex_m(Q_n) from the four-range piecewise definition."""
    DomainError.require(n, 3, MAX_DIMENSION, "n")
    DomainError.require(m, 1, 1 << n, "m")
    half = 1 << (n - 1)
    quarter = 1 << (n - 2)
    if m <= quarter:
        return 0
    if m <= half:
        return 2 * m - half
    x = m - half
    if x < quarter:
        return half
    return 2 * x


def ex_enhanced(n: int, m: int) -> int:
    """ex_m(Q_{n,2}) from the four-range piecewise definition."""
    return ex_hypercube(n, m) + complementary_credit(n, m)


def ex_table(n: int) -> np.ndarray:
    """[0, ex_1, ..., ex_{2^n}] of Q_n, for vectorised superadditivity sweeps."""
    spec = GraphSpec(n)
    return np.array([0] + [ex(spec, m) for m in range(1, (1 << n) + 1)], dtype=np.int64)


@dataclass(frozen=True)
class SplitIdentity:
    """Both candidate right-hand sides for splitting ex_m(Q_{n,2}) at index a.

    The decomposition prefix through index a contributes m1, the tail m2.
    For m up to a quarter of the vertices the stated identity and its
    derivation agree on the correction term 2(a+1)m2, so the two fields
    coincide. On the upper range the stated correction 2m1 + 2(a+1)m2 and
    the derived correction 2(a+2)m2 differ; both are reported so a test can
    tell which side matches the directly computed value.
    """

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
    spec = GraphSpec(n, 2)
    m1 = sum(1 << t for t in exponents[: a + 1])
    m2 = m - m1
    lhs = ex(spec, m)
    base = ex(spec, m1) + ex(spec, m2)
    if m <= 1 << (n - 2):
        rhs_statement = rhs_proof = base + 2 * (a + 1) * m2
    else:
        rhs_statement = base + 2 * m1 + 2 * (a + 1) * m2
        rhs_proof = base + 2 * (a + 2) * m2
    return SplitIdentity(m1, m2, lhs, rhs_statement, rhs_proof)


def ex_upper_bound_check(n: int, t: int, m: int) -> bool:
    """True iff ex_m(Q_n) <= t*m and ex_m(Q_{n,2}) <= (t+1)*m for m <= 2^t."""
    DomainError.require(t, 0, n, "t")
    DomainError.require(m, 1, 1 << t, "m")
    return ex(GraphSpec(n), m) <= t * m and ex(GraphSpec(n, 2), m) <= (t + 1) * m
