"""Reference closed forms and the paper's lemmas, for checking extraconn.ex.

ex_hypercube is Hart's identity: the segment {0, ..., m-1} induces one edge
from each i to i - 2^b per set bit b of i, so ex_m(Q_n) = 2 * sum of
popcount(i) over i < m. ex_enhanced adds the complementary-edge credit range
by range, as the four-range piecewise definition states it. Neither shares
code with extraconn.extremal. split_identity_check and ex_upper_bound_check
state two of the paper's lemmas against extraconn.ex, and ex_table feeds
the superadditivity sweeps. Every helper refuses an out-of-range or non-int
argument with DomainError.require, so a mis-sized sweep fails at once.
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


def ex_enhanced(n: int, m: int) -> int:
    """ex_m(Q_{n,2}) from the four-range piecewise definition."""
    DomainError.require(n, 3, MAX_DIMENSION, "n")
    DomainError.require(m, 1, 1 << n, "m")
    half = 1 << (n - 1)
    quarter = 1 << (n - 2)
    base = ex_hypercube(n, m)
    if m <= quarter:
        return base
    if m <= half:
        return base + 2 * m - half
    x = m - half
    if x < quarter:
        return base + half
    return base + 2 * x


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
