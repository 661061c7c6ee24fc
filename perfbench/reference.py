"""Reference answers computed without the package under test.

ex_m(Q_n) comes from S. Hart's identity ex_m(Q_n) = 2 * sum_{i<m} popcount(i)
("A note on the edges of the n-cube", Discrete Math. 1976); Q_{n,2} adds the
complementary-edge credit floor(m/2^(n-1))*2^(n-1) + 2*[m mod 2^(n-1) -
2^(n-2)]^+. xi_m = degree*m - ex_m and lambda_h is the suffix minimum of xi
over h <= m <= 2^(n-1). Sets are checked with bit-mask code of our own, so a
wrong oracle answer or a wrong witness cannot certify itself.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

FAMILIES = ("qn", "q2")


def degree(family: str, n: int) -> int:
    return n if family == "qn" else n + 1


def ex_table(family: str, n: int) -> np.ndarray:
    """ex_m for 0 <= m <= 2^n (int64; index m)."""
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    popcount = np.zeros(size, dtype=np.int64)
    for bit in range(n):
        popcount += (idx >> bit) & 1
    ex = np.zeros(size + 1, dtype=np.int64)
    ex[1:] = 2 * np.cumsum(popcount)
    if family == "q2":
        m = np.arange(size + 1, dtype=np.int64)
        half, quarter = size >> 1, size >> 2
        ex += (m // half) * half + 2 * np.maximum(m % half - quarter, 0)
    return ex


@lru_cache(maxsize=None)
def xi_lambda(family: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(xi, lambda) for 1 <= m <= 2^(n-1), as int32 arrays indexed by m - 1."""
    half = 1 << (n - 1)
    m = np.arange(1, half + 1, dtype=np.int64)
    xi = degree(family, n) * m - ex_table(family, n)[1 : half + 1]
    lam = np.minimum.accumulate(xi[::-1])[::-1]
    return xi.astype(np.int32), lam.astype(np.int32)


def xi(family: str, n: int, m: int) -> int:
    return int(xi_lambda(family, n)[0][m - 1])


def ex(family: str, n: int, m: int) -> int:
    """ex_m for m <= 2^(n-1), from the stored xi."""
    return degree(family, n) * m - xi(family, n, m)


def lam(family: str, n: int, h: int) -> int:
    return int(xi_lambda(family, n)[1][h - 1])


def breakpoints(n: int) -> list[int]:
    """h in [ceil(11*2^(n-1)/48), 2^(n-1)] with lambda_h = xi_h on Q_{n,2}, n >= 9."""
    half = 1 << (n - 1)
    lo = -(-11 * half // 48)
    xs, ls = xi_lambda("q2", n)
    hs = np.nonzero(xs[lo - 1 :] == ls[lo - 1 :])[0] + lo
    return [int(h) for h in hs]


def neighbor_masks(n: int, k: int | None) -> list[int]:
    """Adjacency of Q_n (k None) or Q_{n,k} as one bit mask per vertex."""
    flip = None if k is None else (1 << (n - k + 1)) - 1
    masks = []
    for v in range(1 << n):
        mask = 0
        for j in range(n):
            mask |= 1 << (v ^ (1 << j))
        if flip is not None:
            mask |= 1 << (v ^ flip)
        masks.append(mask)
    return masks


def set_mask(members) -> int:
    mask = 0
    for v in members:
        mask |= 1 << v
    return mask


def boundary(mask: int, nbr: list[int]) -> int:
    """Edges with exactly one end in the set."""
    total = 0
    for v in range(len(nbr)):
        if mask >> v & 1:
            total += (nbr[v] & ~mask).bit_count()
    return total


def connected(mask: int, nbr: list[int]) -> bool:
    if mask == 0:
        return True
    start = (mask & -mask).bit_length() - 1
    seen = 1 << start
    todo = [start]
    while todo:
        reach = nbr[todo.pop()] & mask & ~seen
        seen |= reach
        while reach:
            bit = reach & -reach
            reach ^= bit
            todo.append(bit.bit_length() - 1)
    return seen == mask
