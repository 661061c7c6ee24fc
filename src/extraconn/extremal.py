"""Closed forms for extremal induced-edge counts and minimum boundary sizes.

ex_m is twice the maximum number of edges an m-vertex induced subgraph can
have; it is attained by the lexicographic segment {0, ..., m-1}, which makes
the minimum boundary over size-m sets with both sides connected equal to
xi_m = degree*m - ex_m. _xi is the one body of that form, for m up to half
the vertices: a base plus one _weight per set bit of m, at the slope of the
run of _runs that holds m. A set and its complement have the same boundary,
so ex above half is degree*m - _xi(2^n - m), with no second formula. ex and
xi are the two entry points; each checks its arguments once and calls _xi.
_runs is both the list of families with a closed form (Q_n, Q_{n,2}) and
their run table, read only by _xi, _xi_profile and _blocks: every entry
point checks its ranges, then refuses any other family there. _xi_profile
fills xi_0..xi_{2^(n-1)} into one int64 array by xi's own block doublings.
It states the split of Q_{n,2}'s runs a second time, as its ex credit past
the first run; test_profile_matches_scalar_closed_form pins it to _xi for
n <= 16. All arithmetic is exact: values reach the 2^(n+6) scale and no
floating point is used.

_interval_min and _minimizers (unchecked) give the minimum of xi over
[lo, hi] and the m that attain it, without touching single values of m:
_blocks covers the interval by O(n) aligned dyadic blocks, each inside one
run, and _free_minima tabulates the least weight of a block's free low
bits, so either takes O(n^2) steps (n <= 62); the table is built once per
slope and n and then read from a cache.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError
from .graphs import GraphSpec


def _weight(a: int, t: int, c: int) -> int:
    """xi's share from set bit t of m below c higher set bits, at slope a."""
    return (a - t - 2 * c) << t


@lru_cache(maxsize=64)
def _free_minima(a: int, bits: int) -> tuple[tuple[int, ...], ...]:
    """g[j][c]: the least total weight of free bits 0..j-1 below c set bits, at slope a.

    Cached, since every interval query of a family reads the same O(n^2)
    table; tuples, so no caller can change the cached value.
    """
    g = [(0,) * (bits + 2)]
    for t in range(bits):
        below = g[-1]
        g.append(
            tuple(min(below[c], _weight(a, t, c) + below[c + 1]) for c in range(len(below) - 1))
        )
    return tuple(g)


def _runs(spec: GraphSpec) -> tuple[tuple[int, int, int], ...]:
    """(last m, slope a, base) for each run of xi over 0 <= m <= 2^(n-1).

    Inside a run xi_m is base plus _weight(a, t, c) over the set bits t of
    m. Q_n has one run at slope degree. The segment of Q_{n,2} holds no
    complementary edge up to a quarter of the vertices and m - 2^(n-2) of
    them above, which add 2m - 2^(n-1) to ex: the slope drops by 2 and the
    base is 2^(n-1). No other family has a closed form: DomainError.
    """
    if spec.k is None:
        return ((spec.half, spec.degree, 0),)
    if spec.k == 2:
        return ((spec.half >> 1, spec.degree, 0), (spec.half, spec.degree - 2, spec.half))
    raise DomainError(
        f"no closed form for k={spec.k}; supported families are qn (plain) and q2 (k=2)"
    )


def _xi(spec: GraphSpec, m: int) -> int:
    """xi_m for 0 <= m <= 2^(n-1), unchecked."""
    for last, a, value in _runs(spec):
        if m <= last:
            break
    c = 0
    while m:
        t = m.bit_length() - 1
        value += (a - t - 2 * c) << t  # _weight inline: a call per bit is 20-40 % slower
        m ^= 1 << t
        c += 1
    return value


def _xi_profile(spec: GraphSpec) -> np.ndarray:
    """xi_0..xi_{2^(n-1)} as one int64 array, n unchecked; _runs refuses the
    family before any allocation. xi(2^t + r) = xi(r) + (degree - t)*2^t - 2r
    for r < 2^t fills each [2^t, 2^(t+1)) from [0, 2^t), in place from one ramp
    2r, r <= 2^(n-2). Q_{n,2} subtracts 2*[m - 2^(n-2)]^+ past its first run."""
    runs = _runs(spec)
    half = spec.half
    ramp = np.arange(0, half + 1, 2, dtype=np.int64)
    out = np.zeros(half + 1, dtype=np.int64)
    for t in range(spec.n):
        size = 1 << t
        low = min(size, half + 1 - size)
        block = out[size : size + low]
        np.subtract(out[:low], ramp[:low], out=block)
        block += (spec.degree - t) * size
    if len(runs) > 1:
        out[runs[0][0] :] -= ramp
    return out


def _blocks(family: GraphSpec, lo: int, hi: int):
    """Cover [lo, hi] by aligned dyadic blocks [p, p + 2^j), ascending.

    Yields (p, j, a, g). Each block lies in one run of _runs, a its
    slope: inside the block xi_m is xi_p plus the weights of the j low bits
    of m at slope a, and g = _free_minima(a, n).
    """
    for last, a, _ in _runs(family):
        start, stop, lo = lo, min(hi, last), max(lo, last + 1)
        if start > stop:
            continue
        g = _free_minima(a, family.n)
        while start <= stop:
            j = (start & -start).bit_length() - 1
            while start + (1 << j) - 1 > stop:
                j -= 1
            yield start, j, a, g
            start += 1 << j


def _interval_min(family: GraphSpec, lo: int, hi: int) -> int:
    """min xi_m over lo <= m <= hi, one closed-form prefix per block."""
    return min(_xi(family, p) + g[j][p.bit_count()] for p, j, _, g in _blocks(family, lo, hi))


def _minimizers(family: GraphSpec, lo: int, hi: int, target: int) -> tuple[int, ...]:
    """The m in [lo, hi] with xi_m = target, ascending; target is the minimum.

    A depth-first walk fixes the free bits of each block from the top and
    only enters a branch whose cost plus g can still equal the target.
    """
    found = []
    for p, free, a, g in _blocks(family, lo, hi):
        stack = [(p, free, _xi(family, p), p.bit_count())]
        while stack:
            m, j, cost, c = stack.pop()
            if cost + g[j][c] != target:
                continue
            if j == 0:
                found.append(m)
                continue
            t = j - 1
            stack.append((m | 1 << t, t, cost + _weight(a, t, c), c + 1))
            stack.append((m, t, cost, c))
    return tuple(found)


def ex(spec: GraphSpec, m: int) -> int:
    """ex_m of the spec's graph for 1 <= m <= 2^n; only Q_n and Q_{n,2} have one."""
    DomainError.require(m, 1, spec.num_vertices, "m")
    return spec.degree * m - _xi(spec, min(m, spec.num_vertices - m))


def xi(family: GraphSpec, m: int) -> int:
    """Minimum boundary over size-m sets with both sides connected.

    Defined only up to half the vertices; larger m is rejected rather than
    mirrored, even though ex itself extends further.
    """
    DomainError.require(m, 1, family.half, "m")
    return _xi(family, m)
