"""Closed forms for extremal induced-edge counts and minimum boundary sizes.

ex_m is twice the maximum number of edges an m-vertex induced subgraph can
have; it is attained by the lexicographic segment {0, ..., m-1}, which makes
the minimum boundary over size-m sets with both sides connected equal to
xi_m = degree*m - ex_m. _xi is the one body of that form, for m up to half
the vertices: a base plus one _weight per set bit of m, at the slope of the
run of _runs that holds m. A set and its complement have the same boundary,
so ex above half is degree*m - _xi(2^n - m), with no second formula.
_free_minima tabulates the least weight of a run's free low bits, from
which concentration reads interval minima. ex and xi are the two entry
points; each checks its arguments once and calls _xi.
_require_closed_form is the one family check, which the profile and lambda
entry points also call before any work. _xi_profile (unchecked) fills
xi_0..xi_{2^(n-1)} into one int64 array for profiles by xi's own block
doublings. All arithmetic is exact: values reach the 2^(n+6) scale and no
floating point is used.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .graphs import GraphSpec


def _require_closed_form(spec: GraphSpec) -> None:
    if spec.k not in (None, 2):
        raise DomainError(
            f"no closed form for k={spec.k}; supported families are qn (plain) and q2 (k=2)"
        )


def _weight(a: int, t: int, c: int) -> int:
    """xi's share from set bit t of m below c higher set bits, at slope a."""
    return (a - t - 2 * c) << t


def _free_minima(a: int, bits: int) -> list[list[int]]:
    """g[j][c]: the least total weight of free bits 0..j-1 below c set bits, at slope a."""
    g = [[0] * (bits + 2)]
    for t in range(bits):
        below = g[-1]
        g.append([min(below[c], _weight(a, t, c) + below[c + 1]) for c in range(len(below) - 1)])
    return g


def _runs(spec: GraphSpec) -> tuple[tuple[int, int, int], ...]:
    """(last m, slope a, base) for each run of xi over 0 <= m <= 2^(n-1).

    Inside a run xi_m is base plus _weight(a, t, c) over the set bits t of
    m. Q_n has one run at slope degree. The segment of Q_{n,2} holds no
    complementary edge up to a quarter of the vertices and m - 2^(n-2) of
    them above, which add 2m - 2^(n-1) to ex: the slope drops by 2 and the
    base is 2^(n-1).
    """
    if spec.k is None:
        return ((spec.half, spec.degree, 0),)
    return ((spec.half >> 1, spec.degree, 0), (spec.half, spec.degree - 2, spec.half))


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
    """xi_0..xi_{2^(n-1)} as one int64 array, unchecked: xi(2^t + r) =
    xi(r) + (degree - t)*2^t - 2r for r < 2^t fills each [2^t, 2^(t+1))
    from [0, 2^t). Q_{n,2} subtracts 2*[m - 2^(n-2)]^+, its ex credit.
    Each block is written in place from one ramp 2r, r <= 2^(n-2)."""
    half = spec.half
    ramp = np.arange(0, half + 1, 2, dtype=np.int64)
    out = np.zeros(half + 1, dtype=np.int64)
    for t in range(spec.n):
        size = 1 << t
        low = min(size, half + 1 - size)
        block = out[size : size + low]
        np.subtract(out[:low], ramp[:low], out=block)
        block += (spec.degree - t) * size
    if spec.k is not None:
        out[half >> 1 :] -= ramp
    return out


def ex(spec: GraphSpec, m: int) -> int:
    """ex_m of the spec's graph for 1 <= m <= 2^n; only Q_n and Q_{n,2} have one."""
    _require_closed_form(spec)
    DomainError.require(m, 1, spec.num_vertices, "m")
    return spec.degree * m - _xi(spec, min(m, spec.num_vertices - m))


def xi(family: GraphSpec, m: int) -> int:
    """Minimum boundary over size-m sets with both sides connected.

    Defined only up to half the vertices; larger m is rejected rather than
    mirrored, even though ex itself extends further.
    """
    DomainError.require(m, 1, family.half, "m")
    _require_closed_form(family)
    return _xi(family, m)
