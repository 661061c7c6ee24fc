"""Closed forms for extremal induced-edge counts and minimum boundary sizes.

ex_m is twice the maximum number of edges an m-vertex induced subgraph can
have; it is attained by the lexicographic segment {0, ..., m-1}, which makes
the minimum boundary over size-m sets with both sides connected equal to
xi_m = degree*m - ex_m. ex and xi are the two entry points; each checks
its arguments once and calls one unchecked body. _require_closed_form is
the one family check, which the profile and lambda entry points also call
before any work. _xi_profile (unchecked) fills xi_0..xi_{2^(n-1)} into one
int64 array for profiles by xi's own block doublings. All arithmetic is
exact: values reach the 2^(n+6) scale and no floating point is used.
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


def _ex(spec: GraphSpec, m: int) -> int:
    """ex_m for 1 <= m <= 2^n, unchecked.

    The plain value sums (t + 2i)*2^t over the set bits t of m, with i the
    number of set bits above t; it does not depend on n. Q_{n,2} adds the
    complementary-edge credit floor(m/2^(n-1))*2^(n-1) + 2*[m mod 2^(n-1) -
    2^(n-2)]^+, which collapses the four ranges of the piecewise definition
    (no credit up to a quarter of the vertices, a 2m - 2^(n-1) ramp up to
    half, a flat 2^(n-1) plateau, then a 2x ramp) into one expression.
    """
    value = 0
    i = 0
    rest = m
    while rest:
        t = rest.bit_length() - 1
        value += (t + 2 * i) << t
        rest ^= 1 << t
        i += 1
    if spec.k is None:
        return value
    half = spec.half
    wraps = m >> (spec.n - 1)
    return value + wraps * half + 2 * max(m - wraps * half - (half >> 1), 0)


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
    return _ex(spec, m)


def xi(family: GraphSpec, m: int) -> int:
    """Minimum boundary over size-m sets with both sides connected.

    Defined only up to half the vertices; larger m is rejected rather than
    mirrored, even though ex itself extends further.
    """
    DomainError.require(m, 1, family.half, "m")
    _require_closed_form(family)
    return family.degree * m - _ex(family, m)
