"""The oracle's searches and cut sampler as they were before their speed-ups.

xi_sweep and ex_connected are the branch and bound loops extraconn.oracle
ran before its searches expanded one vertex per root orbit and skipped
candidates by neighbour count: every neighbour of vertex 0 is expanded, and
every candidate is popped and tested one at a time. Neighbour masks are
built from the edge definition in graph_reference, not taken from the
package.

Both also return their step count, one per candidate examined. With
`roots` set to the package's root mask they expand only those neighbours
of vertex 0, so the count filter of the package must then reproduce
their traversal, witnesses and step count exactly.

walk is the sampler's random walk before it drew its generators in
batches and marked visits in a byte table: one generator per step, visits
marked in an int mask.
"""

from __future__ import annotations

from collections.abc import Iterator

from graph_reference import neighbors

from extraconn.graphs import mask_boundary, mask_connected


def neighbor_masks(spec) -> list[int]:
    return [sum(1 << u for u in neighbors(spec, v)) for v in range(spec.num_vertices)]


def members(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def xi_sweep(spec, m_max: int, roots: int = -1) -> tuple[list[tuple[int, frozenset[int]]], int]:
    """(minimum boundary, witness) for every 1 <= m <= m_max, grown from
    vertex 0, and the step count."""
    nbr = neighbor_masks(spec)
    degree = spec.degree
    full = (1 << spec.num_vertices) - 1
    infinity = 1 << 62

    best = [infinity] * (m_max + 1)
    witness = [None] * (m_max + 1)
    for m in range(1, m_max + 1):
        segment = (1 << m) - 1
        if mask_connected(spec, segment) and mask_connected(spec, full ^ segment):
            best[m] = mask_boundary(spec, segment)
            witness[m] = segment

    def thresholds() -> list[int]:
        thr = [0] * (m_max + 1)
        running = -infinity
        for j in range(m_max - 1, -1, -1):
            running = max(best[j + 1], running) - degree + 2 * min(j, degree)
            thr[j] = running
        return thr

    thr = thresholds()
    steps = 0
    stack = [(1, nbr[0], nbr[0] | 1, 1, degree)] if m_max > 1 else []
    while stack:
        sub, ext, seen, size, bound = stack.pop()
        only = roots if size == 1 else -1
        grown_size = size + 1
        while ext:
            wbit = ext & -ext
            ext ^= wbit
            if not wbit & only:
                continue
            steps += 1
            wnbr = nbr[wbit.bit_length() - 1]
            grown_bound = bound + degree - 2 * (wnbr & sub).bit_count()
            grown = sub | wbit
            if grown_bound < best[grown_size] and mask_connected(spec, full ^ grown):
                best[grown_size] = grown_bound
                witness[grown_size] = grown
                thr = thresholds()
            if grown_size < m_max and grown_bound < thr[grown_size]:
                stack.append((grown, ext | (wnbr & ~seen), seen | wnbr, grown_size, grown_bound))
    return [(best[m], members(witness[m])) for m in range(1, m_max + 1)], steps


def ex_connected(spec, m: int, roots: int = -1) -> tuple[int, int]:
    """Twice the most induced edges over connected size-m sets containing
    vertex 0, and the step count."""
    nbr = neighbor_masks(spec)
    degree = spec.degree
    segment = (1 << m) - 1
    top = degree * m - mask_boundary(spec, segment) if mask_connected(spec, segment) else 0
    allowance = [0] * (m + 1)
    for j in range(m - 1, 0, -1):
        allowance[j] = allowance[j + 1] + 2 * min(j, degree)
    steps = 0
    stack = [(1, nbr[0], nbr[0] | 1, 1, 0)] if m > 1 else []
    while stack:
        sub, ext, seen, size, doubled = stack.pop()
        only = roots if size == 1 else -1
        grown_size = size + 1
        while ext:
            wbit = ext & -ext
            ext ^= wbit
            if not wbit & only:
                continue
            steps += 1
            wnbr = nbr[wbit.bit_length() - 1]
            grown_doubled = doubled + 2 * (wnbr & sub).bit_count()
            if grown_size == m:
                if grown_doubled > top:
                    top = grown_doubled
            elif grown_doubled + allowance[grown_size] > top:
                stack.append(
                    (sub | wbit, ext | (wnbr & ~seen), seen | wnbr, grown_size, grown_doubled)
                )
    return top, steps


def walk(start: int, target: int, steps: Iterator[int], stall_cap: int) -> int | None:
    """The cut sampler's walk, one generator drawn per step: from start, XOR
    by the next generator of `steps` until target vertices are visited or
    stall_cap steps have landed on visited ones. The visited mask, or None
    when the stalls ran out first."""
    mask = 1 << start
    size = 1
    stalls = 0
    while size < target and stalls < stall_cap:
        start ^= next(steps)
        bit = 1 << start
        if mask & bit:
            stalls += 1
        else:
            mask |= bit
            size += 1
    return mask if size == target else None
