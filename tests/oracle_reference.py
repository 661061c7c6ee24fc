"""The oracle's searches and cut sampler as they were before their speed-ups.

xi_sweep and ex_connected are the branch and bound loops extraconn.oracle
ran before it skipped candidates by neighbour count: every candidate is
popped and tested one at a time. Neighbour masks and the automorphism group
are built from the edge definition in graph_reference, not taken from the
package.

Both also return their step count, one per candidate examined. Without a
group they expand every candidate. With `group`, a list of vertex
permutations, each node keeps the elements of the whole group that fix
every vertex of its set and map every exclusion set along its path (the
candidates of each ancestor below the vertex taken next) onto itself, and
expands the least candidate of each orbit of those; once that filter
leaves only the identity, its descendants skip it. Given automorphisms(spec),
the package's stabiliser table and count filter must then reproduce their
traversal, witnesses and step count exactly. root_candidates is the
root's orbit minima as they were first derived by hand.

connected_subsets is enumerate_connected_subsets before it carried each
set's members down its stack: every stack entry holds the set as a mask,
and every yielded set is decoded from it one bit at a time. The package
must yield the same sets in the same order and raise the same budget error
at the same step.

walk is the sampler's random walk before it drew its generators in
batches and marked visits in a byte table: one generator per step, visits
marked in an int mask.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import permutations

from graph_reference import neighbors

from extraconn.errors import ResourceLimitError
from extraconn.graphs import mask_boundary, mask_connected


def neighbor_masks(spec) -> list[int]:
    return [sum(1 << u for u in neighbors(spec, v)) for v in range(spec.num_vertices)]


def members(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


@lru_cache(maxsize=None)
def automorphisms(spec) -> tuple[tuple[int, ...], ...]:
    """Every linear map that sends e_1..e_n to distinct neighbours of vertex
    0 and maps every neighbourhood onto a neighbourhood, as vertex
    permutations."""
    count = spec.num_vertices
    around = [neighbors(spec, v) for v in range(count)]
    group = []
    for images in permutations(sorted(around[0]), spec.n):
        perm = []
        for v in range(count):
            image = 0
            for j in range(spec.n):
                if v >> j & 1:
                    image ^= images[j]
            perm.append(image)
        if len(set(perm)) == count and all(
            {perm[u] for u in around[v]} == around[perm[v]] for v in range(count)
        ):
            group.append(tuple(perm))
    return tuple(group)


def root_candidates(spec) -> int:
    """Mask of one neighbour of 0 per root orbit, derived by hand: vertex 1,
    and vertex 2^(n-k+1) when k >= 2. With p = n-k+1 and c = 2^p - 1,
    e_1 + ... + e_p + c = 0, so any permutation of {e_1, ..., e_p, c} and
    any of {e_(p+1), ..., e_n} extends to a linear automorphism."""
    if spec.k is None or spec.k == 1:
        return 0b10
    return 0b10 | 1 << (1 << (spec.n - spec.k + 1))


def _image(perm, mask: int) -> int:
    return sum(1 << perm[v] for v in members(mask))


def _expanded(group, sub: int, path, ext: int) -> tuple[int, tuple[int, ...] | None]:
    """(mask of the candidates to expand, the path the node's children
    carry): the least candidate of each orbit of the elements of `group`
    that fix every vertex of sub and map every set of `path` onto itself.
    A path of None skips the filter and expands every candidate, and a node
    whose filter leaves at most the identity hands its children None."""
    if path is None:
        return ext, None
    fixed = members(sub)
    stabiliser = [
        perm for perm in group
        if all(perm[v] == v for v in fixed) and all(_image(perm, b) == b for b in path)
    ]
    kept = sum(1 << w for w in members(ext) if min(perm[w] for perm in stabiliser) == w)
    return kept, None if len(stabiliser) <= 1 else path


def xi_sweep(spec, m_max: int, group=None) -> tuple[list[tuple[int, frozenset[int]]], int]:
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
    root_path = None if group is None else ()
    stack = [(1, nbr[0], nbr[0] | 1, 1, degree, root_path)] if m_max > 1 else []
    while stack:
        sub, ext, seen, size, bound, path = stack.pop()
        only, path = _expanded(group, sub, path, ext)
        candidates = ext
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
                grown_path = None if path is None else path + (candidates & (wbit - 1),)
                stack.append(
                    (grown, ext | (wnbr & ~seen), seen | wnbr, grown_size, grown_bound, grown_path)
                )
    return [(best[m], members(witness[m])) for m in range(1, m_max + 1)], steps


def ex_connected(spec, m: int, group=None) -> tuple[int, int]:
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
    root_path = None if group is None else ()
    stack = [(1, nbr[0], nbr[0] | 1, 1, 0, root_path)] if m > 1 else []
    while stack:
        sub, ext, seen, size, doubled, path = stack.pop()
        only, path = _expanded(group, sub, path, ext)
        candidates = ext
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
                grown_path = None if path is None else path + (candidates & (wbit - 1),)
                stack.append(
                    (sub | wbit, ext | (wnbr & ~seen), seen | wnbr, grown_size, grown_doubled,
                     grown_path)
                )
    return top, steps


def connected_subsets(spec, m: int, budget: int) -> Iterator[frozenset[int]]:
    """Every connected size-m set, grown by canonical extension from its
    least vertex, with one step per candidate and ResourceLimitError once
    the budget is spent."""
    nbr = neighbor_masks(spec)
    steps = deepest = 0
    for v in range(spec.num_vertices):
        if m == 1:
            yield frozenset((v,))
            continue
        above = -(1 << (v + 1))
        stack = [(1 << v, nbr[v] & above, nbr[v] | (1 << v), 1)]
        while stack:
            sub, ext, seen, size = stack.pop()
            deepest = max(deepest, size)
            while ext:
                wbit = ext & -ext
                ext ^= wbit
                steps += 1
                if steps > budget:
                    raise ResourceLimitError(
                        f"search exceeded the {budget} extension-step budget"
                        f" after {steps - 1} steps, with sets of up to {deepest} vertices grown"
                    )
                grown = sub | wbit
                if size + 1 == m:
                    yield members(grown)
                else:
                    wnbr = nbr[wbit.bit_length() - 1]
                    stack.append((grown, ext | (wnbr & ~seen & above), seen | wnbr, size + 1))


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
