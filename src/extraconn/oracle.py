"""Ground truth computed directly from the graph definition.

Nothing in this module touches the closed forms; minima and maxima come
from exhaustive search over vertex subsets, so the results certify the
formula modules on small instances. xi_bruteforce_sweep answers every
1 <= m <= m_max in one search. The exact lambda_h are the suffix minima of
its values: a minimum cut meeting the size constraint leaves exactly two
components, one of which has some size m in [h, 2^(n-1)].

Subsets are carried as integer bit masks (bit v set means vertex v is
in), which keeps the inner loops at a few machine-word operations per
step. Boundaries and connectivity come from graphs.mask_boundary and
graphs.mask_connected; only the searches' per-vertex extension step reads
a 2^n table of neighbour masks.

Connected sets are grown by canonical extension: candidate vertices
removed at one branching level stay excluded from the whole subtree, so
no set is produced twice. enumerate_connected_subsets grows every set from
its minimum-id vertex and so yields each connected set exactly once.

The minimum and maximum searches grow from vertex 0 only. For any vertex
a, x -> x ^ a leaves every u ^ v unchanged, so it maps edges (XOR by a
generator) to edges and is an automorphism of every Q_{n,k}. For any a in
S the set S ^ a contains 0 and has the same size, boundary, induced edges
and connectivity on both sides, so every extremum is attained by a set
containing vertex 0.

Every search takes an extension-step budget (default 10^9, any int >= 0)
and raises ResourceLimitError once it is spent, so no call runs without
bound. The exhaustive searches take n <= MAX_EXHAUSTIVE_DIMENSION and the
sampler n <= MAX_SAMPLING_DIMENSION; larger inputs raise DomainError.
enumerate_connected_subsets and sample_cuts check their arguments at the
call and then return a generator.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import (
    MAX_EXHAUSTIVE_DIMENSION,
    MAX_SAMPLING_DIMENSION,
    DomainError,
    ResourceLimitError,
)
from .graphs import GraphSpec, mask_boundary, mask_connected

DEFAULT_EXTENSION_BUDGET = 10**9
MAX_ALL_SUBSET_DIMENSION = 4  # ex_bruteforce sweeps all subsets up to here
SAMPLE_RETRIES = 20


@dataclass(frozen=True)
class CutSample:
    """One sampled cut: smaller-side size h and the number of crossing edges."""

    h: int
    cut_size: int
    both_connected: bool


@dataclass(frozen=True)
class OracleResult:
    """Exact minimum boundary for one cardinality, with a witness set."""

    n: int
    k: int | None
    m: int
    xi_exact: int
    witness: frozenset[int]


def _over_budget(limit: int) -> ResourceLimitError:
    return ResourceLimitError(f"search exceeded the {limit} extension-step budget")


@lru_cache(maxsize=None)
def _neighbor_masks(spec: GraphSpec) -> tuple[int, ...]:
    """Per-vertex neighbour masks, for the searches' one-vertex extension step."""
    return tuple(sum(1 << (v ^ g) for g in spec.generators) for v in range(spec.num_vertices))


def _members(mask: int) -> frozenset[int]:
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length() - 1)
    return frozenset(out)


def _check_search(spec: GraphSpec, budget: int) -> None:
    DomainError.require(spec.n, 2, MAX_EXHAUSTIVE_DIMENSION, "n")
    DomainError.require(budget, 0, None, "budget")


def enumerate_connected_subsets(
    spec: GraphSpec, m: int, budget: int = DEFAULT_EXTENSION_BUDGET
) -> Iterator[frozenset[int]]:
    """Every size-m vertex set inducing a connected subgraph, once each, lazily."""
    _check_search(spec, budget)
    DomainError.require(m, 1, spec.num_vertices, "m")
    return _connected_subsets(spec, m, budget)


def _connected_subsets(spec: GraphSpec, m: int, budget: int) -> Iterator[frozenset[int]]:
    nbr = _neighbor_masks(spec)
    steps = 0
    for v in range(spec.num_vertices):
        if m == 1:
            yield frozenset((v,))
            continue
        above = -(1 << (v + 1))
        stack = [(1 << v, nbr[v] & above, nbr[v] | (1 << v), 1)]
        while stack:
            sub, ext, seen, size = stack.pop()
            while ext:
                wbit = ext & -ext
                ext ^= wbit
                steps += 1
                if steps > budget:
                    raise _over_budget(budget)
                grown = sub | wbit
                if size + 1 == m:
                    yield _members(grown)
                else:
                    wnbr = nbr[wbit.bit_length() - 1]
                    stack.append((grown, ext | (wnbr & ~seen & above), seen | wnbr, size + 1))


def xi_bruteforce_sweep(
    spec: GraphSpec, m_max: int, budget: int = DEFAULT_EXTENSION_BUDGET
) -> list[OracleResult]:
    """Exact minimum boundaries for every 1 <= m <= m_max, in one search.

    Branch and bound over the connected sets grown from vertex 0, which
    by translation attain every minimum. A branch is cut only when no
    descendant of any remaining size can beat an already proven boundary
    (each added vertex changes the boundary by at least -degree), so the
    minima are exact. Incumbents start from the lexicographic segments,
    counted directly in the graph; every reported minimum is attained by
    the recorded witness, whose two sides were both checked connected.
    """
    _check_search(spec, budget)
    DomainError.require(m_max, 1, spec.half, "m_max")
    nbr = _neighbor_masks(spec)
    degree = spec.degree
    full = (1 << spec.num_vertices) - 1
    infinity = 1 << 62

    best = [infinity] * (m_max + 1)
    witness: list[int | None] = [None] * (m_max + 1)
    for m in range(1, m_max + 1):
        segment = (1 << m) - 1
        if mask_connected(spec, segment) and mask_connected(spec, full ^ segment):
            best[m] = mask_boundary(spec, segment)
            witness[m] = segment

    def thresholds() -> list[int]:
        # thr[j]: a size-j set with boundary >= thr[j] cannot improve any best[m'], m' > j
        thr = [0] * (m_max + 1)
        running = -infinity
        for j in range(m_max - 1, -1, -1):
            running = max(best[j + 1], running) + degree
            thr[j] = running
        return thr

    thr = thresholds()
    steps = 0
    stack = [(1, nbr[0], nbr[0] | 1, 1, degree)] if m_max > 1 else []
    while stack:
        sub, ext, seen, size, bound = stack.pop()
        grown_size = size + 1
        while ext:
            wbit = ext & -ext
            ext ^= wbit
            steps += 1
            if steps > budget:
                raise _over_budget(budget)
            wnbr = nbr[wbit.bit_length() - 1]
            grown_bound = bound + degree - 2 * (wnbr & sub).bit_count()
            grown = sub | wbit
            if grown_bound < best[grown_size] and mask_connected(spec, full ^ grown):
                best[grown_size] = grown_bound
                witness[grown_size] = grown
                thr = thresholds()
            if grown_size < m_max and grown_bound < thr[grown_size]:
                stack.append((grown, ext | (wnbr & ~seen), seen | wnbr, grown_size, grown_bound))
    results = []
    for m in range(1, m_max + 1):
        if witness[m] is None:
            raise RuntimeError(f"no size-{m} set with both sides connected was found")
        results.append(OracleResult(spec.n, spec.k, m, best[m], _members(witness[m])))
    return results


def ex_bruteforce(spec: GraphSpec, m: int, budget: int = DEFAULT_EXTENSION_BUDGET) -> int:
    """Exact ex_m: twice the maximum induced edge count over size-m sets.

    Only sets containing vertex 0 are searched, which by translation
    attain the maximum. Up to n=4 every such subset is swept; at n=5 the
    maximum is taken over connected sets only (the maximizer is connected
    for these graphs, and the all-subset space is out of reach).
    """
    _check_search(spec, budget)
    DomainError.require(m, 1, spec.num_vertices, "m")
    degree = spec.degree
    steps = 0

    if spec.n <= MAX_ALL_SUBSET_DIMENSION:
        top = 0
        others = [1 << v for v in range(1, spec.num_vertices)]
        for combo in combinations(others, m - 1):
            steps += 1
            if steps > budget:
                raise _over_budget(budget)
            doubled = degree * m - mask_boundary(spec, 1 + sum(combo))
            if doubled > top:
                top = doubled
        return top

    # n = 5: branch and bound for maximum edges over connected sets. A set of
    # size j can gain at most min(j, degree) edges per added vertex.
    nbr = _neighbor_masks(spec)
    segment = (1 << m) - 1
    top = degree * m - mask_boundary(spec, segment) if mask_connected(spec, segment) else 0
    allowance = [0] * (m + 1)
    for j in range(m - 1, 0, -1):
        allowance[j] = allowance[j + 1] + 2 * min(j, degree)
    stack = [(1, nbr[0], nbr[0] | 1, 1, 0)] if m > 1 else []
    while stack:
        sub, ext, seen, size, doubled = stack.pop()
        grown_size = size + 1
        while ext:
            wbit = ext & -ext
            ext ^= wbit
            steps += 1
            if steps > budget:
                raise _over_budget(budget)
            wnbr = nbr[wbit.bit_length() - 1]
            grown_doubled = doubled + 2 * (wnbr & sub).bit_count()
            if grown_size == m:
                if grown_doubled > top:
                    top = grown_doubled
            elif grown_doubled + allowance[grown_size] > top:
                stack.append(
                    (sub | wbit, ext | (wnbr & ~seen), seen | wnbr, grown_size, grown_doubled)
                )
    return top


def sample_cuts(spec: GraphSpec, samples: int, seed: int) -> Iterator[CutSample]:
    """Seeded random cuts with both sides connected.

    Each sample grows a connected set by a random walk from a random start
    vertex until a random target size of at most half the vertices, then
    keeps it only if the complement is connected too; up to SAMPLE_RETRIES
    regrowths are attempted before the sample is skipped. The generator is
    random.Random (Mersenne Twister), so a fixed seed replays the identical
    stream on any platform. The seed is an int >= 0 (random.Random seeds by
    absolute value, so a negative seed would replay its mirror).
    """
    DomainError.require(spec.n, 2, MAX_SAMPLING_DIMENSION, "n")
    DomainError.require(samples, 0, None, "samples")
    DomainError.require(seed, 0, None, "seed")
    return _sampled_cuts(spec, samples, seed)


def _sampled_cuts(spec: GraphSpec, samples: int, seed: int) -> Iterator[CutSample]:
    total = spec.num_vertices
    adjacency = tuple(tuple(sorted(v ^ g for g in spec.generators)) for v in range(total))
    full = (1 << total) - 1
    rng = random.Random(seed)
    walk_cap = 64 * spec.degree

    for _ in range(samples):
        for _attempt in range(SAMPLE_RETRIES):
            target = rng.randint(1, spec.half)
            current = rng.randrange(total)
            mask = 1 << current
            size = 1
            stalls = 0
            while size < target and stalls < walk_cap * target:
                current = rng.choice(adjacency[current])
                bit = 1 << current
                if mask & bit:
                    stalls += 1
                else:
                    mask |= bit
                    size += 1
            if size < target:
                continue
            if mask_connected(spec, full ^ mask):
                yield CutSample(
                    h=min(size, total - size),
                    cut_size=mask_boundary(spec, mask),
                    both_connected=True,
                )
                break
