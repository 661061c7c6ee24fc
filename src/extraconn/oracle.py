"""Ground truth computed directly from the graph definition.

Nothing in this module touches the closed forms; minima and maxima come
from exhaustive search over vertex subsets, so the results certify the
formula modules on small instances. One rooted branch and bound finds the
least boundary of the connected sets of each size in a range.
xi_bruteforce_sweep runs it once for every 1 <= m <= m_max, keeping a
set only when its complement is connected too. The exact lambda_h are the
suffix minima of its values: a minimum cut meeting the size constraint
leaves exactly two components, one of which has some size m in
[h, 2^(n-1)]. ex_bruteforce runs it for one size with no condition on
the complement and reads ex_m = degree*m - (least boundary). A set and its
complement have the same boundary, so it searches the smaller side,
size min(m, 2^n - m). At every n it searches connected sets only, since
the minimiser is connected for these graphs (for Q_n the lexicographic
segment, by Harper's edge-isoperimetric theorem), which the tests check
against every subset up to n = 4.

Subsets are carried as integer bit masks (bit v set means vertex v is
in), which keeps the inner loops at a few machine-word operations per
step. Boundaries and connectivity come from graphs.mask_boundary and
graphs.mask_connected; only the searches' per-vertex extension step reads
a 2^n table of neighbour masks. enumerate_connected_subsets hands out
frozensets, so it carries the set's members as a tuple, in the order they
were taken, beside its ext and seen masks: each yielded set is built from
that tuple and the last vertex, not decoded from a mask bit by bit.

Connected sets are grown by canonical extension: candidate vertices
removed at one branching level stay excluded from the whole subtree, so
no set is produced twice. enumerate_connected_subsets grows every set from
its minimum-id vertex and so yields each connected set exactly once.

The rooted search grows from vertex 0 only. For any vertex a, x -> x ^ a
leaves every u ^ v unchanged, so it maps edges (XOR by a generator) to
edges and is an automorphism of every Q_{n,k}. For any a in S the set
S ^ a contains 0 and has the same size, boundary, induced edges and
connectivity on both sides, so every extremum is attained by a set
containing vertex 0.

It also expands one candidate per orbit of each node's stabiliser, the
isomorph rejection of canonical augmentation (B. D. McKay, J. Algorithms
26, 1998). The group G is every GF(2)-linear map permuting the generators,
found by trying each ordered choice of generators as the images of
e_1..e_n. Such a map fixes 0 and is an automorphism: if u ^ v is a
generator, so is s(u) ^ s(v) = s(u ^ v). G has n! elements for Q_n,
(n+1)! for Q_{n,1} and (p+1)!*(n-p)! for k >= 2, with p = n-k+1.

A node with set A, candidates ext and excluded vertices X (seen, less A
and ext) heads the subtree of every connected S containing A and avoiding
X. The root {0} carries H = G. Its child through candidate w carries the
elements of H that fix w and map B_w, the node's candidates below w, onto
itself, so every element of a node's H fixes A pointwise and X setwise,
and so maps ext onto itself. If s in H maps w_i to w_j with j < i, it maps
each set of branch i onto a set containing A and w_j and avoiding X, in a
branch <= j, with the same size, boundary and connectivity on both sides.
By induction on i every set of the subtree is matched so in the branch of
an orbit's least candidate, so a node need only expand those, and the
minima of xi_bruteforce_sweep and ex_bruteforce stay exact under the
unchanged bound; the root keeps vertex 1, plus 2^p when k >= 2. Each stack
entry carries its node's H (None once trivial), and _stabiliser_table keeps
_orbit_entry(H, ext), the kept candidates and each child's H, by set mask
from the node's first visit on: a query pays only for the nodes it reaches.

Its bound: a vertex joining a size-j set has at most min(j, degree)
neighbours in it, so it lowers the boundary by at most
2*min(j, degree) - degree. A branch is cut only when, by this bound, no
descendant of any size in range can beat its incumbent, so the minima are
exact.

Each node carries three bit planes holding, for every vertex, its number
of neighbours in the set (degree <= 6 fits in three bits); adding a
vertex w updates them by a ripple carry on its neighbour mask. A child's
boundary depends only on that number, so a node computes the least count
a child needs to beat the current incumbents and examines only the
candidates that have it. Incumbents only improve while a node is
processed, so a skipped candidate would have failed its test anyway, and
every survivor is still tested exactly.

Every search stops after errors.MAX_SEARCH_STEPS extension steps (10^9)
with ResourceLimitError, so no call runs without bound; each reads the cap
once per call. The rooted search counts, as one step each, the
orbit-minimum candidates of every node it pops, whether or not the count
filter skips them. The error states the steps taken and the largest set
grown. The exhaustive searches take n <= MAX_EXHAUSTIVE_DIMENSION and the
sampler n <= MAX_SAMPLING_DIMENSION; larger inputs raise DomainError.
enumerate_connected_subsets and sample_cuts check their arguments at the
call and then return a generator.

The sampler's walk costs a few bytecodes a step. It draws its generators
in batches, rng.choices(generators, k=2*(target - size) + 8), steps through
a batch until the walk ends and drops the rest. It marks visits in a 2^n
bytearray, turned into a mask once per attempt by graphs.table_mask:
`mask |= 1 << v` would copy the whole 2^n-bit int at every new vertex.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from operator import itemgetter

from .errors import (
    MAX_EXHAUSTIVE_DIMENSION,
    MAX_SAMPLING_DIMENSION,
    MAX_SEARCH_STEPS,
    DomainError,
    ResourceLimitError,
)
from .graphs import GraphSpec, mask_boundary, mask_connected, table_mask

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


def _over_budget(steps: int, deepest: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"search exceeded the {MAX_SEARCH_STEPS} extension-step budget"
        f" after {steps} steps, with sets of up to {deepest} vertices grown"
    )


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


def enumerate_connected_subsets(spec: GraphSpec, m: int) -> Iterator[frozenset[int]]:
    """Every size-m vertex set inducing a connected subgraph, once each, lazily."""
    DomainError.require(spec.n, 2, MAX_EXHAUSTIVE_DIMENSION, "n")
    DomainError.require(m, 1, spec.num_vertices, "m")
    return _connected_subsets(spec, m)


def _connected_subsets(spec: GraphSpec, m: int) -> Iterator[frozenset[int]]:
    nbr = _neighbor_masks(spec)
    cap = MAX_SEARCH_STEPS
    steps = deepest = 0
    for v in range(spec.num_vertices):
        if m == 1:
            yield frozenset((v,))
            continue
        above = -(1 << (v + 1))
        stack = [((v,), nbr[v] & above, nbr[v] | (1 << v))]
        while stack:
            members, ext, seen = stack.pop()
            size = len(members)
            if size > deepest:
                deepest = size
            while ext:
                wbit = ext & -ext
                ext ^= wbit
                steps += 1
                if steps > cap:
                    raise _over_budget(steps - 1, deepest)
                w = wbit.bit_length() - 1
                grown = members + (w,)
                if size + 1 == m:
                    yield frozenset(grown)
                else:
                    wnbr = nbr[w]
                    stack.append((grown, ext | (wnbr & ~seen & above), seen | wnbr))


@lru_cache(maxsize=None)
def _automorphisms(spec: GraphSpec) -> tuple[tuple[int, ...], ...]:
    """Every GF(2)-linear map that permutes spec.generators, as a vertex
    permutation: each ordered choice of generators as the images of e_1..e_n
    that maps the generators onto themselves (see the module docstring)."""
    generators = set(spec.generators)
    group = []
    for images in permutations(spec.generators, spec.n):
        perm = [0]
        for image in images:  # v + 2^j maps to perm[v] ^ image, for v < 2^j
            perm += [v ^ image for v in perm]
        if {perm[g] for g in generators} == generators:
            group.append(tuple(perm))
    return tuple(group)


def _orbit_entry(group: Sequence[tuple[int, ...]], ext: int) -> tuple[int, dict[int, list]]:
    """(kept, children) at a node with stabiliser group and candidates ext: the least
    candidate of each orbit, as a mask, and {w: the child's stabiliser} where not trivial."""
    candidates = [v for v in range(ext.bit_length()) if ext >> v & 1]
    kept = 0
    children = {}
    rest = ext
    for i, w in enumerate(candidates):
        if not rest >> w & 1:
            continue
        kept |= 1 << w
        orbit = {sigma[w] for sigma in group}
        for v in orbit:
            rest &= ~(1 << v)
        if len(orbit) == len(group):  # |stabiliser of w| = |group| / |orbit| = 1
            continue
        child = [sigma for sigma in group if sigma[w] == w]
        if i:
            # sigma permutes ext and fixes w, so it maps the candidates
            # below w onto themselves iff none of the first i+1 goes above w.
            # At n <= 5 this drops no map, but the proof needs it
            below = itemgetter(*candidates[: i + 1])
            child = [sigma for sigma in child if max(below(sigma)) == w]
        if len(child) > 1:
            children[w] = child
    return kept, children


@lru_cache(maxsize=None)
def _stabiliser_table(spec: GraphSpec) -> dict[int, tuple[int, dict[int, list]]]:
    """{set mask: _orbit_entry of its node}, filled as the search first reaches it."""
    return {}


def _at_least(c0: int, c1: int, c2: int, need: int) -> int:
    """Mask of the vertices with at least `need` neighbours in the set, read
    from its count planes; -1 is every vertex. A candidate always has one
    neighbour in the set, so need <= 1 keeps all."""
    if need <= 1:
        return -1
    if need == 2:
        return c1 | c2
    if need == 3:
        return c2 | (c1 & c0)
    if need == 4:
        return c2
    if need == 5:
        return c2 & (c1 | c0)
    if need == 6:
        return c2 & c1
    if need == 7:
        return c2 & c1 & c0
    return 0


def _rooted_minima(
    spec: GraphSpec, m_lo: int, m_max: int, split: bool
) -> tuple[list[int], list[int | None]]:
    """(best, witness): the least boundary and a witness mask for every
    m_lo <= m <= m_max over the connected sets containing vertex 0, whose
    complement must be connected too when split is set. Arguments are not
    checked. Sizes below m_lo hold -infinity, so they never improve and add
    nothing to the thresholds. Incumbents start from the lexicographic
    segments, counted directly in the graph. Only that seed answers a size
    m <= 1: the root {0} is never grown again.
    """
    nbr = _neighbor_masks(spec)
    degree = spec.degree
    full = (1 << spec.num_vertices) - 1
    infinity = 1 << 62
    cap = MAX_SEARCH_STEPS

    best = [-infinity] * m_lo + [infinity] * (m_max + 1 - m_lo)
    witness: list[int | None] = [None] * (m_max + 1)
    for m in range(m_lo, m_max + 1):
        segment = (1 << m) - 1
        if mask_connected(spec, segment) and (not split or mask_connected(spec, full ^ segment)):
            best[m] = mask_boundary(spec, segment)
            witness[m] = segment

    table = _stabiliser_table(spec)
    trivial: dict[int, list] = {}  # below a trivial stabiliser every one is trivial
    steps = deepest = 0
    stale = True  # thr and limit are out of date with best
    root = (1, nbr[0], nbr[0] | 1, 1, degree, nbr[0], 0, 0, _automorphisms(spec))
    stack = [root] if m_max > 1 else []
    while stack:
        sub, ext, seen, size, bound, c0, c1, c2, group = stack.pop()
        if stale:
            # thr[j]: a size-j set with boundary >= thr[j] cannot improve any best[m'],
            # m' > j; limit[j]: nor best[j] itself. A node's children all have one
            # size j, and improving best[j] leaves thr[j] as it is, so updating
            # them here, before the next node, is as good as at once. Keeping this
            # `for` loop in the search's own frame also lets CPython 3.11 specialise
            # the search: it counts warm-up on calls and unconditional backward
            # jumps, and a `while cond:` loop closes with a conditional one.
            thr = [-infinity] * (m_max + 1)
            for j in range(m_max - 1, 0, -1):
                thr[j] = max(best[j + 1], thr[j + 1]) - degree + 2 * min(j, degree)
            limit = [max(pair) for pair in zip(best, thr)]
            stale = False
        candidates, children = ext, trivial
        if group is not None:
            if sub not in table:
                table[sub] = _orbit_entry(group, ext)
            candidates, children = table[sub]
        if size > deepest:
            deepest = size
        steps += candidates.bit_count()
        if steps > cap:
            raise _over_budget(steps - candidates.bit_count(), deepest)
        grown_size = size + 1
        # a child's boundary is bound + degree - 2*(its neighbours in sub)
        todo = candidates & _at_least(c0, c1, c2, (bound + degree - limit[grown_size]) // 2 + 1)
        while todo:
            wbit = todo & -todo
            todo ^= wbit
            w = wbit.bit_length() - 1
            wnbr = nbr[w]
            grown_bound = bound + degree - 2 * (wnbr & sub).bit_count()
            grown = sub | wbit
            if grown_bound < best[grown_size] and (
                not split or mask_connected(spec, full ^ grown)
            ):
                best[grown_size] = grown_bound
                witness[grown_size] = grown
                stale = True
            if grown_bound < thr[grown_size]:  # thr[m_max] is -infinity
                carry = c0 & wnbr
                stack.append((
                    grown, (ext & -(wbit << 1)) | (wnbr & ~seen), seen | wnbr, grown_size,
                    grown_bound, c0 ^ wnbr, c1 ^ carry, c2 ^ (c1 & carry), children.get(w),
                ))
    return best, witness


def xi_bruteforce_sweep(spec: GraphSpec, m_max: int) -> list[OracleResult]:
    """Exact minimum boundaries for every 1 <= m <= m_max, in one search.

    The rooted branch and bound over the connected sets grown from vertex
    0, which by translation attain every minimum, keeping a set only when
    its complement is connected too. Its bound is admissible (a vertex
    joining a size-j set has at most min(j, degree) neighbours in it), so
    the minima are exact; every reported minimum is attained by the
    recorded witness, whose two sides were both checked connected.
    """
    DomainError.require(spec.n, 2, MAX_EXHAUSTIVE_DIMENSION, "n")
    DomainError.require(m_max, 1, spec.half, "m_max")
    best, witness = _rooted_minima(spec, 1, m_max, split=True)
    results = []
    for m in range(1, m_max + 1):
        if witness[m] is None:
            raise RuntimeError(f"no size-{m} set with both sides connected was found")
        results.append(OracleResult(spec.n, spec.k, m, best[m], _members(witness[m])))
    return results


def ex_bruteforce(spec: GraphSpec, m: int) -> int:
    """Exact ex_m: twice the maximum induced edge count over size-m sets.

    A size-m set has degree*m - (its boundary) doubled induced edges, and
    its complement has the same boundary, so the least boundary over sets
    of size s = min(m, 2^n - m) gives ex_m. That is the rooted branch and
    bound for size s alone, with the same min(j, degree) bound and no
    condition on the complement; m = 2^n gives s = 0 and boundary 0. Only
    connected sets containing vertex 0 are searched, at every n.
    Translation puts 0 in any set, and the minimiser is connected for these
    graphs (for Q_n the lexicographic segment, by Harper's
    edge-isoperimetric theorem); the tests check the answers against every
    subset for every graph with n <= 4.
    """
    DomainError.require(spec.n, 2, MAX_EXHAUSTIVE_DIMENSION, "n")
    DomainError.require(m, 1, spec.num_vertices, "m")
    s = min(m, spec.num_vertices - m)
    best, _ = _rooted_minima(spec, s, s, split=False)
    return spec.degree * m - best[s]


def sample_cuts(spec: GraphSpec, samples: int, seed: int) -> Iterator[CutSample]:
    """Seeded random cuts with both sides connected.

    Each sample grows a connected set by a random walk from a random start
    vertex, crossing the edge of a random generator at each step, until a
    random target size of at most half the vertices, then keeps it only if
    the complement is connected too. A walk that lands on visited vertices
    64*degree*target times first is abandoned; up to SAMPLE_RETRIES
    regrowths are attempted before the sample is skipped. The generators
    are drawn in batches by random.choices and visits are marked in a byte
    table (see the module docstring). The generator is random.Random
    (Mersenne Twister), and choices takes floor(random() * len), so a fixed
    seed replays the identical stream on any platform. The seed is an
    int >= 0 (random.Random seeds by absolute value, so a negative seed
    would replay its mirror).
    """
    DomainError.require(spec.n, 2, MAX_SAMPLING_DIMENSION, "n")
    DomainError.require(samples, 0, None, "samples")
    DomainError.require(seed, 0, None, "seed")
    return _sampled_cuts(spec, samples, seed)


def _sampled_cuts(spec: GraphSpec, samples: int, seed: int) -> Iterator[CutSample]:
    total = spec.num_vertices
    generators = spec.generators
    full = (1 << total) - 1
    rng = random.Random(seed)
    walk_cap = 64 * spec.degree

    for _ in range(samples):
        for _attempt in range(SAMPLE_RETRIES):
            target = rng.randint(1, spec.half)
            current = rng.randrange(total)
            visited = bytearray(total)
            visited[current] = 1
            size = 1
            stalls = 0
            stall_cap = walk_cap * target
            while size < target and stalls < stall_cap:
                for g in rng.choices(generators, k=2 * (target - size) + 8):
                    current ^= g
                    if visited[current]:
                        stalls += 1
                        if stalls == stall_cap:
                            break
                    else:
                        visited[current] = 1
                        size += 1
                        if size == target:
                            break
            if size < target:
                continue
            mask = table_mask(visited)
            if mask_connected(spec, full ^ mask):
                yield CutSample(
                    h=size,
                    cut_size=mask_boundary(spec, mask),
                    both_connected=True,
                )
                break
