import inspect
import math
import random
import re
from collections import Counter
from contextlib import contextmanager
from itertools import chain, combinations, islice, repeat
from types import SimpleNamespace

import graph_reference as ref
import oracle_reference
import pytest

import extraconn
from extraconn import (
    DomainError,
    GraphSpec,
    ResourceLimitError,
    enumerate_connected_subsets,
    ex,
    ex_bruteforce,
    lambda_profile,
    sample_cuts,
    xi,
    xi_bruteforce_sweep,
)
from extraconn import errors, oracle
from extraconn.oracle import (
    SAMPLE_RETRIES,
    _at_least,
    _automorphisms,
    _byte_draw,
    _orbit_entry,
    _stabiliser_table,
)

ALL_SPECS_UP_TO_4 = [GraphSpec(n, k) for n in range(2, 5) for k in (None, *range(1, n))]
N5_SPECS = [GraphSpec(5, k) for k in (None, 1, 2, 3, 4)]


def _spec_id(spec):
    return f"n{spec.n}-k{spec.k}"


@contextmanager
def _search_cap(steps):
    """Run the block with the oracle's extension-step cap set to steps."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "MAX_SEARCH_STEPS", steps)
        yield


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_connected_subsets(GraphSpec(3, 2), 1)) == 8
    assert sum(1 for _ in enumerate_connected_subsets(GraphSpec(3, 2), 8)) == 1
    # connected pairs are exactly the edges
    assert sum(1 for _ in enumerate_connected_subsets(GraphSpec(4, 2), 2)) == 40


@pytest.mark.parametrize("m", range(1, 6))
def test_enumerate_yields_each_connected_set_once(m):
    for k in (None, 1, 2, 3):
        spec = GraphSpec(4, k)
        seen = set()
        for members in enumerate_connected_subsets(spec, m):
            assert len(members) == m, spec
            assert ref.connected(spec, members), spec
            assert members not in seen, spec
            seen.add(members)
        # cross-count against a direct sweep of all subsets
        expected = sum(1 for combo in combinations(range(16), m) if ref.connected(spec, combo))
        assert len(seen) == expected, spec


def _enumeration_run(sets) -> tuple[list[frozenset[int]], str | None]:
    """The sets an enumeration yields, in order, and its budget error or None."""
    out = []
    try:
        for members in sets:
            out.append(members)
    except ResourceLimitError as exc:
        return out, str(exc)
    return out, None


@pytest.mark.parametrize(
    "spec, m_max",
    [(spec, spec.num_vertices) for spec in ALL_SPECS_UP_TO_4]
    + [(GraphSpec(5, k), 5) for k in (None, 1, 2)],
    ids=lambda value: _spec_id(value) if isinstance(value, GraphSpec) else f"m{value}",
)
def test_enumerate_matches_mask_reference(spec, m_max):
    # the same frozensets in the same order as the mask-and-decode enumeration
    for m in range(1, m_max + 1):
        want = list(oracle_reference.connected_subsets(spec, m, errors.MAX_SEARCH_STEPS))
        assert list(enumerate_connected_subsets(spec, m)) == want


def test_enumerate_budget_matches_mask_reference():
    spec = GraphSpec(4, 2)
    for budget in range(61):
        want = _enumeration_run(oracle_reference.connected_subsets(spec, 5, budget))
        assert want[1] is not None  # every budget here runs out
        with _search_cap(budget):
            assert _enumeration_run(enumerate_connected_subsets(spec, 5)) == want


def test_enumerate_rejects_large_dimension():
    with pytest.raises(DomainError):
        list(enumerate_connected_subsets(GraphSpec(6, 2), 3))


def test_generators_check_arguments_at_the_call():
    # no iteration: the bad argument is refused when the call is made
    with pytest.raises(DomainError):
        enumerate_connected_subsets(GraphSpec(9, 2), 2)
    with pytest.raises(DomainError):
        enumerate_connected_subsets(GraphSpec(4, 2), 17)
    with pytest.raises(DomainError):
        sample_cuts(GraphSpec(4, 2), 2.0, 0)
    with pytest.raises(DomainError):
        sample_cuts(GraphSpec(13, 2), 1, 0)
    with pytest.raises(DomainError):
        sample_cuts(GraphSpec(4, 2), 1, -1)


def test_enumerate_budget_exhaustion():
    with _search_cap(10), pytest.raises(ResourceLimitError) as excinfo:
        list(enumerate_connected_subsets(GraphSpec(4, 2), 5))
    # 5 candidates at {0}, 4 at {0, 8}, and the 10th at the size-3 set {0, 8, 15}
    assert _over_budget_report(excinfo) == (5 + 4 + 1, 3)


def test_search_cap_is_not_an_argument():
    # the cap is errors.MAX_SEARCH_STEPS alone; no search takes a budget of its own
    assert oracle.MAX_SEARCH_STEPS == errors.MAX_SEARCH_STEPS == 10**9
    for name in ("enumerate_connected_subsets", "xi_bruteforce_sweep", "ex_bruteforce"):
        assert "budget" not in inspect.signature(getattr(extraconn, name)).parameters


def _over_budget_report(excinfo) -> tuple[int, int]:
    found = re.search(r"after (\d+) steps, with sets of up to (\d+) vertices", str(excinfo.value))
    assert found, str(excinfo.value)
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("m_max", [2, 3, 8])
def test_sweep_zero_budget_reports_progress(m_max):
    with _search_cap(0), pytest.raises(ResourceLimitError) as excinfo:
        xi_bruteforce_sweep(GraphSpec(5, 2), m_max)
    assert _over_budget_report(excinfo) == (0, 1)


@pytest.mark.parametrize("m", [3, 4, 7])
def test_ex_bruteforce_zero_budget_reports_progress(m):
    with _search_cap(0), pytest.raises(ResourceLimitError) as excinfo:
        ex_bruteforce(GraphSpec(5, 2), m)
    assert _over_budget_report(excinfo) == (0, 1)


def test_budget_overrun_reports_how_far_the_search_got():
    with _search_cap(2000), pytest.raises(ResourceLimitError) as excinfo:
        xi_bruteforce_sweep(GraphSpec(5, 1), 9)
    steps, deepest = _over_budget_report(excinfo)
    assert 0 < steps <= 2000
    assert 2 < deepest < 9
    with _search_cap(500), pytest.raises(ResourceLimitError) as excinfo:
        ex_bruteforce(GraphSpec(5, 2), 8)
    steps, deepest = _over_budget_report(excinfo)
    assert 0 < steps <= 500
    assert 2 < deepest < 8
    spec = GraphSpec(4, 2)
    _, steps = oracle_reference.ex_connected(spec, 3, oracle_reference.automorphisms(spec))
    # p = 3, c = 7: the group permutes {1, 2, 4, 7} and fixes 8 (24 maps).
    # The root {0} expands 1 and 8, one per orbit. {0, 8} excludes 1, 2, 4
    # and 7, which its whole group keeps setwise, and its candidates 9, 10,
    # 12 and 15 are 8 plus each of them: one orbit, so one step. {0, 1} is
    # fixed by the 6 maps permuting {2, 4, 7}; its candidates fall into
    # orbits {2, 4, 7}, {8}, {3, 5, 6} and {9}, so 2, 3, 8 and 9, four steps
    assert steps == 2 + 4 + 1
    # {0, 8} is pushed last and popped first: the budget runs out at {0, 1}
    with _search_cap(6), pytest.raises(ResourceLimitError) as excinfo:
        ex_bruteforce(spec, 3)
    assert _over_budget_report(excinfo) == (2 + 1, 2)


def test_default_budget_answers():
    spec = GraphSpec(5, 2)
    assert [r.xi_exact for r in xi_bruteforce_sweep(spec, 6)] == [xi(spec, m) for m in range(1, 7)]
    assert ex_bruteforce(spec, 7) == ex(spec, 7)


def _check_against_reference(spec, m_max):
    everything = frozenset(range(spec.num_vertices))
    want, _ = oracle_reference.xi_sweep(spec, m_max)
    rooted, steps = oracle_reference.xi_sweep(spec, m_max, oracle_reference.automorphisms(spec))
    # first from an empty stabiliser table, then from one that ex_bruteforce's
    # searches (split=False) filled: the entries do not depend on the search
    for fill in ((), range(1, m_max + 1)):
        _stabiliser_table.cache_clear()
        for m in fill:
            ex_bruteforce(spec, m)
        results = xi_bruteforce_sweep(spec, m_max)
        assert [r.xi_exact for r in results] == [value for value, _ in want]
        for result in results:
            assert len(result.witness) == result.m
            assert ref.connected(spec, result.witness)
            assert ref.connected(spec, everything - result.witness)
            assert ref.boundary(spec, result.witness) == result.xi_exact
        # the orbit entries, computed or read from the table, and the count filter skip
        # only what the group reference skips: same witnesses and exactly the same step
        # count as its per-candidate loop
        assert [(r.xi_exact, r.witness) for r in results] == rooted
        with _search_cap(steps):
            assert xi_bruteforce_sweep(spec, m_max) == results
        if steps:
            with _search_cap(steps - 1), pytest.raises(ResourceLimitError):
                xi_bruteforce_sweep(spec, m_max)


def _check_ex_against_reference(spec, m):
    want = oracle_reference.ex_connected(spec, m)[0]
    # the package searches the smaller side, whose boundary is the same
    s = min(m, spec.num_vertices - m)
    rooted, steps = oracle_reference.ex_connected(spec, s, oracle_reference.automorphisms(spec))
    assert rooted + spec.degree * (m - s) == want
    # first from an empty stabiliser table, then from one that the sweep
    # (split=True) filled
    for fill in (0, max(s, 1)):
        _stabiliser_table.cache_clear()
        if fill:
            xi_bruteforce_sweep(spec, fill)
        assert ex_bruteforce(spec, m) == want
        with _search_cap(steps):
            assert ex_bruteforce(spec, m) == want
        if steps:
            with _search_cap(steps - 1), pytest.raises(ResourceLimitError):
                ex_bruteforce(spec, m)


@pytest.mark.parametrize("spec", ALL_SPECS_UP_TO_4, ids=_spec_id)
def test_sweep_matches_reference_small(spec):
    _check_against_reference(spec, spec.half)


@pytest.mark.parametrize("spec", ALL_SPECS_UP_TO_4, ids=_spec_id)
def test_ex_bruteforce_matches_reference_small(spec):
    for m in range(1, spec.num_vertices + 1):
        _check_ex_against_reference(spec, m)


@pytest.mark.parametrize("spec", N5_SPECS, ids=_spec_id)
def test_sweep_matches_reference_n5(spec):
    _check_against_reference(spec, 8)


@pytest.mark.parametrize("spec", N5_SPECS, ids=_spec_id)
def test_ex_bruteforce_matches_reference_n5(spec):
    for m in range(1, 8):
        _check_ex_against_reference(spec, m)


@pytest.mark.parametrize("k", [None, 2])
def test_ex_bruteforce_above_half_searches_the_complement(k):
    spec = GraphSpec(5, k)
    for m in (20, 24, 28, 32):
        assert ex_bruteforce(spec, m) == ex(spec, m), m


@pytest.mark.parametrize("spec", N5_SPECS, ids=_spec_id)
def test_at_least_reads_count_planes(spec):
    rng = random.Random(spec.degree * 10 + (spec.k or 0))
    for _ in range(50):
        members = frozenset(rng.sample(range(spec.num_vertices), rng.randint(1, 20)))
        counts = [len(ref.neighbors(spec, v) & members) for v in range(spec.num_vertices)]
        c0, c1, c2 = (
            sum(1 << v for v, count in enumerate(counts) if count >> bit & 1) for bit in range(3)
        )
        for need in range(2, 10):
            want = sum(1 << v for v, count in enumerate(counts) if count >= need)
            assert _at_least(c0, c1, c2, need) == want
        # a candidate always has a neighbour in the set: need <= 1 keeps every vertex
        for need in (-1, 0, 1):
            assert _at_least(c0, c1, c2, need) == -1


@pytest.mark.parametrize("spec", ALL_SPECS_UP_TO_4 + N5_SPECS, ids=_spec_id)
def test_automorphism_group(spec):
    group = _automorphisms(spec)
    assert set(group) == set(oracle_reference.automorphisms(spec))
    p = spec.n if spec.k is None else spec.n - spec.k + 1
    if spec.k is None:
        size = math.factorial(spec.n)
    elif spec.k == 1:
        size = math.factorial(spec.n + 1)
    else:
        size = math.factorial(p + 1) * math.factorial(spec.n - p)
    assert len(group) == len(set(group)) == size
    generators = set(spec.generators)
    for perm in group:
        assert perm[0] == 0
        assert {perm[g] for g in generators} == generators


def _orbit_swap(spec, u):
    """(map, representative): the GF(2)-linear map swapping the neighbour u of
    vertex 0 with its orbit's representative, and that representative."""
    p = spec.n if spec.k is None else spec.n - spec.k + 1
    images = [1 << j for j in range(spec.n)]  # image of each unit vector e_(j+1)
    if u == spec.complement_mask:
        representative = 1
        images[0] = u  # e_1 -> c, so c = e_1 + ... + e_p -> e_1
    else:
        j = u.bit_length() - 1
        representative = 1 if j < p else 1 << p
        first = representative.bit_length() - 1
        images[first], images[j] = images[j], images[first]

    def apply(v):
        out = 0
        for j, image in enumerate(images):
            if v >> j & 1:
                out ^= image
        return out

    return apply, representative


@pytest.mark.parametrize("spec", ALL_SPECS_UP_TO_4 + N5_SPECS, ids=_spec_id)
def test_root_orbit_symmetry(spec):
    # every neighbour of 0 is mapped onto a hand-derived root by a linear
    # automorphism that fixes 0 and keeps the first orbit, {e_1..e_p, c}, setwise;
    # those roots are the orbit minima the searches expand at {0}
    p = spec.n if spec.k is None else spec.n - spec.k + 1
    generators = set(spec.generators)
    first_orbit = {1 << j for j in range(p)} | ({spec.complement_mask} if spec.k else set())
    representatives = set()
    for u in ref.neighbors(spec, 0):
        apply, representative = _orbit_swap(spec, u)
        assert apply(u) == representative and apply(representative) == u
        assert {apply(g) for g in generators} == generators
        assert apply(0) == 0
        assert {apply(g) for g in first_orbit} == first_orbit
        for v in range(spec.num_vertices):
            assert {apply(w) for w in ref.neighbors(spec, v)} == ref.neighbors(spec, apply(v))
        assert tuple(map(apply, range(spec.num_vertices))) in _automorphisms(spec)
        representatives.add(representative)
    roots = oracle_reference.root_candidates(spec)
    neighbours_of_0 = sum(1 << u for u in ref.neighbors(spec, 0))
    assert _orbit_entry(_automorphisms(spec), neighbours_of_0)[0] == roots
    assert representatives == {v for v in range(spec.num_vertices) if roots >> v & 1}
    # a root's branch excludes the neighbours of 0 below it: nothing for
    # vertex 1, exactly the first orbit for vertex 2^p
    for representative in representatives:
        before = {g for g in generators if g < representative}
        assert before == (set() if representative == 1 else first_orbit)


def test_orbit_entry_keeps_only_the_maps_fixing_the_candidates_below():
    # on Q_4, sigma swaps bits 1 and 3 and fixes 5 = 0b0101, but it sends the
    # candidate 2, below 5, to 8, above it: so it does not map B_5 = {2, 5}
    # onto itself, and the child through 5 gets the trivial stabiliser
    identity = tuple(range(16))
    sigma = tuple(v & 0b0101 | (v >> 2 & 0b10) | (v << 2 & 0b1000) for v in range(16))
    assert sorted(sigma[v] for v in (2, 5, 8)) == [2, 5, 8] and sigma[2] == 8
    assert _orbit_entry((identity, sigma), 1 << 2 | 1 << 5 | 1 << 8) == (1 << 2 | 1 << 5, {})


def test_cold_query_fills_only_the_nodes_it_reaches():
    spec = GraphSpec(5, 2)
    _stabiliser_table.cache_clear()
    assert ex_bruteforce(spec, 3) == ex(spec, 3)
    # a size-3 search pops only nodes of sizes 1 and 2, and fills only those
    assert {sub.bit_count() for sub in _stabiliser_table(spec)} == {1, 2}


def test_xi_bruteforce_examples():
    results = xi_bruteforce_sweep(GraphSpec(4, 2), 8)
    assert results[3].xi_exact == 12
    assert results[7].xi_exact == 8


def test_xi_bruteforce_witness_revalidates():
    spec = GraphSpec(4, 2)
    everything = frozenset(range(spec.num_vertices))
    # m_max = 1 leaves the search stack empty: only the root {0} is checked
    for m_max in (1, 8):
        results = xi_bruteforce_sweep(spec, m_max)
        assert [result.m for result in results] == list(range(1, m_max + 1))
        for result in results:
            assert len(result.witness) == result.m
            assert ref.connected(spec, result.witness)
            assert ref.connected(spec, everything - result.witness)
            assert ref.boundary(spec, result.witness) == result.xi_exact


def test_search_improves_on_a_seed_above_the_minimum(monkeypatch):
    # The segment seeds are optimal for every graph here, so the search never
    # replaces one. Seeding every incumbent 2 above the segment's boundary makes
    # the search find each minimum and its witness itself. Searched size
    # s = min(m, 2^n - m) <= 1 is left out: only the seed answers it, since the
    # root {0} is never grown again.
    cases = [(spec, spec.half) for spec in ALL_SPECS_UP_TO_4]
    cases += [(GraphSpec(5, k), 8) for k in (None, 2)]
    ex_sizes = {spec: range(2, 9 if spec.n == 5 else spec.num_vertices - 1) for spec, _ in cases}
    sweeps = {spec: xi_bruteforce_sweep(spec, m_max)[1:] for spec, m_max in cases}
    exs = {spec: [ex_bruteforce(spec, m) for m in ex_sizes[spec]] for spec, _ in cases}
    real = oracle.mask_boundary
    monkeypatch.setattr(oracle, "mask_boundary", lambda spec, mask: real(spec, mask) + 2)
    off_segment = 0
    for spec, m_max in cases:
        results = xi_bruteforce_sweep(spec, m_max)[1:]
        assert [r.xi_exact for r in results] == [r.xi_exact for r in sweeps[spec]], spec
        assert [ex_bruteforce(spec, m) for m in ex_sizes[spec]] == exs[spec], spec
        everything = frozenset(range(spec.num_vertices))
        for result in results:
            assert len(result.witness) == result.m
            assert ref.connected(spec, result.witness)
            assert ref.connected(spec, everything - result.witness)
            assert ref.boundary(spec, result.witness) == result.xi_exact
            off_segment += result.witness != ref.lexicographic_set(spec.n, result.m)
    assert off_segment


@pytest.mark.parametrize("n", [3, 4])
def test_oracle_matches_formula_plain(n):
    spec = GraphSpec(n)
    for result in xi_bruteforce_sweep(spec, spec.num_vertices // 2):
        assert result.xi_exact == n * result.m - ex(spec, result.m)


def test_oracle_matches_formula_enhanced_n4():
    spec = GraphSpec(4, 2)
    family = GraphSpec(4, 2)
    for result in xi_bruteforce_sweep(spec, 8):
        assert result.xi_exact == xi(family, result.m)


def test_oracle_matches_formula_enhanced_n5_prefix():
    # the full m range is covered by the acceptance suite; keep this quick
    spec = GraphSpec(5, 2)
    family = GraphSpec(5, 2)
    for result in xi_bruteforce_sweep(spec, 6):
        assert result.xi_exact == xi(family, result.m)


@pytest.mark.parametrize("k", [None, 1, 2])
def test_pruned_search_agrees_with_plain_enumeration(k):
    # same minima through the reference's unpruned enumeration, built from
    # graph_reference and so sharing no code with the search, complement filtered;
    # Q_{4,1} has no closed form, so this is its only independent check
    spec = GraphSpec(4, k)
    everything = frozenset(range(spec.num_vertices))
    results = xi_bruteforce_sweep(spec, 8)
    for m in range(1, 9):
        plain_min = min(
            ref.boundary(spec, members)
            for members in oracle_reference.connected_subsets(spec, m, errors.MAX_SEARCH_STEPS)
            if ref.connected(spec, everything - members)
        )
        assert results[m - 1].xi_exact == plain_min


def test_lambda_bruteforce():
    # exact lambda_h: the minimum of the exact xi_m over h <= m <= 2^(n-1)
    spec = GraphSpec(4, 2)
    exact = [result.xi_exact for result in xi_bruteforce_sweep(spec, 8)]
    lambdas = [min(exact[h - 1 :]) for h in range(1, 9)]
    assert lambdas[2] == 8
    profile = lambda_profile(spec)
    assert lambdas == [profile.lambda_at(h) for h in range(1, 9)]
    with pytest.raises(DomainError):
        xi_bruteforce_sweep(spec, 9)


def test_ex_bruteforce_examples():
    assert ex_bruteforce(GraphSpec(4, 2), 8) == 32
    assert ex_bruteforce(GraphSpec(4, 2), 4) == 8
    assert ex_bruteforce(GraphSpec(4), 2) == 2


def test_ex_bruteforce_matches_formula_n4_all_subsets():
    spec = GraphSpec(4, 2)
    for m in range(1, 17):
        assert ex_bruteforce(spec, m) == ex(spec, m)


def test_ex_bruteforce_n5_connected():
    spec = GraphSpec(5, 2)
    for m in (1, 2, 4, 6):
        assert ex_bruteforce(spec, m) == ex(spec, m)
    assert ex_bruteforce(GraphSpec(5), 6) == ex(GraphSpec(5), 6)


@pytest.mark.parametrize("spec", ALL_SPECS_UP_TO_4, ids=_spec_id)
def test_ex_bruteforce_matches_unrooted_sweep_n4(spec):
    # reference: every subset, not only the connected ones containing vertex 0
    everything = range(spec.num_vertices)
    for m in range(1, spec.num_vertices + 1):
        expected = max(ref.induced_double_edges(spec, combo) for combo in combinations(everything, m))
        assert ex_bruteforce(spec, m) == expected


@pytest.mark.parametrize("k", [None, 1, 2])
def test_ex_bruteforce_matches_connected_enumeration_n5(k):
    # reference: every connected set, grown from each start vertex by the
    # reference enumeration, which shares no code with the search
    spec = GraphSpec(5, k)
    for m in range(1, 6):
        expected = max(
            ref.induced_double_edges(spec, members)
            for members in oracle_reference.connected_subsets(spec, m, errors.MAX_SEARCH_STEPS)
        )
        assert ex_bruteforce(spec, m) == expected


def test_ex_bruteforce_rejects_large_dimension():
    with pytest.raises(DomainError):
        ex_bruteforce(GraphSpec(6, 2), 4)


def test_sample_cuts_deterministic():
    spec = GraphSpec(5, 2)
    first = list(sample_cuts(spec, 300, seed=42))
    second = list(sample_cuts(spec, 300, seed=42))
    assert first == second
    assert list(sample_cuts(spec, 50, seed=1)) != list(sample_cuts(spec, 50, seed=2))


def test_sample_cuts_respect_lower_bound():
    spec = GraphSpec(5, 2)
    family = GraphSpec(5, 2)
    cuts = list(sample_cuts(spec, 2000, seed=9))
    assert cuts
    for cut in cuts:
        assert cut.both_connected
        assert 1 <= cut.h <= 16
        assert cut.cut_size >= xi(family, cut.h)
    observed_h6 = {cut.cut_size for cut in cuts if cut.h == 6}
    assert observed_h6 <= {22, 24, 26, 28, 30, 32, 34}


def test_sample_cuts_rejects_large_dimension():
    with pytest.raises(DomainError):
        list(sample_cuts(GraphSpec(13, 2), 1, seed=0))


class _ScriptedRandom:
    """Stands in for random.Random in the sampler: randint and randrange
    return fixed values, and randbytes hands out the next k values of one
    fixed sequence, as bytes. A generator index is below the degree, so the
    sampler's rejection table keeps it and maps it to itself."""

    def __init__(self, target, start, indices):
        self.target = target
        self.start = start
        self.indices = indices
        self.randint_calls = 0

    def randint(self, a, b):
        self.randint_calls += 1
        return self.target

    def randrange(self, stop):
        return self.start

    def randbytes(self, k):
        return bytes(islice(self.indices, k))


def _script(monkeypatch, scripted):
    monkeypatch.setattr(oracle, "random", SimpleNamespace(Random=lambda seed: scripted))


def _indices(spec, generators):
    """The sampler's index of each generator, in the reference order."""
    return map(ref.generators(spec).index, generators)


def _generator_sequence(spec, seed, indices):
    """An endless seeded sequence of generators, read off the reference edge
    definition: their indices for the scripted sampler when indices is set,
    else the generators themselves for the reference walk."""
    generators = ref.generators(spec)
    rng = random.Random(seed)
    while True:
        i = rng.randrange(len(generators))
        yield i if indices else generators[i]


SAMPLER_SPECS = [GraphSpec(n, k) for n in range(3, 13) for k in (None, 1, 2)]


@pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=_spec_id)
def test_sampler_walk_matches_per_step_reference(spec, monkeypatch):
    # the batched walk must visit exactly what the per-step walk visits
    # over the same generator sequence, from the same start to the same target
    start = spec.num_vertices - 1
    for target in sorted({2, spec.half * 3 // 4}):
        scripted = _ScriptedRandom(target, start, _generator_sequence(spec, 1, indices=True))
        _script(monkeypatch, scripted)
        first = next(sample_cuts(spec, 1, seed=0))
        mask = oracle_reference.walk(
            start, target, _generator_sequence(spec, 1, indices=False), 64 * spec.degree * target
        )
        walked = oracle_reference.members(mask)
        # so the first attempt is the one kept
        assert ref.connected(spec, frozenset(range(spec.num_vertices)) - walked)
        assert first == extraconn.CutSample(
            h=len(walked), cut_size=ref.boundary(spec, walked), both_connected=True
        )
        assert scripted.randint_calls == 1


@pytest.mark.parametrize("degree", range(2, 14))
def test_byte_draw_is_uniform(degree):
    # degree 2 (Q_2) to 13 (Q_{12,k}): every byte value is kept or rejected once
    index, reject = _byte_draw(degree)
    kept = bytes(range(256)).translate(index, reject)
    assert Counter(kept) == {i: 256 // degree for i in range(degree)}
    assert reject == bytes(range(256 - 256 % degree, 256))
    if degree & (degree - 1) == 0:
        assert reject == b""


@pytest.mark.parametrize("spec", [GraphSpec(4, 2), GraphSpec(9, 2), GraphSpec(12)], ids=_spec_id)
def test_sampler_maps_bytes_by_the_rejection_table(spec, monkeypatch):
    # each index i is scripted as a random byte b with b % degree == i, after
    # a random number of rejected bytes (degrees 5, 10 and 12 have some),
    # which the walk must skip
    degree = spec.degree
    keep = 256 - 256 % degree
    rng = random.Random(spec.n)

    def raw_bytes(indices):
        for i in indices:
            yield from (rng.randrange(keep, 256) for _ in range(rng.randrange(3)))
            yield i + degree * rng.randrange(keep // degree)

    start, target = 3, spec.half // 2
    raw = raw_bytes(_generator_sequence(spec, 2, indices=True))
    scripted = _ScriptedRandom(target, start, raw)
    _script(monkeypatch, scripted)
    first = next(sample_cuts(spec, 1, seed=0))
    mask = oracle_reference.walk(
        start, target, _generator_sequence(spec, 2, indices=False), 64 * degree * target
    )
    walked = oracle_reference.members(mask)
    assert ref.connected(spec, frozenset(range(spec.num_vertices)) - walked)
    assert first == extraconn.CutSample(len(walked), ref.boundary(spec, walked), True)


def test_sampler_gives_up_after_stalls_and_retries(monkeypatch):
    # one generator only: the walk bounces between two vertices and stalls
    spec = GraphSpec(4, 2)
    target, samples = 3, 4
    scripted = _ScriptedRandom(target, 5, _indices(spec, repeat(1)))
    _script(monkeypatch, scripted)
    assert list(sample_cuts(spec, samples, seed=0)) == []
    assert scripted.randint_calls == samples * SAMPLE_RETRIES


@pytest.mark.parametrize("spec", [GraphSpec(12), GraphSpec(12, 2)], ids=_spec_id)
def test_sample_cuts_at_the_dimension_cap(spec):
    cuts = list(sample_cuts(spec, 30, seed=5))
    assert cuts
    for cut in cuts:
        assert cut.both_connected
        assert 1 <= cut.h <= 2048
        assert cut.cut_size >= xi(spec, cut.h)
        assert (cut.cut_size - spec.degree * cut.h) % 2 == 0
    assert list(sample_cuts(spec, 30, seed=5)) == cuts


@pytest.mark.parametrize("extra", [0, 1])
def test_sampler_stall_cap_is_checked_on_every_step(extra, monkeypatch):
    # after one new vertex, stall_cap - 1 + extra revisits, then a new vertex:
    # the walk reaches target 3 only if the cap was not hit first
    spec = GraphSpec(4, 2)
    target = 3
    stall_cap = 64 * spec.degree * target
    prefix = [1] * (stall_cap + extra) + [2]
    scripted = _ScriptedRandom(target, 5, _indices(spec, chain(prefix, repeat(1))))
    _script(monkeypatch, scripted)
    cuts = list(sample_cuts(spec, 1, seed=0))
    mask = oracle_reference.walk(5, target, chain(prefix, repeat(1)), stall_cap)
    if extra:
        assert mask is None
        assert cuts == []
    else:
        walked = oracle_reference.members(mask)
        assert walked == {5, 4, 5 ^ 2}  # the cap is even, so the walk is back at 5
        assert cuts == [extraconn.CutSample(3, ref.boundary(spec, walked), True)]


def test_sampler_drops_a_walk_whose_complement_is_disconnected(monkeypatch):
    # from 1 the walk visits every neighbour of 0 but not 0, so 0 is cut off;
    # every retry then bounces on one generator until the stall cap
    spec = GraphSpec(4)
    prefix = [2, 1, 1, 2, 4, 1, 1, 4, 8, 1]
    walked = oracle_reference.members(oracle_reference.walk(1, 7, iter(prefix), 64 * 4 * 7))
    assert walked == {1, 2, 3, 4, 5, 8, 9}
    assert not ref.connected(spec, frozenset(range(16)) - walked)
    scripted = _ScriptedRandom(7, 1, _indices(spec, chain(prefix, repeat(1))))
    _script(monkeypatch, scripted)
    assert list(sample_cuts(spec, 1, seed=0)) == []
    assert scripted.randint_calls == SAMPLE_RETRIES
