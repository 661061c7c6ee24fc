import itertools
import random

import graph_reference as ref
import numpy as np
import pytest
from graph_reference import (
    edge_count,
    lexicographic_set,
    neighbors,
    pbm_text_by_rows,
    write_pbm,
)

from extraconn import (
    DomainError,
    GraphSpec,
    ResourceLimitError,
    adjacency_bitmap,
    boundary_size,
    graphs,
    induced_double_edge_count,
    is_connected_subset,
    pbm_text,
)
from extraconn.errors import MAX_SET_DIMENSION
from extraconn.graphs import _image, _members_mask, mask_boundary, mask_connected


def test_spec_validation():
    with pytest.raises(DomainError):
        GraphSpec(1)
    with pytest.raises(DomainError):
        GraphSpec(63)
    with pytest.raises(DomainError):
        GraphSpec(4, 0)
    with pytest.raises(DomainError):
        GraphSpec(4, 4)
    assert GraphSpec(4, 2).degree == 5
    assert GraphSpec(4).degree == 4
    assert GraphSpec(5, 2).complement_mask == 0b1111
    assert GraphSpec(5).complement_mask is None


def test_neighbors_enhanced_small():
    # flipping any single bit, plus the complementary partner flipping bits 1..n-k+1
    assert neighbors(GraphSpec(3, 2), 0b000) == {0b001, 0b010, 0b100, 0b011}
    assert neighbors(GraphSpec(4), 0) == {1, 2, 4, 8}
    # the package's edge definition agrees
    assert set(GraphSpec(3, 2).generators) == {0b001, 0b010, 0b100, 0b011}
    assert set(GraphSpec(4).generators) == {1, 2, 4, 8}


def test_neighbors_regular_degree():
    spec = GraphSpec(4, 2)
    for v in range(spec.num_vertices):
        assert len(neighbors(spec, v)) == 5


def test_neighbors_rejects_bad_vertex():
    spec = GraphSpec(4, 2)
    for call in (neighbors, lambda s, v: is_connected_subset(s, {0, v})):
        with pytest.raises(DomainError):
            call(spec, 16)
        with pytest.raises(DomainError):
            call(spec, -1)
    for call in (boundary_size, induced_double_edge_count):
        with pytest.raises(DomainError):
            call(spec, {0, 16})
        with pytest.raises(DomainError):
            call(spec, {-1})


@pytest.mark.parametrize(
    "n,k,expected",
    [(4, 2, 40), (3, None, 12), (5, 2, 96), (3, 2, 16), (3, 1, 16)],
)
def test_edge_count(n, k, expected):
    spec = GraphSpec(n, k)
    assert edge_count(spec) == expected
    assert adjacency_bitmap(spec).sum() == 2 * expected
    assert induced_double_edge_count(spec, range(spec.num_vertices)) == 2 * expected


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 11) for k in (None, 1, 2) if k is None or k < n])
def test_handshake(n, k):
    spec = GraphSpec(n, k)
    total = sum(len(neighbors(spec, v)) for v in range(spec.num_vertices))
    assert total == 2 * edge_count(spec)
    assert induced_double_edge_count(spec, range(spec.num_vertices)) == total


def test_lexicographic_set():
    assert lexicographic_set(4, 4) == {0, 1, 2, 3}
    assert lexicographic_set(4, 1) == {0}
    assert lexicographic_set(4, 8) == frozenset(range(8))
    with pytest.raises(DomainError):
        lexicographic_set(4, 0)
    with pytest.raises(DomainError):
        lexicographic_set(4, 17)


def test_induced_double_edge_count():
    spec = GraphSpec(4, 2)
    assert induced_double_edge_count(spec, lexicographic_set(4, 4)) == 8
    assert induced_double_edge_count(spec, lexicographic_set(4, 8)) == 32
    assert induced_double_edge_count(spec, {5}) == 0
    assert induced_double_edge_count(GraphSpec(6), {9}) == 0


def test_boundary_size_values():
    assert boundary_size(GraphSpec(4, 2), lexicographic_set(4, 4)) == 12
    assert boundary_size(GraphSpec(4, 2), lexicographic_set(4, 8)) == 8
    assert boundary_size(GraphSpec(5, 2), lexicographic_set(5, 6)) == 22


def test_boundary_size_rejects_degenerate():
    spec = GraphSpec(3, 2)
    with pytest.raises(DomainError):
        boundary_size(spec, frozenset())
    with pytest.raises(DomainError):
        boundary_size(spec, frozenset(range(8)))


def test_boundary_symmetry_and_handshake_identity():
    rng = random.Random(20240511)
    for _ in range(300):
        n = rng.randint(3, 9)
        k = rng.choice([None, 1, 2])
        if k is not None and k >= n:
            k = None
        spec = GraphSpec(n, k)
        size = rng.randint(1, spec.num_vertices - 1)
        members = frozenset(rng.sample(range(spec.num_vertices), size))
        comp = frozenset(range(spec.num_vertices)) - members
        assert boundary_size(spec, members) == boundary_size(spec, comp)
        assert (
            boundary_size(spec, members) + induced_double_edge_count(spec, members)
            == spec.degree * len(members)
        )


def test_is_connected_subset():
    assert is_connected_subset(GraphSpec(4, 2), lexicographic_set(4, 6))
    assert not is_connected_subset(GraphSpec(4), {0, 3})
    comp = frozenset(range(16)) - lexicographic_set(4, 4)
    assert is_connected_subset(GraphSpec(4, 2), comp)
    assert is_connected_subset(GraphSpec(4, 2), frozenset())
    assert is_connected_subset(GraphSpec(4, 2), {7})


@pytest.mark.parametrize("n", range(3, 11))
def test_segments_and_complements_connected(n):
    spec = GraphSpec(n, 2)
    everything = frozenset(range(spec.num_vertices))
    for m in range(1, spec.num_vertices // 2 + 1):
        segment = lexicographic_set(n, m)
        assert is_connected_subset(spec, segment)
        assert is_connected_subset(spec, everything - segment)


def test_adjacency_bitmap_structure():
    bmp = adjacency_bitmap(GraphSpec(4, 2))
    assert bmp.shape == (16, 16)
    assert (bmp.sum(axis=1) == 5).all()
    assert (np.diag(bmp) == 0).all()
    bmp5 = adjacency_bitmap(GraphSpec(5, 2))
    assert (bmp5 == bmp5.T).all()
    assert (adjacency_bitmap(GraphSpec(3, 1)).sum(axis=1) == 4).all()
    bmp7 = adjacency_bitmap(GraphSpec(7, 2))
    assert bmp7.shape == (128, 128)
    assert (bmp7 == bmp7.T).all()
    assert (np.diag(bmp7) == 0).all()
    assert (bmp7.sum(axis=1) == 8).all()


def _bitmap_loop(spec):
    # reference: one vertex at a time, edges spelled out from the definition
    size = 1 << spec.n
    bitmap = np.zeros((size, size), dtype=np.uint8)
    for v in range(size):
        for j in range(spec.n):
            bitmap[v, v ^ (1 << j)] = 1
        if spec.k is not None:
            bitmap[v, v ^ ((1 << (spec.n - spec.k + 1)) - 1)] = 1
    return bitmap


@pytest.mark.parametrize("n", range(2, 9))
def test_adjacency_bitmap_matches_loop(n):
    for k in (None, 1, 2, n - 1):
        if k is not None and k >= n:
            continue
        spec = GraphSpec(n, k)
        bitmap = adjacency_bitmap(spec)
        assert bitmap.dtype == np.uint8
        assert np.array_equal(bitmap, _bitmap_loop(spec))


def test_adjacency_bitmap_rejects_large():
    with pytest.raises(ResourceLimitError):
        adjacency_bitmap(GraphSpec(14, 2))


@pytest.mark.parametrize("n", range(4, 9))
def test_bitmap_lower_quadrant_is_subcube_plus_antidiagonal(n):
    # restricted to labels < 2^(n-1), the enhanced bitmap is the plain
    # (n-1)-cube plus the complemented-pair antidiagonal
    half = 1 << (n - 1)
    quadrant = adjacency_bitmap(GraphSpec(n, 2))[:half, :half]
    plain = adjacency_bitmap(GraphSpec(n - 1))
    diff = np.argwhere(quadrant != plain)
    assert len(diff) == half
    assert all(x + y == half - 1 for x, y in diff)


def test_pbm_round_trip(tmp_path):
    spec = GraphSpec(3, 2)
    bmp = adjacency_bitmap(spec)
    path = tmp_path / "q32.pbm"
    write_pbm(bmp, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "8 8"
    assert len(lines) == 10
    for y, line in enumerate(lines[2:]):
        values = [int(tok) for tok in line.split()]
        assert values == [int(bmp[x, y]) for x in range(8)]
    # repeated serialization is byte-identical
    assert pbm_text(bmp) == path.read_text()


def test_pbm_non_square():
    # pixel (x, y) is bitmap[x, y]: the first axis is the width
    bitmap = np.array([[0, 1, 1], [0, 0, 1]])
    assert pbm_text(bitmap) == "P1\n2 3\n0 0\n1 0\n1 1\n"
    assert pbm_text(bitmap.T) == "P1\n3 2\n0 1 1\n0 0 1\n"


def test_pbm_empty_axes():
    assert pbm_text(np.zeros((0, 0), dtype=np.uint8)) == "P1\n0 0\n"
    assert pbm_text(np.zeros((0, 3), dtype=np.uint8)) == "P1\n0 3\n\n\n\n"
    assert pbm_text(np.zeros((3, 0), dtype=np.uint8)) == "P1\n3 0\n"


@pytest.mark.parametrize(
    "bitmap",
    [
        np.array([[2]]),
        np.array([[10]]),
        np.array([[-1]]),
        np.array([[0, 1], [1, 0]], dtype=np.int8) - 1,
        np.array([[0.0, 1.0]]),
        np.array([[0.5]]),
        np.array([0, 1]),
        np.zeros((2, 2, 2), dtype=np.uint8),
        np.zeros(0, dtype=np.uint8),
        np.array([["0", "1"]]),
    ],
    ids=["2", "10", "-1", "int8-minus-one", "float-01", "float-half", "1d", "3d", "1d-empty", "str"],
)
def test_pbm_refuses_anything_but_a_2d_0_1_integer_array(bitmap):
    with pytest.raises(DomainError):
        pbm_text(bitmap)


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2)])
def test_pbm_matches_row_reference(shape, dtype):
    bitmap = (np.arange(shape[0] * shape[1]).reshape(shape) % 3 != 1).astype(dtype)
    for view in (bitmap, bitmap.T, bitmap[::-1]):
        assert pbm_text(view) == pbm_text_by_rows(view)


# n = 10, 11: rows of 1024 and 2048 bytes, the power-of-two strides a
# row-major matrix would be read down
@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 12) for k in (None, 1, 2) if k is None or k < n])
def test_pbm_matches_row_reference_on_adjacency(n, k):
    bitmap = adjacency_bitmap(GraphSpec(n, k))
    # symmetric and column-major, so pbm_text reads bitmap.T contiguously
    assert np.array_equal(bitmap, bitmap.T)
    assert bitmap.T.flags.c_contiguous
    assert pbm_text(bitmap) == pbm_text_by_rows(bitmap)
    assert pbm_text(bitmap.T) == pbm_text_by_rows(bitmap.T)


def test_pbm_matches_row_reference_in_any_layout():
    # odd sizes and a 13-byte header, so the uint16 cell view is unaligned
    bitmap = np.random.default_rng(1537).integers(0, 2, size=(1000, 1537), dtype=np.uint8)
    for view in (bitmap, np.asfortranarray(bitmap), bitmap.T):
        assert pbm_text(view) == pbm_text_by_rows(view)


def _reference_cases(n, rng):
    # the empty, singleton and full sets; lexicographic segments and their
    # complements (every m up to n = 6, a sample above); seeded random sets
    # at random densities, so both connected and disconnected sets occur
    total = 1 << n
    everything = frozenset(range(total))
    cases = [frozenset(), frozenset({rng.randrange(total)}), everything]
    if n <= 6:
        sizes = range(1, total)
    else:
        quarter, half = total // 4, total // 2
        sizes = {1, 2, 3, quarter - 1, quarter, quarter + 1, half - 1, half, half + 1, total - 1}
        sizes |= {rng.randrange(1, total) for _ in range(4)}
    for m in sorted(sizes):
        segment = frozenset(range(m))
        cases += [segment, everything - segment]
    for _ in range(40 if n <= 8 else 6):
        density = rng.random()
        cases.append(frozenset(v for v in range(total) if rng.random() < density))
    return cases


@pytest.mark.parametrize("n", range(2, 13))
def test_set_functions_match_reference(n):
    rng = random.Random(7000 + n)
    cases = _reference_cases(n, rng)
    for k in dict.fromkeys((None, 1, 2, n - 1)):
        if k is not None and k >= n:
            continue
        spec = GraphSpec(n, k)
        for members in cases:
            inside = ref.induced_double_edges(spec, members)
            connected = ref.connected(spec, members)
            assert induced_double_edge_count(spec, members) == inside
            assert is_connected_subset(spec, members) == connected
            if 0 < len(members) < spec.num_vertices:
                assert boundary_size(spec, members) == spec.degree * len(members) - inside
            mask = sum(1 << v for v in members)
            assert mask_boundary(spec, mask) == spec.degree * len(members) - inside
            assert mask_connected(spec, mask) == connected


def _digits_mask(members, total):
    """The mask of a vertex set, built as a string of binary digits."""
    digits = ["0"] * total
    for v in members:
        digits[total - 1 - v] = "1"
    return int("".join(digits), 2)


@pytest.mark.parametrize("n", range(2, 14))
def test_images_match_per_vertex_reference(n):
    # every k, so the complementary generator has every popcount 2..n and the
    # reversal path is taken wherever it is chosen; at n = 2 the 4-bit mask
    # is not a whole byte and must not be reversed
    rng = random.Random(9000 + n)
    total = 1 << n
    cases = [frozenset(), frozenset(range(total)), frozenset(rng.sample(range(total), 3))]
    cases += [
        frozenset(v for v in range(total) if rng.random() < density) for density in (0.1, 0.5, 0.9)
    ]
    images = {}  # (case, generator): the image built vertex by vertex
    for k in (None, *range(1, n)):
        spec = GraphSpec(n, k)
        if k == 1:
            assert spec.block_swaps[-1][0] == (n >= 3)  # the folded cube's generator flips
        for i, members in enumerate(cases):
            expected = []
            for g in ref.generators(spec):
                if (i, g) not in images:
                    images[i, g] = _digits_mask({v ^ g for v in members}, total)
                expected.append(images[i, g])
            mask = _digits_mask(members, total)
            images_of_mask = [_image(mask, *swaps, total >> 3) for swaps in spec.block_swaps]
            assert images_of_mask == expected


def test_reversal_is_taken_where_it_saves_more_than_two_swaps():
    # Q_n never flips, Q_{n,1} flips from n = 3, Q_{n,2} from n = 5; a
    # complement mask with p set bits flips when 2p - n > 2, on small masks
    # and on masks of 64 bytes and more alike
    for n in range(2, 21):
        assert not any(flip for flip, _ in GraphSpec(n).block_swaps)
        assert GraphSpec(n, 1).block_swaps[-1][0] == (n >= 3)
        if n >= 3:
            assert GraphSpec(n, 2).block_swaps[-1][0] == (n >= 5)
    for n in (7, 8, 13, 16):
        flips = {2 * (n - k + 1) - n: GraphSpec(n, k).block_swaps[-1][0] for k in range(1, n)}
        assert flips == {d: d > 2 for d in flips}


def _snake(spec):
    """An induced path from vertex 0 (a snake in the box), grown by taking
    at each step the last generator, in spec's order, that keeps it induced.
    Its steps run against the order the sweeps apply the generators in, so a
    sweep adds few of its vertices and deciding it takes many sweeps."""
    steps = ref.generators(spec)
    path = [0]
    blocked = {0}  # the path and the neighbours of all but its last vertex
    while True:
        v = path[-1]
        step = next((g for g in reversed(steps) if v ^ g not in blocked), None)
        if step is None:
            return path
        blocked |= {v ^ g for g in steps}
        path.append(v ^ step)


def _joined_subcubes(n, d):
    """Two d-subcubes two steps apart (coordinates above d all 0, and d, d+1
    set), and the one vertex, 2^d, that joins them."""
    low = range(1 << d)
    return frozenset(low) | frozenset((3 << d) | v for v in low), 1 << d


def _stopping_cases(spec):
    # (members, connected or None where it depends on the complementary
    # edges): the snake and the snake cut at each interior vertex, subcubes
    # with and without their joint, and the extreme sets
    total = spec.num_vertices
    path = _snake(spec)
    cases = [(frozenset(), True), (frozenset({total - 1}), True), (frozenset(range(total)), True)]
    cases += [(frozenset(path), True)]
    cases += [(frozenset(path) - {v}, False) for v in path[1:-1]]
    for d in range(1, spec.n - 1):
        cubes, joint = _joined_subcubes(spec.n, d)
        cases += [(cubes | {joint}, True), (cubes, False if spec.k is None else None)]
    return cases


@pytest.mark.parametrize("n", range(2, 11))
def test_sweeps_match_reference_where_the_stopping_rule_matters(n):
    assert len(_snake(GraphSpec(n))) >= 2 * n - 1  # long enough to need many sweeps
    for k in dict.fromkeys((None, 1, 2, n - 1)):
        if k is not None and k >= n:
            continue
        spec = GraphSpec(n, k)
        for members, expected in _stopping_cases(spec):
            connected = ref.connected(spec, members)
            assert connected == expected or expected is None
            assert mask_connected(spec, ref.members_mask(spec, members)) == connected
            assert is_connected_subset(spec, members) == connected


def _rounds(spec, members):
    """Breadth-first rounds from the lowest member that reach a new vertex:
    its eccentricity within its component."""
    seen = frontier = {min(members)}
    rounds = 0
    while True:
        frontier = {u for v in frontier for u in ref.neighbors(spec, v) if u in members} - seen
        if not frontier:
            return rounds
        seen = seen | frontier
        rounds += 1


def test_sweeps_decide_within_one_idle_sweep_of_the_bfs_rounds(monkeypatch):
    spec = GraphSpec(12, 2)
    calls = 0
    image = graphs._image

    def counted(*args):
        nonlocal calls
        calls += 1
        return image(*args)

    monkeypatch.setattr(graphs, "_image", counted)
    assert mask_connected(spec, (1 << spec.num_vertices) - 1)
    assert 0 < calls <= spec.degree
    path = _snake(spec)
    cubes, joint = _joined_subcubes(12, 5)
    cases = [
        (cubes, False),  # two 5-subcubes
        (frozenset(path) - {path[len(path) // 2]}, False),  # two halves of the snake
        (frozenset(path), True),
        (cubes | {joint}, True),
    ]
    assert _rounds(spec, cases[1][0]) >= 40
    for members, connected in cases:
        assert ref.connected(spec, members) == connected
        calls = 0
        assert mask_connected(spec, ref.members_mask(spec, members)) == connected
        assert 0 < calls <= (_rounds(spec, members) + 1) * spec.degree


def test_set_dimension_cap():
    assert MAX_SET_DIMENSION == 20
    spec = GraphSpec(20, 2)
    assert is_connected_subset(spec, {0, 1})
    assert not is_connected_subset(spec, {0, 3})
    assert boundary_size(spec, {5}) == 21
    assert boundary_size(spec, range(spec.half)) == spec.half
    assert len(spec.block_swaps) == 21
    with pytest.raises(DomainError):
        is_connected_subset(GraphSpec(21), {0, 1})
    with pytest.raises(DomainError):
        induced_double_edge_count(GraphSpec(21, 2), [0])
    # refused before the members are read
    with pytest.raises(DomainError):
        boundary_size(GraphSpec(62), range(2**40))
    with pytest.raises(DomainError):
        GraphSpec(62).block_swaps


def _require_message(v, top):
    # the refusal of the per-member check, DomainError.require(v, 0, top, "vertex")
    with pytest.raises(DomainError) as info:
        DomainError.require(v, 0, top, "vertex")
    return str(info.value)


def _set_functions(spec):
    return (
        lambda members: boundary_size(spec, members),
        lambda members: is_connected_subset(spec, members),
        lambda members: induced_double_edge_count(spec, members),
    )


@pytest.mark.parametrize("bad", [-1, 16, 2**64, -(2**64)])
@pytest.mark.parametrize("kind", [list, tuple, iter])
def test_set_functions_refuse_a_bad_member_as_require_does(bad, kind):
    # out-of-range members get require's message, never OverflowError; other
    # types are refused in test_errors, and named in the first-offender test below
    spec = GraphSpec(4, 2)
    for call in _set_functions(spec):
        with pytest.raises(DomainError) as info:
            call(kind([1, bad, 2]))
        assert str(info.value) == _require_message(bad, 15)


@pytest.mark.parametrize(
    "members,first",
    [
        ([1, 17, 2.0, -1], 17),
        ((1, 2.0, 17), 2.0),
        ([1, True, 17], True),
        ((v for v in (3, -1, 2**64)), -1),
        ((v for v in (3, np.int64(2), 99)), np.int64(2)),
        (range(-1, 20), -1),
        (range(-2, 5), -2),
        (range(20, -3, -3), 20),
        (range(2**40), 16),
    ],
)
def test_set_functions_name_the_first_bad_member(members, first):
    with pytest.raises(DomainError) as info:
        is_connected_subset(GraphSpec(4, 2), members)
    assert str(info.value) == _require_message(first, 15)


def test_nothing_past_the_first_bad_member_is_read():
    # a generator that would raise after its bad member, and a shared iterator,
    # are read only up to that member
    with pytest.raises(DomainError) as info:
        boundary_size(GraphSpec(4), (int(x) for x in ["3", "-1", "a"]))
    assert str(info.value) == _require_message(-1, 15)
    shared = iter([3, 99, 5, 6])
    with pytest.raises(DomainError):
        is_connected_subset(GraphSpec(4, 2), shared)
    assert list(shared) == [5, 6]


def test_unbounded_iterator_refused():
    # read one member at a time, so the first vertex past 2^n - 1 is refused
    with pytest.raises(DomainError) as info:
        is_connected_subset(GraphSpec(4, 2), itertools.count())
    assert str(info.value) == "vertex=16 outside [0, 15]"


@pytest.mark.parametrize(
    "members,expected",
    [
        ([], ()),
        (iter(()), ()),
        (range(0), ()),
        (range(7, 3), ()),
        ([5, 5, 1, 5, 1], (1, 5)),
        ([3] * 40 + [7], (3, 7)),
        (range(0, 16, 3), (0, 3, 6, 9, 12, 15)),
        (range(15, -1, -1), range(16)),
        (range(14, 0, -5), (4, 9, 14)),
        (range(3, 4, 2**80), (3,)),
        (frozenset({2, 9}), (2, 9)),
    ],
)
def test_members_mask_accepts(members, expected):
    # repeats, empty sets and ranges of any step
    assert _members_mask(GraphSpec(4, 2), members) == sum(1 << v for v in expected)


@pytest.mark.parametrize("n", range(2, 13))
def test_members_mask_matches_per_member_reference(n):
    # random lists, with repeats and at every density, and random ranges, on every family
    rng = random.Random(9100 + n)
    total = 1 << n
    for k in (None, *range(1, n)):
        spec = GraphSpec(n, k)
        for _ in range(8):
            members = [rng.randrange(total) for _ in range(rng.randint(0, 2 * total))]
            assert _members_mask(spec, members) == ref.members_mask(spec, members)
            start, stop, step = rng.randrange(total), rng.randrange(total), rng.randint(1, total)
            segment = range(start, stop, step if start <= stop else -step)
            assert _members_mask(spec, segment) == ref.members_mask(spec, segment)


def test_valid_range_checked_without_a_require_per_member(monkeypatch):
    # a range is checked by its ends: O(1) require calls, whatever its length
    spec = GraphSpec(20, 2)
    require = DomainError.require
    calls = []

    def counting(*args):
        calls.append(args)
        return require(*args)

    monkeypatch.setattr(DomainError, "require", staticmethod(counting))
    assert boundary_size(spec, range(spec.half)) == spec.half
    assert is_connected_subset(spec, range(spec.num_vertices - 1, spec.half - 1, -1))
    assert len(calls) <= 4
