"""Hypercube-family graphs over integer vertex labels.

Vertices of the n-dimensional hypercube are the integers 0..2^n-1, with bit
j of the label holding coordinate j+1 of the binary string, so the
lexicographic segment of the vertex order is literally the interval [0, m).
The enhanced variant Q_{n,k} adds one complementary edge per vertex,
flipping the low n-k+1 bits; k=1 gives the folded hypercube.

A vertex set is one 2^n-bit int, bit v set when vertex v is in. XOR by a
generator maps a set to its image by a chain of block swaps (one per set
bit of the generator), so an image costs a few big-int operations, with no
per-vertex loop. XOR by 2^n - 1 maps v to 2^n - 1 - v, which reverses the
set's bits: three C calls on its bytes (to_bytes, translate by a
bit-reversal table, from_bytes in the other byte order). A generator with
many set bits is that reversal followed by a swap per clear bit, so the
complementary edge of Q_{n,2} costs one swap and that of the folded cube
none. _image applies one generator; it is the only way either set routine
maps a set.
mask_boundary (one image per generator) and mask_connected are the one
implementation of boundary counting and of induced connectivity; the
oracle calls them too. mask_connected grows the reached set in place,
generator after generator in a fixed cyclic order (Gauss-Seidel sweeps),
so a sweep reaches at least as far as a breadth-first round, and stops
after degree images in a row that add nothing: the reached set is then
closed under every generator.
table_mask is the one conversion from a 2^n byte table of members to a
mask, for the set functions and the cut sampler. Sets are taken for
n <= MAX_SET_DIMENSION (128 KiB per set at n = 20).

The set functions take any iterable of vertices. _members_mask checks a
range inside [0, 2^n) by its two ends and marks it as one strided slice;
it walks any other iterable member by member, naming the first bad one.

All functions are pure and every returned value is immutable, so they are
safe to call concurrently.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    MAX_BITMAP_DIMENSION,
    MAX_DIMENSION,
    MAX_SET_DIMENSION,
    DomainError,
    ResourceLimitError,
)


@dataclass(frozen=True)
class GraphSpec:
    """Family selector: Q_n when k is None, Q_{n,k} otherwise."""

    n: int
    k: int | None = None

    def __post_init__(self):
        DomainError.require(self.n, 2, MAX_DIMENSION, "n")
        if self.k is not None:
            DomainError.require(self.k, 1, self.n - 1, "k")

    @property
    def num_vertices(self) -> int:
        return 1 << self.n

    @property
    def half(self) -> int:
        """2^(n-1), the largest smaller side of a cut."""
        return 1 << (self.n - 1)

    @property
    def degree(self) -> int:
        """Regularity: n for the plain hypercube, n+1 with complementary edges."""
        return self.n if self.k is None else self.n + 1

    @property
    def complement_mask(self) -> int | None:
        """XOR mask of the complementary edge (flips coordinates 1..n-k+1)."""
        if self.k is None:
            return None
        return (1 << (self.n - self.k + 1)) - 1

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The edge definition: u and v are adjacent iff u ^ v is one of these.

        The n single-bit dimension masks, then the complement mask when k is set.
        """
        dimensions = tuple(1 << j for j in range(self.n))
        return dimensions if self.k is None else dimensions + (self.complement_mask,)

    @cached_property
    def block_swaps(self) -> tuple[tuple[bool, tuple[tuple[int, int], ...]], ...]:
        """Each generator as (flip, chain): an optional bit reversal of the
        vertex mask, then a chain of (2^j, L_j) block swaps.

        L_j marks the vertices with bit j clear. XOR by 2^j moves them up by
        2^j and the others down, so it maps a set S to
        ((S & L_j) << 2^j) | ((S >> 2^j) & L_j); XOR by a generator g is the
        chain over its p set bits. XOR by 2^n - 1 reverses the 2^n mask bits,
        so XOR by g is also that reversal and then the chain over the n - p
        clear bits of g. Timed as a whole image, the reversal costs about two
        swaps on a mask under 64 bytes and about three from there to n = 20,
        so flip is set when it saves more than two (2p - n > 2): at
        2p - n = 3 the two ways differ by 14 % either way or less, and at
        2p - n = 2 the reversal loses by 4-32 %. A mask under one byte
        (n = 2) is never reversed. Q_{n,1} (2p - n = n) flips from n = 3 and
        Q_{n,2} (n - 2) from n = 5; single-bit generators, and so all of Q_n,
        never flip. Needs n <= MAX_SET_DIMENSION.
        """
        DomainError.require(self.n, 2, MAX_SET_DIMENSION, "n")
        swaps = []
        for j in range(self.n):
            shift = 1 << j
            low = (1 << shift) - 1  # L_j on the first 2^(j+1) vertices, then doubled
            width = 2 * shift
            while width < self.num_vertices:
                low |= low << width
                width *= 2
            swaps.append((shift, low))
        chains = []
        for g in self.generators:
            flip = self.n >= 3 and 2 * g.bit_count() > self.n + 2
            bits = ~g if flip else g
            chains.append((flip, tuple(swaps[j] for j in range(self.n) if bits >> j & 1)))
        return tuple(chains)


# _BITREV[b] is the byte b with its 8 bits in reverse order
_BITREV = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _image(mask: int, flip: bool, chain: tuple[tuple[int, int], ...], size: int) -> int:
    """The masked set's image under XOR by one generator, given as its
    block_swaps entry (flip, chain); size is the mask's length in bytes."""
    if flip:  # v -> 2^n - 1 - v: byte order and bit order both reversed
        mask = int.from_bytes(mask.to_bytes(size, "little").translate(_BITREV), "big")
    for shift, low in chain:
        mask = ((mask & low) << shift) | ((mask >> shift) & low)
    return mask


def mask_boundary(spec: GraphSpec, mask: int) -> int:
    """Number of edges with exactly one endpoint in the masked set.

    Each generator g pairs v with v ^ g, so sum_g |S & g(S)| counts every
    induced edge twice and the boundary is degree*|S| minus that.
    """
    size = spec.num_vertices >> 3
    inside = sum(
        (mask & _image(mask, flip, chain, size)).bit_count() for flip, chain in spec.block_swaps
    )
    return spec.degree * mask.bit_count() - inside


def mask_connected(spec: GraphSpec, mask: int) -> bool:
    """Whether the masked set induces a connected subgraph (empty: yes).

    Gauss-Seidel sweeps from the lowest member: the generators are applied
    in their fixed cyclic order, each one adding reach's image inside the set
    to reach at once. A sweep covers at least one breadth-first round: a
    vertex one step out from the reach a sweep starts with is added when its
    generator comes up, since reach has only grown by then. The answer is
    yes as soon as reach is the whole set, and no after degree images in a
    row that add nothing: the order is cyclic, so those are every generator
    applied to the same reach, which is then closed, a component short of
    the set. The full cube is reached in n images, one per dimension.
    """
    reach = mask & -mask
    if reach == mask:
        return True
    size = spec.num_vertices >> 3
    degree = spec.degree
    idle = 0
    while True:
        for flip, chain in spec.block_swaps:
            grown = reach | (_image(reach, flip, chain, size) & mask)
            if grown == mask:
                return True
            if grown != reach:
                reach, idle = grown, 0
            else:
                idle += 1
                if idle == degree:
                    return False


def table_mask(table: bytearray) -> int:
    """The mask of a byte table, bit v set when byte v is nonzero. Unchecked."""
    return int.from_bytes(np.packbits(table, bitorder="little").tobytes(), "little")


def _members_mask(spec: GraphSpec, members: Iterable[int]) -> int:
    """The mask of a vertex set, after checking n and every member.

    A nonempty range whose two ends lie in [0, 2^n) is marked as one strided
    slice, with no per-member check: its members are ints between its ends.
    Any other iterable, and a range that leaves [0, 2^n), is walked member
    by member, so the first bad member in iteration order raises the
    DomainError of DomainError.require(v, 0, 2^n - 1, "vertex"), nothing past
    it is read, and an unbounded iterator fails at its first vertex past
    2^n - 1.
    """
    DomainError.require(spec.n, 2, MAX_SET_DIMENSION, "n")
    top = spec.num_vertices - 1
    bits = bytearray(spec.num_vertices)
    if isinstance(members, range) and members:
        lo, hi = sorted((members[0], members[-1]))
        if 0 <= lo and hi <= top:
            bits[lo : hi + 1 : abs(members.step)] = b"\x01" * len(members)
            return table_mask(bits)
    for v in members:
        DomainError.require(v, 0, top, "vertex")
        bits[v] = 1
    return table_mask(bits)


def induced_double_edge_count(spec: GraphSpec, members: Iterable[int]) -> int:
    """Twice the number of edges of the subgraph induced by the given set."""
    mask = _members_mask(spec, members)
    return spec.degree * mask.bit_count() - mask_boundary(spec, mask)


def boundary_size(spec: GraphSpec, members: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in the set.

    Equal to degree*|X| - 2|E(G[X])|; rejects the empty and full set, whose
    boundary is meaningless for cut analysis.
    """
    mask = _members_mask(spec, members)
    if not 0 < mask.bit_count() < spec.num_vertices:
        raise DomainError("boundary_size needs a nonempty proper subset")
    return mask_boundary(spec, mask)


def is_connected_subset(spec: GraphSpec, members: Iterable[int]) -> bool:
    """Whether the induced subgraph is connected (empty and singleton: yes)."""
    return mask_connected(spec, _members_mask(spec, members))


def adjacency_bitmap(spec: GraphSpec) -> np.ndarray:
    """Dense 2^n x 2^n 0/1 adjacency matrix (symmetric, zero diagonal).

    Vertices index both axes in label order. The matrix is stored in
    column-major (Fortran) order: it is symmetric, so the values are those
    of the row-major matrix, and pbm_text, which writes bitmap.T row by row,
    reads it contiguously instead of down a power-of-two row stride.
    Refused above n=13, where the matrix would outgrow memory.
    """
    if spec.n > MAX_BITMAP_DIMENSION:
        raise ResourceLimitError(
            f"adjacency bitmap needs n <= {MAX_BITMAP_DIMENSION}, got n={spec.n}"
        )
    v = np.arange(spec.num_vertices)[:, None]
    bitmap = np.zeros((spec.num_vertices, spec.num_vertices), dtype=np.uint8, order="F")
    bitmap[v ^ np.array(spec.generators), v] = 1
    return bitmap


def pbm_text(bitmap: np.ndarray) -> str:
    """Portable bitmap (P1) encoding of a 0/1 matrix.

    Line 1 is the magic "P1", line 2 is "W H", and line y+2 holds pixel row
    y as space-separated 0/1 digits, pixel (x, y) being the adjacency of
    vertices x and y. One byte buffer holds the header and then the rows:
    digits in the even columns, spaces between, "\n" last (a zero-width row
    is just "\n"); it is decoded once, with no copy in between. Row y is
    read from bitmap[:, y], so any layout is correct and a column-major
    bitmap (as adjacency_bitmap returns) is read contiguously; a row-major
    one is read down its row stride, which is slower.
    Anything but a 2-D bool or integer array of 0s and 1s raises
    DomainError; the cells are checked by min and max, with no copy.
    """
    bitmap = np.asarray(bitmap)
    if (
        bitmap.ndim != 2
        or bitmap.dtype.kind not in "biu"
        or (bitmap.size and (bitmap.min() < 0 or bitmap.max() > 1))
    ):
        raise DomainError(
            f"pbm_text needs a 2-D bool or integer array of 0s and 1s,"
            f" got shape {bitmap.shape} and dtype {bitmap.dtype}"
        )
    width, height = bitmap.shape
    header = f"P1\n{width} {height}\n".encode("ascii")
    line = max(2 * width, 1)
    buf = np.empty(len(header) + height * line, dtype=np.uint8)
    buf[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    rows = buf[len(header) :].reshape(height, line)
    # a cell and the space after it are one little-endian uint16, 0x2030 + cell;
    # the view is unaligned when the header length is odd, which numpy allows
    np.add(bitmap.T, np.uint16(0x2030), out=rows[:, : 2 * width].view("<u2"), casting="unsafe")
    rows[:, -1] = ord("\n")
    return str(memoryview(buf), "ascii")
