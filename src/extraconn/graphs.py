"""Hypercube-family graphs over integer vertex labels.

Vertices of the n-dimensional hypercube are the integers 0..2^n-1, with bit
j of the label holding coordinate j+1 of the binary string, so the
lexicographic segment of the vertex order is literally the interval [0, m).
The enhanced variant Q_{n,k} adds one complementary edge per vertex,
flipping the low n-k+1 bits; k=1 gives the folded hypercube.

All functions are pure and every returned value is immutable, so they are
safe to call concurrently.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import MAX_BITMAP_DIMENSION, MAX_DIMENSION, DomainError, ResourceLimitError


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


def _check_subset(spec: GraphSpec, members: frozenset[int]) -> None:
    top = spec.num_vertices - 1
    for v in members:
        DomainError.require(v, 0, top, "vertex")


def _neighbor_iter(spec: GraphSpec, v: int) -> Iterator[int]:
    return (v ^ g for g in spec.generators)


def neighbors(spec: GraphSpec, v: int) -> frozenset[int]:
    """All vertices adjacent to v; the size equals the regularity.

    The n dimension neighbors flip a single bit; the complementary neighbor,
    when k is set, flips the low n-k+1 bits at once and never coincides with
    a dimension neighbor (the mask has at least two bits for valid k).
    """
    DomainError.require(v, 0, spec.num_vertices - 1, "vertex")
    return frozenset(_neighbor_iter(spec, v))


def edge_count(spec: GraphSpec) -> int:
    """Total number of edges: n*2^(n-1) plain, (n+1)*2^(n-1) enhanced."""
    return spec.degree << (spec.n - 1)


def lexicographic_set(n: int, m: int) -> frozenset[int]:
    """The first m vertices in label order, {0, ..., m-1}."""
    DomainError.require(n, 2, MAX_DIMENSION, "n")
    DomainError.require(m, 1, 1 << n, "m")
    return frozenset(range(m))


def induced_double_edge_count(spec: GraphSpec, members: Iterable[int]) -> int:
    """Twice the number of edges of the subgraph induced by the given set."""
    members = frozenset(members)
    _check_subset(spec, members)
    return sum(1 for v in members for u in _neighbor_iter(spec, v) if u in members)


def boundary_size(spec: GraphSpec, members: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in the set.

    Equal to degree*|X| - 2|E(G[X])|; rejects the empty and full set, whose
    boundary is meaningless for cut analysis.
    """
    members = frozenset(members)
    if not members or len(members) >= spec.num_vertices:
        raise DomainError("boundary_size needs a nonempty proper subset")
    return spec.degree * len(members) - induced_double_edge_count(spec, members)


def is_connected_subset(spec: GraphSpec, members: Iterable[int]) -> bool:
    """Whether the induced subgraph is connected (empty and singleton: yes).

    Breadth-first traversal restricted to the subset by membership tests;
    nothing outside the subset is materialized.
    """
    members = frozenset(members)
    _check_subset(spec, members)
    if len(members) <= 1:
        return True
    start = next(iter(members))
    seen = {start}
    queue = deque((start,))
    while queue:
        v = queue.popleft()
        for u in _neighbor_iter(spec, v):
            if u in members and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(members)


def adjacency_bitmap(spec: GraphSpec) -> np.ndarray:
    """Dense 2^n x 2^n 0/1 adjacency matrix (symmetric, zero diagonal).

    Vertices index both axes in label order. Refused above n=13, where the
    matrix would outgrow memory.
    """
    if spec.n > MAX_BITMAP_DIMENSION:
        raise ResourceLimitError(
            f"adjacency bitmap needs n <= {MAX_BITMAP_DIMENSION}, got n={spec.n}"
        )
    v = np.arange(spec.num_vertices)[:, None]
    bitmap = np.zeros((spec.num_vertices, spec.num_vertices), dtype=np.uint8)
    bitmap[v, v ^ np.array(spec.generators)] = 1
    return bitmap


def pbm_text(bitmap: np.ndarray) -> str:
    """Portable bitmap (P1) encoding of a 0/1 matrix.

    Line 1 is the magic "P1", line 2 is "W H", and line y+2 holds pixel row
    y as space-separated 0/1 digits, pixel (x, y) being the adjacency of
    vertices x and y.
    """
    width, height = bitmap.shape
    lines = ["P1", f"{width} {height}"]
    for y in range(height):
        lines.append(" ".join(str(int(v)) for v in bitmap[:, y]))
    return "\n".join(lines) + "\n"


def write_pbm(bitmap: np.ndarray, out) -> None:
    """Serialize a bitmap to a path or text stream in P1 format."""
    text = pbm_text(bitmap)
    if hasattr(out, "write"):
        out.write(text)
    else:
        Path(out).write_text(text)
