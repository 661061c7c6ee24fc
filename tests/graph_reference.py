"""Slow reference graph code, one vertex at a time, for checking extraconn.

Vertex sets are frozensets and edges are spelled out from the definition
(flip one bit, or flip the low n-k+1 bits when k is set), so nothing here
shares code with the bit-mask implementation in extraconn.graphs or with
the oracle. neighbors, edge_count, lexicographic_set and write_pbm build
test inputs; members_mask, induced_double_edges, boundary and connected
are the references for the package's set functions, and pbm_text_by_rows
for its P1 encoder.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

import numpy as np

from extraconn import DomainError, pbm_text
from extraconn.errors import MAX_DIMENSION


def _adjacent(spec, v: int) -> list[int]:
    out = [v ^ (1 << j) for j in range(spec.n)]
    if spec.k is not None:
        out.append(v ^ ((1 << (spec.n - spec.k + 1)) - 1))
    return out


def neighbors(spec, v: int) -> frozenset[int]:
    """All vertices adjacent to v, from the edge definition."""
    DomainError.require(v, 0, spec.num_vertices - 1, "vertex")
    return frozenset(_adjacent(spec, v))


def edge_count(spec) -> int:
    """Total number of edges: n*2^(n-1) plain, (n+1)*2^(n-1) enhanced."""
    return spec.degree << (spec.n - 1)


def lexicographic_set(n: int, m: int) -> frozenset[int]:
    """The first m vertices in label order, {0, ..., m-1}."""
    DomainError.require(n, 2, MAX_DIMENSION, "n")
    DomainError.require(m, 1, 1 << n, "m")
    return frozenset(range(m))


def write_pbm(bitmap, out) -> None:
    """Serialize a bitmap to a path or text stream in P1 format."""
    text = pbm_text(bitmap)
    if hasattr(out, "write"):
        out.write(text)
    else:
        Path(out).write_text(text)


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def pbm_text_by_rows(bitmap) -> str:
    """P1 text built one pixel row at a time, pixel (x, y) = bitmap[x, y]:
    the column's cells as bytes, each 0 or 1 turned into its digit."""
    width, height = bitmap.shape
    lines = ["P1", f"{width} {height}"]
    for y in range(height):
        cells = bitmap[:, y].astype(np.uint8).tobytes()
        lines.append(" ".join(cells.translate(_DIGITS).decode("ascii")))
    return "\n".join(lines) + "\n"


def members_mask(spec, members) -> int:
    """The set's mask, one member at a time: each member is checked, then its bit set."""
    mask = 0
    for v in members:
        DomainError.require(v, 0, spec.num_vertices - 1, "vertex")
        mask |= 1 << v
    return mask


def induced_double_edges(spec, members) -> int:
    """Twice the induced edge count: each member counts its neighbours inside."""
    members = frozenset(members)
    return sum(1 for v in members for u in _adjacent(spec, v) if u in members)


def boundary(spec, members) -> int:
    """Edges with exactly one endpoint in the set."""
    members = frozenset(members)
    return spec.degree * len(members) - induced_double_edges(spec, members)


def connected(spec, members) -> bool:
    """Breadth-first search inside the set (empty and singleton: connected)."""
    members = frozenset(members)
    if len(members) <= 1:
        return True
    start = next(iter(members))
    seen = {start}
    queue = deque((start,))
    while queue:
        v = queue.popleft()
        for u in _adjacent(spec, v):
            if u in members and u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(members)
