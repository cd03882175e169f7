"""Critical point classification of grid vertices across ensemble members.

Each vertex is classified from the signs of its link neighbors (higher
or lower than the center) under a strict total order that breaks value
ties by linear index, so repeated values never produce an undefined
answer (Simulation of Simplicity).  The sign sequence around the link
decides the type: no sign change means an extremum, more than two
maximal runs means a saddle.

The vectorised kernel never forms the link of a vertex.  Under the fixed
Freudenthal diagonal, the neighbor in link direction (di, dj) has linear
index `center + d` with `d = di + dj*nx`, and direction k + 3 of
`grid._LINK_OFFSETS` is the opposite of direction k.  The first three
directions have d > 0, so they name every grid edge once, from its end
with the smaller index.  One rule breaks every tie: the end with the
larger index wins.  The (m, n) values are compared as one flat array,
members end to end, so `flat[d:] >= flat[:-d]`, one comparison per edge
direction of the values against themselves shifted by d, is bit k
("neighbor higher") at v, and its negation is bit k + 3 at v + d.  The
six bits pack into a 6-bit code.  Which directions are in-grid depends
only on whether a vertex lies on the first, an inner or the last column
and row, so there are nine kinds of vertex, and a (9, 64) table indexed
by (kind of vertex, higher directions) gives the type.  The table is
built once at import from the same run-count rule as `classify_vertex`,
applied to the links `build_link` gives the nine vertices of a 3x3 grid.
Each row ignores the bits of its out-of-grid directions, which is where
a shift lands that wraps across a row end, or from one member's last
rows into the next member's first.
Each vertex's row depends only on the grid, so it is found once per
tally, not once per block of members.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import IntEnum

import numpy as np

from .grid import (
    _LINK_OFFSETS, Ensemble, GridTopology, VertexLink, _require_links, build_link,
)

__all__ = [
    "CriticalType",
    "TYPE_CODES",
    "compare_vertices",
    "classify_vertex",
    "classify_field",
    "count_types",
]


class CriticalType(IntEnum):
    REGULAR = 0
    MINIMUM = 1
    MAXIMUM = 2
    SADDLE = 3


# Short codes used by the CSV interchange formats.
TYPE_CODES = {
    CriticalType.MINIMUM: "min",
    CriticalType.MAXIMUM: "max",
    CriticalType.SADDLE: "sad",
    CriticalType.REGULAR: "reg",
}


def compare_vertices(field: np.ndarray, u: int, v: int) -> int:
    """Strict total order on vertices u, v (linear indices): -1 or +1.

    Compares (value, linear index) lexicographically; the index
    tie-break is the symbolic perturbation that removes degeneracy.
    """
    if u == v:
        raise ValueError("compare_vertices needs two distinct vertices")
    return -1 if (field[u], u) < (field[v], v) else 1


def _run_count(signs: list[bool], closed: bool) -> int:
    """Number of maximal constant runs; callers handle the uniform case."""
    changes = sum(signs[k] != signs[k - 1] for k in range(1, len(signs)))
    if closed:
        # For a mixed cyclic sequence the run count equals the number of
        # transitions, counting the wrap-around pair.
        return changes + (signs[0] != signs[-1])
    return changes + 1


def _classify_signs(higher: list[bool], closed: bool) -> CriticalType:
    """Type of a vertex from its link signs in link order."""
    if all(higher):
        return CriticalType.MINIMUM
    if not any(higher):
        return CriticalType.MAXIMUM
    if _run_count(higher, closed) > 2:
        return CriticalType.SADDLE
    return CriticalType.REGULAR


def classify_vertex(
    field: np.ndarray,
    topology: GridTopology,
    v: tuple[int, int],
    link: VertexLink | None = None,
) -> CriticalType:
    """Classify one vertex of one field (scalar reference path).

    All link neighbors higher -> MINIMUM; all lower -> MAXIMUM; more
    than two sign runs around the link (cyclic for interior vertices,
    path for boundary ones) -> SADDLE; anything else -> REGULAR.
    """
    if link is None:
        link = build_link(topology, v)
    center = topology.linear(*v)
    higher = [
        compare_vertices(field, topology.linear(i, j), center) > 0
        for i, j in link.neighbors
    ]
    return _classify_signs(higher, link.closed)


def _build_type_table() -> np.ndarray:
    """int8 type of every kind of vertex and 6-bit direction mask: (9, 64).

    Row 3j + i is vertex (i, j) of a 3x3 grid, whose first, inner and last
    columns and rows carry every set of in-grid directions a grid of at
    least 2x2 has.  Bit k of the mask marks a higher neighbor in direction
    `_LINK_OFFSETS[k]`; bits of out-of-grid directions do not change the
    type.  Each mask is classified by `build_link`'s order and
    `_classify_signs`.
    """
    table = np.zeros((9, 64), dtype=np.int8)
    grid = GridTopology(3, 3)
    for j in range(3):
        for i in range(3):
            link = build_link(grid, (i, j))
            order = [_LINK_OFFSETS.index((a - i, b - j)) for a, b in link.neighbors]
            for bits in range(64):
                signs = [bool(bits >> k & 1) for k in order]
                table[3 * j + i, bits] = _classify_signs(signs, link.closed)
    return table


_TYPE_TABLE = _build_type_table()


def _table_rows(topology: GridTopology) -> np.ndarray:
    """Each vertex's offset into the flattened `_TYPE_TABLE`: (n,) integers."""
    _require_links(topology)
    ikind, jkind = (np.repeat(np.arange(3), [1, size - 2, 1])
                    for size in (topology.nx, topology.ny))
    return (64 * (3 * jkind[:, None] + ikind)).ravel()


def _classify_codes(
        values: np.ndarray, topology: GridTopology, rows: np.ndarray) -> np.ndarray:
    """Classify every vertex of every member: (m, n) values -> int8 codes.

    `rows` is `_table_rows(topology)`.
    """
    flat = values.reshape(-1)
    bits = np.zeros(flat.shape, dtype=np.uint8)
    for k, (di, dj) in enumerate(_LINK_OFFSETS[:3]):
        d = di + dj * topology.nx
        higher = (flat[d:] >= flat[:-d]).view(np.uint8)
        bits[:-d] |= higher << k
        bits[d:] |= (higher ^ 1) << k + 3
    # Freed before the table index, the kernel's largest array, is built.
    del higher
    return _TYPE_TABLE.ravel().take(rows + bits.reshape(values.shape))


def _member_chunk(n: int) -> int:
    # About 2^17 member-vertices per chunk: 8 bytes of float64 values each,
    # when ground truth draws the chunk or an EGF stream parses it, plus at
    # most ~11 bytes of kernel and tally workspace at once: the uint8 code,
    # intp table index and int8 type (the comparison and its shifted copies
    # are freed before the index is built), later the int8 type and a bool
    # tally mask.  That is ~2.4 MiB per chunk.
    # The stream allocates a chunk only after the tally has the previous
    # one, so it holds at most two chunks of values, whatever m is.  The
    # sampler's (k, B) uniform and normal buffers add 16 B bytes per member,
    # B = r rounded up to a multiple of 4: 384 bytes beside 2 KiB of values
    # at 16x16 with r = 21, and under the values' 8 n bytes while B < n / 2.
    # Chunks of 1.25x10^5 to 10^6 member-vertices measured equally fast;
    # 6.25x10^4 and 2.5x10^6 or more measured slower.
    return max(1, (1 << 17) // max(n, 1))


def _tally(blocks: Iterable[np.ndarray], topology: GridTopology) -> np.ndarray:
    """Per-vertex (min, max, saddle) counts over (k, n) member blocks: (3, n).

    The topology is checked, and each vertex's table row found, before the
    first block is produced, so a lazy source (the sampler, a streamed EGF)
    does no work for a grid that cannot be classified.
    """
    rows = _table_rows(topology)
    totals = np.zeros((3, topology.n), dtype=np.int64)
    for block in blocks:
        codes = _classify_codes(block, topology, rows)
        for row, ctype in enumerate(
                (CriticalType.MINIMUM, CriticalType.MAXIMUM, CriticalType.SADDLE)):
            totals[row] += np.count_nonzero(codes == ctype, axis=0)
    return totals


def classify_field(field: np.ndarray, topology: GridTopology) -> np.ndarray:
    """Per-vertex classification of a single field, in linear-index order.

    Returns the (n,) int8 `CriticalType` codes.
    """
    arr = np.asarray(field, dtype=np.float64)
    if arr.shape != (topology.n,):
        raise ValueError(f"field must have shape ({topology.n},), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("field values must be finite")
    return _classify_codes(arr[None, :], topology, _table_rows(topology))[0]


def count_types(e: Ensemble) -> np.recarray:
    """Per-vertex occurrence counts of each type across all members.

    One record per vertex in linear order, with int64 fields `c_min`,
    `c_max` and `c_saddle`, each out of `e.m`.
    """
    chunk = _member_chunk(e.topology.n)
    totals = _tally(
        (e.values[start:start + chunk] for start in range(0, e.m, chunk)), e.topology)
    return np.rec.fromarrays(totals, names="c_min,c_max,c_saddle")
