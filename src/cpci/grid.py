"""Simplicial grid topology, vertex links, and ensemble file I/O.

The domain is an nx-by-ny vertex lattice in which every unit cell
[i, i+1] x [j, j+1] is split along the fixed diagonal from (i, j) to
(i+1, j+1) (Freudenthal convention).  Interior vertices therefore have
six link neighbors; boundary vertices have two to four.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

__all__ = [
    "GridTopology",
    "VertexLink",
    "Ensemble",
    "ParseError",
    "build_link",
    "load_ensemble",
    "save_ensemble",
]

# Edge-connected offsets in counterclockwise cyclic order, starting at
# (+1, 0).  Under the fixed (i,j)-(i+1,j+1) diagonal these six, and only
# these six, neighbors share a triangulation edge with (i, j).
_LINK_OFFSETS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


class ParseError(ValueError):
    """Malformed EGF/MMF input; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class GridTopology:
    """Lattice dimensions; the linear index of vertex (i, j) is j*nx + i.

    Degenerate single-row or single-column lattices are accepted (they
    occur in layout-only contexts); operations that need the
    triangulation require nx >= 2 and ny >= 2 and say so.
    """

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(
                f"grid dimensions must be positive, got {self.nx}x{self.ny}")

    @property
    def n(self) -> int:
        return self.nx * self.ny

    def contains(self, i: int, j: int) -> bool:
        return 0 <= i < self.nx and 0 <= j < self.ny

    def linear(self, i: int, j: int) -> int:
        if not self.contains(i, j):
            raise ValueError(
                f"vertex ({i}, {j}) outside {self.nx}x{self.ny} grid")
        return j * self.nx + i

    def coords(self, k: int) -> tuple[int, int]:
        if not 0 <= k < self.n:
            raise ValueError(f"linear index {k} outside [0, {self.n})")
        return k % self.nx, k // self.nx


@dataclass(frozen=True)
class VertexLink:
    """Link neighbors of one vertex, as (i, j) pairs.

    `closed` is true for interior vertices (cyclic order) and false for
    boundary vertices (open path, endpoints not adjacent).
    """

    neighbors: tuple[tuple[int, int], ...]
    closed: bool


def build_link(topology: GridTopology, v: tuple[int, int]) -> VertexLink:
    """Return the link of vertex v in triangulation order.

    Interior links are 6-cycles counterclockwise from (i+1, j).  Boundary
    links are open paths; the path starts at the endpoint with the
    smaller linear index so the ordering is deterministic.
    """
    if topology.nx < 2 or topology.ny < 2:
        raise ValueError("vertex links require at least a 2x2 grid")
    i, j = v
    if not topology.contains(i, j):
        raise ValueError(f"vertex ({i}, {j}) outside {topology.nx}x{topology.ny} grid")

    valid = [topology.contains(i + di, j + dj) for di, dj in _LINK_OFFSETS]
    if all(valid):
        return VertexLink(
            tuple((i + di, j + dj) for di, dj in _LINK_OFFSETS), closed=True)

    # On the boundary the in-range offsets form one contiguous cyclic arc;
    # walk it from the arc start, then orient by linear index.
    start = next(k for k in range(6) if valid[k] and not valid[k - 1])
    path: list[tuple[int, int]] = []
    for t in range(6):
        k = (start + t) % 6
        if not valid[k]:
            break
        di, dj = _LINK_OFFSETS[k]
        path.append((i + di, j + dj))
    assert len(path) == sum(valid)
    if topology.linear(*path[-1]) < topology.linear(*path[0]):
        path.reverse()
    return VertexLink(tuple(path), closed=False)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """m scalar fields over one topology; `values` has shape (m, nx*ny).

    Member k is `values[k]`, stored row-major (row j=0 first).  All
    values must be finite.
    """

    topology: GridTopology
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != self.topology.n:
            raise ValueError(
                f"member array must have shape (m >= 1, {self.topology.n}), "
                f"got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("ensemble values must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return int(self.values.shape[0])


class _LineReader:
    """Line scanner for the EGF/MMF text formats.

    Decodes UTF-8 (LF or CRLF), skips blank and `#` comment lines, and
    reports 1-based physical line numbers in errors.
    """

    def __init__(self, raw: bytes):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(1, f"not valid UTF-8 ({exc.reason})") from None
        self.rows = [
            (num, stripped)
            for num, line in enumerate(text.splitlines(), start=1)
            if (stripped := line.strip()) and not stripped.startswith("#")
        ]
        self.pos = 0

    def next(self, expected: str) -> tuple[int, str]:
        if self.pos >= len(self.rows):
            last = self.rows[-1][0] if self.rows else 1
            raise ParseError(last, f"unexpected end of file, expected {expected}")
        row = self.rows[self.pos]
        self.pos += 1
        return row

    def expect_magic(self, magic: str) -> None:
        lineno, token = self.next(f"magic line {magic!r}")
        if token != magic:
            raise ParseError(lineno, f"bad magic line {token!r}, expected {magic!r}")

    def header_ints(self, count: int, description: str) -> tuple[int, ...]:
        lineno, line = self.next(f"header {description!r}")
        parts = line.split()
        if len(parts) != count:
            raise ParseError(
                lineno, f"header {description!r} needs {count} integers, "
                f"got {len(parts)} tokens")
        try:
            values = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(lineno, f"non-integer in header {line!r}") from None
        if any(val < 1 for val in values):
            raise ParseError(lineno, f"header values must be positive, got {line!r}")
        return values

    def block(self, nx: int, ny: int, what: str) -> np.ndarray:
        """Read ny rows of nx reals (row j=0 first) into a flat array."""
        out = np.empty(ny * nx, dtype=np.float64)
        for j in range(ny):
            lineno, line = self.next(f"row {j} of {what}")
            tokens = line.split()
            if len(tokens) != nx:
                raise ParseError(
                    lineno, f"expected {nx} values in row {j} of {what}, "
                    f"got {len(tokens)}")
            try:
                row = np.asarray(tokens, dtype=np.float64)
            except ValueError:
                bad = next((t for t in tokens if not _parses_as_float(t)), tokens[0])
                raise ParseError(lineno, f"bad number {bad!r}") from None
            if not np.isfinite(row).all():
                bad = tokens[int(np.flatnonzero(~np.isfinite(row))[0])]
                raise ParseError(lineno, f"non-finite value {bad!r}")
            out[j * nx:(j + 1) * nx] = row
        return out

    def expect_end(self) -> None:
        if self.pos != len(self.rows):
            raise ParseError(self.rows[self.pos][0], "trailing content after final block")


def _parses_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _block_rows(values: np.ndarray, nx: int, ny: int) -> list[str]:
    """Format one field block with 17 significant digits (exact roundtrip)."""
    row = " ".join(["%.17g"] * nx)
    return [row % tuple(values[j * nx:(j + 1) * nx].tolist()) for j in range(ny)]


def load_ensemble(source: IO[bytes]) -> Ensemble:
    """Parse an EGF byte stream.

    Format: magic line `EGF1`; header `nx ny m`; then m blocks, each ny
    rows of nx whitespace-separated reals, row j=0 first.  Raises
    ParseError naming the offending line.
    """
    reader = _LineReader(source.read())
    reader.expect_magic("EGF1")
    nx, ny, m = reader.header_ints(3, "nx ny m")
    topology = GridTopology(nx, ny)
    values = np.empty((m, topology.n), dtype=np.float64)
    for k in range(m):
        values[k] = reader.block(nx, ny, f"member {k}")
    reader.expect_end()
    return Ensemble(topology, values)


def save_ensemble(e: Ensemble, sink: IO[bytes]) -> None:
    """Write EGF bytes; inverse of load_ensemble (values roundtrip exactly)."""
    lines = ["EGF1", f"{e.topology.nx} {e.topology.ny} {e.m}"]
    for k in range(e.m):
        lines.extend(_block_rows(e.values[k], e.topology.nx, e.topology.ny))
    sink.write(("\n".join(lines) + "\n").encode("utf-8"))
