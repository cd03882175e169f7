"""Simplicial grid topology, vertex links, and the text grid file format.

The domain is an nx-by-ny vertex lattice in which every unit cell
[i, i+1] x [j, j+1] is split along the fixed diagonal from (i, j) to
(i+1, j+1) (Freudenthal convention).  Interior vertices therefore have
six link neighbors; boundary vertices have two to four.

EGF ensembles and MMF moment models share one text layout: a magic
line, an `nx ny count` header, then blocks of ny rows of nx reals.
`stream_blocks` parses the header at once and then the body, as it is
iterated, in chunks of whole lines into arrays of a given number of
blocks: numpy's C text reader parses a chunk of plain numeric rows in
one step (`_parse_chunk`), and every other line goes through one
line-by-line parse, the one that defines the format.  Other text
tables, such as the summary CSV, read their rows in the same chunks
(`_line_chunks`) through the same fast path, with their own byte
alphabet, delimiter and record dtype, and parse any chunk it declines
by their own rules.
`write_blocks` writes the layout one block at a time.  The EGF callers
are `load_ensemble` (the whole body as one array), `stream_ensemble` (a
few members at a time) and `save_ensemble`; `cpci.synth` holds the MMF
ones.  The CSV and SVG writers format per-vertex rows through
`keyed_text`, once per distinct row.
"""

from __future__ import annotations

import io
import sys
from collections.abc import Callable, Iterable, Iterator
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
    "stream_ensemble",
    "save_ensemble",
    "stream_blocks",
    "write_blocks",
    "keyed_text",
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


def _require_links(topology: GridTopology) -> None:
    if topology.nx < 2 or topology.ny < 2:
        raise ValueError("vertex links require at least a 2x2 grid")


def build_link(topology: GridTopology, v: tuple[int, int]) -> VertexLink:
    """Return the link of vertex v in triangulation order.

    Interior links are 6-cycles counterclockwise from (i+1, j).  Boundary
    links are open paths; the path starts at the endpoint with the
    smaller linear index so the ordering is deterministic.
    """
    _require_links(topology)
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
        # min and max propagate NaN, so this rejects every NaN and +-inf
        # without a temporary the size of the values.
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise ValueError("ensemble values must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return int(self.values.shape[0])


# Body chunks are read about this many bytes at a time.  Chunks of 32 to
# 256 KiB parse equally fast; at 64 KiB a chunk and its parsed rows add
# under a tenth to the parse's peak memory once the values pass about 2 MB.
_CHUNK_BYTES = 1 << 16
# The only bytes an EGF/MMF chunk may hold to be parsed in one step.
_PLAIN_BYTES = b"0123456789.eE+- \n"


def _split_lines(raw: bytes, lineno: int) -> list[str]:
    """The stripped lines of one LF-terminated raw line that follows line `lineno`.

    `str.splitlines` splits the decoded text again at every other line
    boundary (lone CR, form feed, U+2028, ...), so line numbers count the
    lines of the whole decoded text.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(lineno + 1, f"not valid UTF-8 ({exc.reason})") from None
    return [line.strip() for line in text.splitlines()]


def _line_chunks(source: IO[bytes]) -> Iterator[bytes]:
    """The rest of `source` in chunks of about `_CHUNK_BYTES` of whole lines."""
    while chunk := source.read(_CHUNK_BYTES):
        if not chunk.endswith(b"\n"):
            chunk += source.readline()
        yield chunk


def _parse_chunk(chunk: bytes, width: int, room: int, plain: bytes = _PLAIN_BYTES,
                 delimiter: str | None = None, dtype=np.float64) -> np.ndarray | None:
    """The (lines, width) items of a chunk of plain lines, or None.

    numpy's C text reader parses a chunk only if it has at most `room`
    lines and only the bytes in `plain`, and if every line gives `width`
    finite items of `dtype`: numbers split at `delimiter` (None: runs of
    spaces), or, for a structured dtype, one record of its fields.  The
    caller picks `plain` so that such a chunk has no comment, blank line
    or other line boundary and its own parse would read the same items;
    any other chunk, well-formed or not, is left to that parse.
    """
    lines = chunk.count(b"\n")
    if not 0 < lines <= room:
        return None
    # loadtxt would warn of empty input on a chunk of blank lines.
    if chunk.isspace() or chunk.translate(None, plain):
        return None
    try:
        rows = np.loadtxt(io.BytesIO(chunk), dtype, comments=None, delimiter=delimiter,
                          ndmin=2)
    except (ValueError, OverflowError):
        return None
    fields = [rows] if rows.dtype.names is None else [rows[f] for f in rows.dtype.names]
    if rows.shape != (lines, width) or not all(np.isfinite(f).all() for f in fields):
        return None
    return rows


def _parses_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def stream_blocks(source: IO[bytes], magic: str, header: str,
                  block_name: Callable[[int, int], str], extra: int = 0,
                  batch: Callable[[int], int] | None = None,
                  ) -> tuple[GridTopology, int, Iterator[np.ndarray]]:
    """Parse the head of a text grid stream; return (topology, count, blocks).

    Layout: the `magic` line; the header `nx ny count`, described as
    `header` in errors; then `count + extra` blocks, each ny rows of nx
    whitespace-separated finite reals, row j=0 first.  The text is UTF-8
    with any line ending, and blank and `#` comment lines are skipped.
    Raises ParseError naming the offending line; `block_name(k, count)`
    names block k in row errors.

    The magic and header are parsed before this returns.  `blocks` then
    parses the body as it is iterated and yields it as (k, n) float64
    arrays of `batch(n)` blocks each (the last may hold fewer), or as one
    array when `batch` is None; body errors surface from the iteration,
    after the blocks before them.  The body is read in chunks of whole
    lines: a chunk of plain numeric rows goes through `_parse_chunk` in
    one step, even where it spans arrays.  Every other body line, in a
    chunk it declines or left on the header's own line by a lone CR or
    U+2028, goes through one line-by-line parse, which defines the
    format.  Each array is allocated when the consumer asks for it: the
    first before any row is parsed, each next one right after the array
    before it is yielded.
    """
    seen = 0  # lines read so far

    def numbered(raw: bytes) -> list[tuple[int, str]]:
        """The (line number, text) content lines of one LF-terminated raw line."""
        nonlocal seen
        first, texts = seen + 1, _split_lines(raw, seen)
        seen += len(texts)
        return [(n, t) for n, t in enumerate(texts, first) if t and not t.startswith("#")]

    # Content lines read but not yet parsed.  Past the header these are
    # only the rows that a lone CR or U+2028 put on the header's raw line.
    unparsed: list[tuple[int, str]] = []

    def take(expected: str, last: int) -> tuple[int, str]:
        while not unparsed:
            raw = source.readline()
            if not raw:
                raise ParseError(last, f"unexpected end of file, expected {expected}")
            unparsed.extend(numbered(raw))
        return unparsed.pop(0)

    lineno, token = take(f"magic line {magic!r}", 1)
    if token != magic:
        raise ParseError(lineno, f"bad magic line {token!r}, expected {magic!r}")
    head, line = take(f"header {header!r}", lineno)
    parts = line.split()
    if len(parts) != 3:
        raise ParseError(
            head, f"header {header!r} needs 3 integers, got {len(parts)} tokens")
    try:
        nx, ny, count = (int(p) for p in parts)
    except ValueError:
        raise ParseError(head, f"non-integer in header {line!r}") from None
    if min(nx, ny, count) < 1:
        raise ParseError(head, f"header values must be positive, got {line!r}")
    topology = GridTopology(nx, ny)
    total = count + extra
    too_big = f"header {line!r} asks for more values than fit in memory"
    # No array can hold more bytes than the address space, and a count
    # that passes fits the int64 tallies and indices downstream.
    if total * topology.n > sys.maxsize // 8:
        raise ParseError(head, too_big)
    size = total if batch is None else batch(topology.n)
    end, step = total * ny, size * ny  # rows in the body and per yielded array

    def body() -> Iterator[np.ndarray]:
        nonlocal seen
        filled = 0  # rows parsed so far, over the whole body
        lineno = head  # the last content line, which end-of-file errors name

        def start() -> np.ndarray:
            try:
                return np.empty((min(size, total - filled // ny) * ny, nx))
            except MemoryError:
                raise ParseError(head, too_big) from None

        def put(parsed: np.ndarray) -> Iterator[np.ndarray]:
            """Copy parsed rows in, yielding each array they fill as (k, n) blocks.

            The next array is allocated when the consumer asks for it, so
            the consumer works on a yielded array while only the rest of
            `parsed` waits.
            """
            nonlocal filled, rows
            while len(parsed):
                at = filled % step
                stored = min(len(parsed), len(rows) - at)
                rows[at:at + stored] = parsed[:stored]
                parsed = parsed[stored:]
                filled += stored
                if at + stored == len(rows):
                    yield rows.reshape(-1, topology.n)
                    rows = start()

        def parse_lines(lines: Iterable[tuple[int, str]]) -> Iterator[np.ndarray]:
            """Parse numbered content lines one row at a time: the format's definition."""
            nonlocal lineno
            for lineno, text in lines:
                if filled == end:
                    raise ParseError(lineno, "trailing content after final block")
                k, j = divmod(filled, ny)
                tokens = text.split()
                if len(tokens) != nx:
                    raise ParseError(lineno, f"expected {nx} values in row {j} of "
                                             f"{block_name(k, count)}, got {len(tokens)}")
                try:
                    row = np.asarray(tokens, dtype=np.float64)
                except ValueError:
                    bad = next((t for t in tokens if not _parses_as_float(t)), tokens[0])
                    raise ParseError(lineno, f"bad number {bad!r}") from None
                if not np.isfinite(row).all():
                    bad = tokens[int(np.flatnonzero(~np.isfinite(row))[0])]
                    raise ParseError(lineno, f"non-finite value {bad!r}")
                yield from put(row[None])

        # The first array is allocated before any row is parsed, so a header
        # that asks for more than memory holds fails at the header; each next
        # one right after the array before it is yielded.
        rows = start()
        yield from parse_lines(unparsed)
        for chunk in _line_chunks(source):
            # The room is the rest of the body, not of the current array, so a
            # chunk that spans two arrays still parses in one step.
            parsed = _parse_chunk(chunk, nx, end - filled)
            if parsed is None:
                yield from parse_lines(
                    line for raw in io.BytesIO(chunk) for line in numbered(raw))
            else:
                seen += len(parsed)
                lineno = seen
                yield from put(parsed)
        if filled < end:
            k, j = divmod(filled, ny)
            raise ParseError(
                lineno, f"unexpected end of file, expected row {j} of {block_name(k, count)}")

    return topology, count, body()


def write_blocks(sink: IO[bytes], magic: str, topology: GridTopology, count: int,
                 blocks: Iterable[np.ndarray]) -> None:
    """Write the layout `stream_blocks` parses, one block at a time.

    Values carry 17 significant digits, so they roundtrip exactly.
    """
    nx, ny = topology.nx, topology.ny
    sink.write(f"{magic}\n{nx} {ny} {count}\n".encode("utf-8"))
    row = " ".join(["%.17g"] * nx)
    for block in blocks:
        flat = block.tolist()
        text = "\n".join([row % tuple(flat[j * nx:(j + 1) * nx]) for j in range(ny)])
        sink.write((text + "\n").encode("utf-8"))


def keyed_text(rows: np.ndarray, format_rows: Callable[[np.ndarray], list[str]]) -> list[str]:
    """The text of each row of an (n, k) array, formatted once per distinct row.

    Rows are keyed by their raw bytes: -0.0 and 0.0 are different keys,
    and so are NaNs with different payloads.  `format_rows` is called
    once, on the (d, k) distinct rows in key order, and returns their d
    strings; row i gets the string of its key, so rows with equal keys
    share one `str` object.
    """
    # One void key per row compares as the row's raw bytes.
    keys = np.ascontiguousarray(rows).view(
        np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    # The row copy is freed before the strings are made: kept alive, it left
    # `render` on a 256x256 summary about 7 MB higher in peak RSS, at the
    # same tracemalloc peak.
    del keys
    texts = format_rows(distinct.view(rows.dtype).reshape(len(distinct), -1))
    return np.array(texts, dtype=object)[inverse].tolist()


def _member_name(k: int, m: int) -> str:
    return f"member {k}"


def load_ensemble(source: IO[bytes]) -> Ensemble:
    """Parse an EGF byte stream: magic `EGF1`, header `nx ny m`, m member blocks."""
    topology, _, (values,) = stream_blocks(source, "EGF1", "nx ny m", _member_name)
    return Ensemble(topology, values)


def stream_ensemble(source: IO[bytes], batch: Callable[[int], int],
                    ) -> tuple[GridTopology, int, Iterator[np.ndarray]]:
    """Open an EGF byte stream as (topology, m, member arrays).

    The arrays are (k, n) with k = `batch(n)` members (the last may hold
    fewer), parsed as they are iterated; see `stream_blocks`.
    """
    return stream_blocks(source, "EGF1", "nx ny m", _member_name, batch=batch)


def save_ensemble(e: Ensemble, sink: IO[bytes]) -> None:
    """Write EGF bytes; inverse of load_ensemble (values roundtrip exactly)."""
    write_blocks(sink, "EGF1", e.topology, e.m, e.values)
