"""Simplicial grid topology, vertex links, and the grid's text file formats.

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
line-by-line parse, the one that defines the format.
`write_blocks` writes the layout one block at a time.  The EGF callers
are `load_ensemble` (the whole body as one array), `stream_ensemble` (a
few members at a time) and `save_ensemble`; `cpci.synth` holds the MMF
ones.  `stream_range` parses a byte range of an EGF body that starts
at a member: it is `stream_blocks` given the shape, which skips the
head, and a byte limit, so the range is read by the same parse and
raises ParseError unless it holds exactly the members asked for.  With
`egf_head` and `line_end`, which find where a member starts in a file
with the canonical head (else RangeDeclined), it lets `cli` split a
large EGF between two processes.

The summary CSV, the per-vertex table of point estimates and interval
bounds, is written by `save_summary` and read by `load_summary`.  Its
reader takes its rows in the same chunks (`_line_chunks`) through the
same fast path, with its own byte alphabet, delimiter and record dtype,
and parses any chunk it declines row by row, the parse that defines
the format.  Both take binary handles and name no file in their
errors.  The CSV and SVG writers format per-vertex rows through
`keyed_text`, once per distinct row; `vertex_csv` lays out the CSV
ones.  `stream_ensemble`, `stream_blocks`, `stream_range`, `write_blocks`,
`keyed_text` and `vertex_csv` are left out of `__all__`, and so out of the package
API: they are the streaming and formatting plumbing that `cli`,
`render` and `synth` import by name.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import sys
from array import array
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
    "save_ensemble",
    "load_summary",
    "save_summary",
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


def _line_chunks(source: IO[bytes], limit: int = -1) -> Iterator[bytes]:
    """The next `limit` bytes of `source` (the rest, if negative) in chunks of whole lines.

    Each chunk is about `_CHUNK_BYTES` long and ends at a line end, or at
    the end of the range.
    """
    while limit and (chunk := source.read(
            _CHUNK_BYTES if limit < 0 else min(limit, _CHUNK_BYTES))):
        if not chunk.endswith(b"\n"):
            chunk += source.readline(max(limit - len(chunk), -1))
        limit -= len(chunk)
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
                  shape: tuple[int, int, int] | None = None, limit: int = -1,
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

    A known `shape` (nx, ny, count) skips the magic and header: `source`
    is then at the start of a body line, such as a block's first, and
    line numbers count from there.  Only the next `limit` bytes of the
    body are read (the rest, if negative); the caller puts their end at
    a line end.
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

    if shape is None:
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
    else:
        (nx, ny, count), head, line = shape, 0, "%d %d %d" % shape
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
        for chunk in _line_chunks(source, limit):
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


class RangeDeclined(Exception):
    """A file that only `stream_blocks` reads whole: no canonical head, or too few lines."""


def stream_range(source: IO[bytes], shape: tuple[int, int, int],
                 batch: Callable[[int], int], limit: int = -1) -> Iterator[np.ndarray]:
    """Parse the next `limit` bytes of an EGF body (the rest, if negative) as `shape`'s members.

    `shape` is (nx, ny, count), and `source` is at the start of a member.
    The range is parsed by `stream_blocks` itself, so it yields what that
    parse yields for these rows, in `batch(n)`-member arrays, and raises
    ParseError unless the range holds exactly `count` members.  Its line
    numbers count from the start of the range.
    """
    return stream_blocks(source, "EGF1", "nx ny m", _member_name, batch=batch,
                         shape=shape, limit=limit)[2]


def egf_head(source: IO[bytes]) -> tuple[int, int, int]:
    """(nx, ny, m) of an EGF that starts `EGF1\\n{nx} {ny} {m}\\n`, else RangeDeclined.

    That head, as `write_blocks` writes it, is the only one read here;
    `source` is then left at the first byte of the body.
    """
    magic, header = source.readline(5), source.readline(64)
    try:
        nx, ny, m = map(int, header.split(b" "))
    except ValueError:
        raise RangeDeclined from None
    if magic != b"EGF1\n" or header != b"%d %d %d\n" % (nx, ny, m):
        raise RangeDeclined
    return nx, ny, m


def line_end(source: IO[bytes], lines: int) -> int:
    """The offset just past the `lines`-th LF after the position of `source`.

    Raises RangeDeclined if the rest of `source` holds fewer.
    """
    offset = source.tell()
    while chunk := source.read(1 << 20):
        found = chunk.count(b"\n")
        if found >= lines:
            ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
            return offset + int(ends[lines - 1]) + 1
        lines -= found
        offset += len(chunk)
    raise RangeDeclined


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


def keyed_text(rows: np.ndarray, format_rows: Callable[[np.ndarray], list[str]]) -> np.ndarray:
    """The text of each row of an (n, k) array, formatted once per distinct row.

    Rows are keyed by their raw bits: -0.0 and 0.0 are different keys,
    and so are NaNs with different payloads.  `format_rows` is called
    once, on the (d, k) distinct rows in key order, and returns their d
    strings.  Returns an (n,) object array whose entry i is the string of
    row i's key, so rows with equal keys share one `str` object.
    """
    # Each column's bits as unsigned integers: a view where the column is
    # contiguous, as in the transposed tables the writers pass.
    columns = [np.ascontiguousarray(rows[:, c]).view(f"u{rows.itemsize}")
               for c in range(rows.shape[1])]
    order = np.lexsort(columns[::-1])
    # A sorted row starts a group where any column differs from the row before.
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for column in columns:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    del columns, ordered
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    texts = format_rows(rows[order[starts]])
    return np.array(texts, dtype=object)[inverse]


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


def vertex_csv(header: str, rows: np.ndarray, nx: int, tail: str) -> Iterator[str]:
    """CSV pieces: `header`, then the line `i,j` + `tail % row` of each row of an (n, k) array.

    `tail % row` is formatted once per distinct row (`keyed_text`), when
    this is called, and shared by every vertex whose row has the same
    bits; the `i,` and `j` pieces are formatted once per column and row
    of the grid.  The pieces are made as they are iterated, so no list of
    them is ever built.
    """
    def tails(distinct: np.ndarray) -> list[str]:
        # A structured view makes tolist() yield the tuples `%` takes.
        fields = distinct.view([("", distinct.dtype)] * distinct.shape[1]).ravel()
        return [tail % row for row in fields.tolist()]
    texts = keyed_text(rows, tails)
    i_pieces = itertools.cycle([f"{i}," for i in range(nx)])
    j_pieces = itertools.chain.from_iterable(
        itertools.repeat(j, nx) for j in map(str, range(len(rows) // nx)))
    return itertools.chain([header], itertools.chain.from_iterable(
        zip(i_pieces, j_pieces, texts)))


_SUMMARY_HEADER = (
    "i,j,min_hat,min_lo,min_hi,max_hat,max_lo,max_hi,sad_hat,sad_lo,sad_hi"
)
_SUMMARY_COLUMNS = _SUMMARY_HEADER.split(",")[2:]
_SUMMARY_TAIL = ",%.9g" * 9 + "\n"
_SUMMARY_HEADER_LINE = (_SUMMARY_HEADER + "\n").encode("ascii")
# The bytes of the summary rows that numpy's C text reader parses in one
# step, and the record it parses each row into; i and j stay exact int64.
_SUMMARY_PLAIN = b"0123456789.eE+-,\n"
_SUMMARY_RECORD = np.dtype([("i", np.int64), ("j", np.int64), ("values", np.float64, (9,))])
# Summary metadata: key -> (type, valid, requirement); ConfidenceLevel needs gamma in (0, 1).
_METADATA = {"m": (int, lambda m: m >= 1, "an integer >= 1"),
             "gamma": (float, lambda g: 0.0 < g < 1.0, "a confidence level in (0, 1)")}


def _summary_csv(
    table: np.ndarray,
    topology: GridTopology,
    m: int,
    gamma: float,
) -> Iterator[str]:
    """Summary CSV pieces of a (3, 3, n) table, made as they are iterated."""
    return vertex_csv(f"# m={m} gamma={float(gamma)!r}\n{_SUMMARY_HEADER}\n",
                      table.reshape(9, topology.n).T, topology.nx, _SUMMARY_TAIL)


def _metadata(key: str, value: str):
    """`value` parsed as summary metadata `key` requires, else a ValueError naming both."""
    kind, valid, requirement = _METADATA[key]
    with contextlib.suppress(ValueError):
        number = kind(value)
        if valid(number):
            return number
    raise ValueError(f"metadata {key}={value!r} is not {requirement}")


def _check_table(table: np.ndarray, topology: GridTopology) -> None:
    """Check that a (3, 3, n) table holds probabilities with lo <= hi.

    A ValueError names the first vertex with a value that is not a
    probability, or else the first with lo > hi.
    """
    bad = ~(np.isfinite(table) & (table >= 0.0) & (table <= 1.0))
    if bad.any():
        t, stat, v = np.argwhere(bad)[0].tolist()
        raise ValueError(
            f"vertex {topology.coords(v)} {_SUMMARY_COLUMNS[3 * t + stat]}="
            f"{float(table[t, stat, v])!r} is not a probability")
    inverted = table[:, 1] > table[:, 2]
    if inverted.any():
        t, v = np.argwhere(inverted)[0].tolist()
        raise ValueError(
            f"vertex {topology.coords(v)} {_SUMMARY_COLUMNS[3 * t + 1]}="
            f"{float(table[t, 1, v])!r} exceeds {_SUMMARY_COLUMNS[3 * t + 2]}="
            f"{float(table[t, 2, v])!r}")


def save_summary(table: np.ndarray, topology: GridTopology, m: int, gamma: float,
                 sink: IO[bytes]) -> None:
    """Write a (3, 3, n) table as summary CSV bytes; inverse of load_summary.

    Values carry 9 significant digits and gamma the shortest text that
    reads back to the same double.  A table whose values are not
    probabilities with lo <= hi, or metadata that `load_summary` would
    reject, is a ValueError with the reader's message, raised before
    anything is written.
    """
    if np.shape(table) != (3, 3, topology.n):
        raise ValueError(f"table must have shape (3, 3, {topology.n}), got {np.shape(table)}")
    _check_table(table, topology)
    _metadata("m", str(m))
    _metadata("gamma", repr(float(gamma)))
    sink.writelines(map(str.encode, _summary_csv(table, topology, m, gamma)))


def _content_lines(lines: Iterable[str], metadata: dict) -> Iterator[str]:
    """The stripped lines of a summary that are neither blank nor comments.

    Each comment is scanned for metadata into `metadata`, the last one
    winning; a bad value is a ValueError naming the key.
    """
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("#"):
            for token in stripped.lstrip("#").split():
                key, _, value = token.partition("=")
                if key in _METADATA and value:
                    metadata[key] = _metadata(key, value)
        elif stripped:
            yield stripped


def _summary_text(handle: IO[bytes], records: list[np.ndarray]) -> bytes:
    """The bytes of a summary left to its text parse; plain rows go to `records`.

    The head, every line up to and including the header line that ends
    in LF, is always left.  After it, each chunk of whole lines that
    numpy's C text reader parses in one step (`_parse_chunk`) with no
    negative index is appended to `records`, and every other chunk is
    left, as `stream_blocks` leaves it to its line parse.  Such a chunk
    holds no spaces, quotes, `_` or letters but `e` and `E`, and the C
    reader reads its cells as int() and float() do.
    """
    text = []
    for raw in handle:
        text.append(raw)
        if raw == _SUMMARY_HEADER_LINE:
            break
    for chunk in _line_chunks(handle):
        # No chunk has more lines than bytes, so its length is no bound.
        rows = _parse_chunk(chunk, 1, len(chunk), _SUMMARY_PLAIN, ",", _SUMMARY_RECORD)
        if rows is None or (rows["i"] < 0).any() or (rows["j"] < 0).any():
            text.append(chunk)
        else:
            records.append(rows[:, 0])
    return b"".join(text)


def _parse_text_rows(rows: list[str]) -> np.ndarray:
    """Parse stripped summary data rows, one at a time, into `_SUMMARY_RECORD`s.

    A ValueError names the first row that is not 11 fields which int()
    (the indices) and float() (the values) accept; if there is none, an
    index beyond int64; and then the first row with a negative index.
    """
    indices, values = [], array("d")
    for row in rows:
        fields = row.split(",")
        if len(fields) != 11:
            raise ValueError(f"expected 11 fields per row, got {len(fields)}: {row!r}")
        try:
            indices += int(fields[0]), int(fields[1])
            values.extend(map(float, fields[2:]))
        except ValueError:
            raise ValueError(f"malformed row {row!r}") from None
    try:
        i, j = np.array(indices, dtype=np.int64).reshape(-1, 2).T
    except OverflowError:
        raise ValueError("vertex index beyond the 64-bit range") from None
    negative = (i < 0) | (j < 0)
    if negative.any():
        raise ValueError(f"negative vertex index in row {rows[int(np.argmax(negative))]!r}")
    records = np.empty(len(rows), _SUMMARY_RECORD)
    records["i"], records["j"] = i, j
    records["values"] = np.frombuffer(values).reshape(-1, 9)
    return records


def load_summary(source: IO[bytes]):
    """Parse summary CSV bytes back into a (3, 3, n) table in linear vertex order.

    Returns (topology, table, m, gamma); m and gamma are None when the
    metadata comment is absent, and an error when present but not an
    integer >= 1 and a level in (0, 1).  Plain rows after the header are
    parsed in chunks through numpy's C text reader (`_summary_text`).
    Each chunk it declines is parsed as text, together with the head and
    the other declined chunks in file order: the comments are scanned for
    metadata and the rows go to `_parse_text_rows`, which parses them one
    at a time.  This text parse defines the summary format and every
    message of a file it rejects.  Plain rows are ASCII, hold no `#` and
    are valid rows with indices >= 0, so leaving them out of the text
    changes no result or message.  The row count is checked against the
    grid the indices span before any per-vertex array is allocated, and
    the values by `_check_table`.  Messages name no file; a caller that
    opened one adds its name.
    """
    records = []
    try:
        # The raw text is dropped here, before any row is parsed.
        lines = _summary_text(source, records).decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"not valid UTF-8 ({exc.reason})") from None
    metadata = {}
    data_lines = list(_content_lines(lines, metadata))
    if not data_lines:
        raise ValueError("no header row found")
    header = data_lines[0]
    if header != _SUMMARY_HEADER:
        raise ValueError(f"unexpected header {header!r}; expected {_SUMMARY_HEADER!r}")
    if len(data_lines) > 1:
        records.append(_parse_text_rows(data_lines[1:]))
    if not records:
        raise ValueError("no data rows")
    i = np.concatenate([chunk["i"] for chunk in records])
    j = np.concatenate([chunk["j"] for chunk in records])
    rows = len(i)
    # Sorted by (j, i), the rows of a complete grid are its vertices in
    # linear order: position k holds (k % nx, k // nx).
    order = np.lexsort((i, j))
    si, sj = i[order], j[order]
    repeated = (si[1:] == si[:-1]) & (sj[1:] == sj[:-1])
    if repeated.any():
        k = np.argmax(repeated)
        raise ValueError(f"duplicate vertex ({si[k]}, {sj[k]})")
    nx, ny = int(si.max()) + 1, int(sj.max()) + 1
    topology = GridTopology(nx, ny)
    if rows != topology.n:
        # Distinct in-box rows are fewer than the vertices: name the first gap.
        # k < rows, so dividing by min(nx, rows) splits k as nx does, and
        # that divisor fits int64 where nx (up to 2**63) may not.
        k, width = np.arange(rows), min(nx, rows)
        gap = (si != k % width) | (sj != k // width)
        first = int(np.argmax(gap)) if gap.any() else rows
        raise ValueError(
            f"missing vertex ({first % nx}, {first // nx}); {rows} rows "
            f"do not cover the {nx}x{ny} grid ({topology.n} vertices)")
    del i, j, order, si, sj
    # The rows cover the grid once each, so row (i, j) is vertex j*nx + i;
    # each chunk's values go straight to their columns of the table, and
    # the chunks are freed before the table is checked.
    table = np.empty((9, topology.n))
    for chunk in records:
        table[:, chunk["j"] * nx + chunk["i"]] = chunk["values"].T
    records.clear()
    table = table.reshape(3, 3, topology.n)
    _check_table(table, topology)
    return topology, table, metadata.get("m"), metadata.get("gamma")
