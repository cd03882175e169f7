"""Command-line front end: classify, estimate, query, render, synth, coverage.

Every subcommand composes module operations and writes each output file
through one atomic sink, `_atomic_write`: writers write straight into a
temp file, which is synced and renamed over the output only when they
finish, so failures never leave partial output.  Binary writers write
into the sink's handle; text writers hand it a sequence of `str` pieces,
encoded one at a time, so no output is held whole as text or bytes.
Exit codes: 0 success, 2 usage or input error, 1 internal error.
Numbers in CSV output carry 9 significant digits with LF line endings,
except the confidence level gamma: the summary's metadata, the coverage
CSV and `query` write it as the shortest text that reads back to the
same double, so a level that rounds to 1 at 9 digits still reads back as
a level in (0, 1).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
import tempfile
from array import array
from collections.abc import Iterable, Iterator
from typing import IO

import numpy as np

# `count_types` and `render_map` are not called here; they stay bound because
# the benchmark's tracer (perfbench/tracer.py) wraps layer functions at the
# names this module binds.
from .critical import (  # noqa: F401
    CriticalType, TYPE_CODES, _member_chunk, _tally, classify_field, count_types,
)
from .grid import (
    GridTopology, _line_chunks, _parse_chunk, keyed_text, load_ensemble, save_ensemble,
    stream_ensemble,
)
from .render import GlyphStyle, render_map, render_map_pieces  # noqa: F401
from .stats import ConfidenceLevel, coverage_experiment, summarize
from .synth import (
    _SEED_MAX,
    _check_seed,
    estimate_moments,
    ground_truth_probabilities,
    load_moment_model,
    sample_ensemble,
    save_moment_model,
)

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


def _fmt9(value: float) -> str:
    return format(float(value), ".9g")


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _fsync_directory(directory: str) -> None:
    """Fsync `directory`, so the entries made in it survive a crash."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _make_directories(path: str) -> None:
    """Make directory `path` and its missing parents; fsync the parent of each one made."""
    if not os.path.isdir(path):
        parent = os.path.dirname(os.path.abspath(path))
        _make_directories(parent)
        os.mkdir(path)
        _fsync_directory(parent)


@contextlib.contextmanager
def _atomic_write(path: str) -> Iterator[IO[bytes]]:
    """Yield the binary handle of a temp file that replaces `path` on success.

    The only code that creates, renames or removes an output file.  The
    file and then its directory are fsynced, so a completed output
    survives a crash; on any failure the temp file is removed and an
    existing `path` keeps its bytes.  An error making the temp file names
    `path`, not the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cpci-tmp-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            # mkstemp creates the file 0600 and os.replace keeps that mode;
            # give it the mode a plain open() would.
            os.fchmod(handle.fileno(), 0o666 & ~_umask())
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    _fsync_directory(directory)


def _write_text(path: str, pieces: Iterable[str]) -> None:
    """Write text pieces through the sink as UTF-8, encoding one piece at a time."""
    with _atomic_write(path) as sink:
        sink.writelines(map(str.encode, pieces))


def _load_model_path(path: str):
    with open(path, "rb") as handle:
        return load_moment_model(handle)


def _vertex_csv(header: str, rows: np.ndarray, nx: int, tail: str) -> list[str]:
    """CSV pieces: `header`, then the line `i,j` + `tail % row` of each row of an (n, k) array.

    `tail % row` is formatted once per distinct row (`grid.keyed_text`)
    and shared by every vertex whose row has the same bits; the `i,` and
    `j` pieces are formatted once per column and row of the grid.
    """
    def tails(distinct: np.ndarray) -> list[str]:
        # A structured view makes tolist() yield the tuples `%` takes.
        fields = distinct.view([("", distinct.dtype)] * distinct.shape[1]).ravel()
        return [tail % row for row in fields.tolist()]
    # The `i,` and `j` pieces are made after the rows are keyed, the writer's memory peak.
    texts = keyed_text(rows, tails)
    i_pieces = itertools.cycle([f"{i}," for i in range(nx)])
    j_pieces = [j for j in map(str, range(len(rows) // nx)) for _ in range(nx)]
    return [header, *itertools.chain.from_iterable(zip(i_pieces, j_pieces, texts))]


def _summary_csv(
    table: np.ndarray,
    topology: GridTopology,
    m: int,
    gamma: float,
) -> list[str]:
    """Summary CSV pieces of a (3, 3, n) table."""
    return _vertex_csv(f"# m={m} gamma={float(gamma)!r}\n{_SUMMARY_HEADER}\n",
                       table.reshape(9, topology.n).T, topology.nx, _SUMMARY_TAIL)


def _metadata(path: str, key: str, value: str):
    """`value` parsed as summary metadata `key` requires, else a ValueError naming both."""
    kind, valid, requirement = _METADATA[key]
    with contextlib.suppress(ValueError):
        number = kind(value)
        if valid(number):
            return number
    raise ValueError(f"{path}: metadata {key}={value!r} is not {requirement}")


def _content_lines(path: str, lines: Iterable[str], metadata: dict) -> Iterator[str]:
    """The stripped lines of a summary that are neither blank nor comments.

    Each comment is scanned for metadata into `metadata`, the last one
    winning; a bad value is a ValueError naming `path` and the key.
    """
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("#"):
            for token in stripped.lstrip("#").split():
                key, _, value = token.partition("=")
                if key in _METADATA and value:
                    metadata[key] = _metadata(path, key, value)
        elif stripped:
            yield stripped


def _summary_text(handle: IO[bytes], records: list[np.ndarray]) -> bytes:
    """The bytes of a summary left to its text parse; plain rows go to `records`.

    The head, the blank and `#` comment lines up to the header line, is
    always left.  After the header, each chunk of whole lines that numpy's
    C text reader parses in one step (`_parse_chunk`) with no negative
    index is appended to `records`; from the first chunk that declines,
    the rest of the file is left too.  Such a chunk holds no spaces,
    quotes, `_` or letters but `e` and `E`, and the C reader reads its
    cells as int() and float() do.
    """
    head = []
    for raw in handle:
        head.append(raw)
        if raw == _SUMMARY_HEADER_LINE:
            break
        if raw.strip()[:1] not in (b"", b"#"):
            return b"".join(head) + handle.read()
    for chunk in _line_chunks(handle):
        # No chunk has more lines than bytes, so its length is no bound.
        rows = _parse_chunk(chunk, 1, len(chunk), _SUMMARY_PLAIN, ",", _SUMMARY_RECORD)
        if rows is None or (rows["i"] < 0).any() or (rows["j"] < 0).any():
            return b"".join(head) + chunk + handle.read()
        records.append(rows[:, 0])
    return b"".join(head)


def _parse_text_rows(path: str, rows: list[str]) -> np.ndarray:
    """Parse stripped summary data rows, one at a time, into `_SUMMARY_RECORD`s.

    A ValueError names the first row that is not 11 fields which int()
    (the indices) and float() (the values) accept; if there is none, an
    index beyond int64; and then the first row with a negative index.
    """
    indices, values = [], array("d")
    for row in rows:
        fields = row.split(",")
        if len(fields) != 11:
            raise ValueError(f"{path}: expected 11 fields per row, got {len(fields)}: {row!r}")
        try:
            indices += int(fields[0]), int(fields[1])
            values.extend(map(float, fields[2:]))
        except ValueError:
            raise ValueError(f"{path}: malformed row {row!r}") from None
    try:
        i, j = np.array(indices, dtype=np.int64).reshape(-1, 2).T
    except OverflowError:
        raise ValueError(f"{path}: vertex index beyond the 64-bit range") from None
    negative = (i < 0) | (j < 0)
    if negative.any():
        raise ValueError(
            f"{path}: negative vertex index in row {rows[int(np.argmax(negative))]!r}")
    records = np.empty(len(rows), _SUMMARY_RECORD)
    records["i"], records["j"] = i, j
    records["values"] = np.frombuffer(values).reshape(-1, 9)
    return records


def _read_summary_rows(path: str):
    """Parse the rows of a summary CSV; return (metadata, records).

    `records` holds one `_SUMMARY_RECORD` per data row.  Plain rows after
    the header are parsed in chunks through numpy's C text reader
    (`_summary_text`).  The rest of the file, from the first chunk that
    declines, is parsed as text together with the head: the comments are
    scanned for metadata and the rows go to `_parse_text_rows`, which
    parses them one at a time.  This text parse defines the summary
    format and every message of a file it rejects.  Plain rows are ASCII,
    hold no `#` and are valid rows with indices >= 0, so leaving them out
    of the text changes no message.
    """
    records = []
    with open(path, "rb") as handle:
        try:
            # The raw text is dropped here, before any row is parsed.
            lines = _summary_text(handle, records).decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    metadata = {}
    data_lines = list(_content_lines(path, lines, metadata))
    if not data_lines:
        raise ValueError(f"{path}: no header row found")
    header = data_lines[0]
    if header != _SUMMARY_HEADER:
        raise ValueError(
            f"{path}: unexpected header {header!r}; expected {_SUMMARY_HEADER!r}")
    if len(data_lines) > 1:
        records.append(_parse_text_rows(path, data_lines[1:]))
    if not records:
        raise ValueError(f"{path}: no data rows")
    return metadata, np.concatenate(records)


def _read_summary_csv(path: str):
    """Parse a summary CSV back into a (3, 3, n) table in linear vertex order.

    Returns (topology, table, m, gamma); m and gamma are None when the
    metadata comment is absent, and an error when present but not an
    integer >= 1 and a level in (0, 1).  The rows are read in one pass
    (`_read_summary_rows`): plain chunks through numpy's C text reader,
    the rest row by row, with the result and messages of a wholly
    row-by-row parse.  The row count is checked against the grid the
    indices span before any per-vertex array is allocated.
    """
    metadata, records = _read_summary_rows(path)
    i, j, values, rows = records["i"], records["j"], records["values"].T, len(records)
    # Sorted by (j, i), the rows of a complete grid are its vertices in
    # linear order: position k holds (k % nx, k // nx).
    order = np.lexsort((i, j))
    si, sj = i[order], j[order]
    repeated = (si[1:] == si[:-1]) & (sj[1:] == sj[:-1])
    if repeated.any():
        k = np.argmax(repeated)
        raise ValueError(f"{path}: duplicate vertex ({si[k]}, {sj[k]})")
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
            f"{path}: missing vertex ({first % nx}, {first // nx}); {rows} rows "
            f"do not cover the {nx}x{ny} grid ({topology.n} vertices)")
    table = values.take(order, axis=1).reshape(3, 3, topology.n)
    bad = ~(np.isfinite(table) & (table >= 0.0) & (table <= 1.0))
    if bad.any():
        t, stat, v = np.argwhere(bad)[0].tolist()
        raise ValueError(
            f"{path}: vertex {topology.coords(v)} {_SUMMARY_COLUMNS[3 * t + stat]}="
            f"{float(table[t, stat, v])!r} is not a probability")
    inverted = table[:, 1] > table[:, 2]
    if inverted.any():
        t, v = np.argwhere(inverted)[0].tolist()
        raise ValueError(
            f"{path}: vertex {topology.coords(v)} {_SUMMARY_COLUMNS[3 * t + 1]}="
            f"{float(table[t, 1, v])!r} exceeds {_SUMMARY_COLUMNS[3 * t + 2]}="
            f"{float(table[t, 2, v])!r}")
    return topology, table, metadata.get("m"), metadata.get("gamma")


def _parse_list(text: str, flag: str, kind: type, noun: str) -> list:
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated {noun}, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} must list at least one value")
    return values


def cmd_classify(args: argparse.Namespace) -> int:
    field = None
    with open(args.input, "rb") as handle:
        topology, m, members = stream_ensemble(handle, lambda n: 1)
        # The whole file is parsed, so a malformed one is reported before
        # an out-of-range --member; only that member's values are kept.
        for k, member in enumerate(members):
            if k == args.member:
                field = member[0]
    if field is None:
        raise ValueError(f"--member must be in [0, {m - 1}], got {args.member}")
    codes = classify_field(field, topology)
    vertices = np.flatnonzero(codes != CriticalType.REGULAR)
    _write_text(args.output, ["i,j,type\n", *(
        "%d,%d,%s\n" % (*topology.coords(v), TYPE_CODES[code])
        for v, code in zip(vertices.tolist(), codes[vertices].tolist()))])
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    # Members are parsed and tallied one chunk at a time, so memory does
    # not grow with m.
    with open(args.input, "rb") as handle:
        topology, m, blocks = stream_ensemble(handle, _member_chunk)
        counts = _tally(blocks, topology)
    if args.counts:
        _write_text(args.output, _vertex_csv(
            "i,j,c_min,c_max,c_saddle,m\n", counts.T, topology.nx, f",%d,%d,%d,{m}\n"))
        return 0
    level = ConfidenceLevel(args.gamma)
    table = summarize(counts, m, level)
    _write_text(args.output, _summary_csv(table, topology, m, level.gamma))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    topology, table, m, gamma = _read_summary_csv(args.input)
    if m is None or gamma is None:
        raise ValueError(
            f"{args.input}: missing `# m=... gamma=...` metadata; cannot report m and gamma")
    i, j = args.i, args.j
    if not topology.contains(i, j):
        raise ValueError(
            f"vertex out of range: i must be in [0, {topology.nx - 1}] "
            f"and j in [0, {topology.ny - 1}], got ({i}, {j})")
    print(f"vertex ({i}, {j})  m={m}  gamma={float(gamma)!r}")
    for code, triple in zip(("min", "max", "sad"),
                            table[:, :, topology.linear(i, j)].tolist()):
        print("%s  p_hat=%.9g  p_lower=%.9g  p_upper=%.9g" % (code, *triple))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    topology, table, _, _ = _read_summary_csv(args.input)
    if args.ground_truth:
        # A ground-truth map shows point estimates: each p_hat is its own interval.
        table = table[:, [0, 0, 0]]
    style = GlyphStyle(r_max=args.rmax, cell=args.cell)
    _write_text(args.output, render_map_pieces(table, topology, style))
    return 0


def cmd_synth_fit(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as handle:
        model = estimate_moments(load_ensemble(handle))
    with _atomic_write(args.output) as sink:
        save_moment_model(model, sink)
    return 0


def cmd_synth_sample(args: argparse.Namespace) -> int:
    model = _load_model_path(args.input)
    sizes = _parse_list(args.sizes, "--sizes", int, "integers")
    if any(size < 1 for size in sizes):
        raise ValueError(f"--sizes entries must be >= 1, got {sizes}")
    if len(set(sizes)) != len(sizes):
        # Each size names its files, so a repeated size would overwrite them.
        raise ValueError(f"--sizes entries must be distinct, got {sizes}")
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    # Only the base seed comes from the user; the per-file seeds below wrap.
    _check_seed(args.seed)
    for seed, (size, k) in enumerate(itertools.product(sizes, range(args.count)), args.seed):
        ensemble = sample_ensemble(model, size, seed % _SEED_MAX)
        if seed == args.seed:
            # Made once, after the first draw, so a model whose draws fail
            # leaves no empty directory behind.
            _make_directories(args.output)
        path = os.path.join(args.output, f"sample_m{size}_{k:02d}.egf")
        with _atomic_write(path) as sink:
            save_ensemble(ensemble, sink)
        print(path)
    return 0


def cmd_synth_truth(args: argparse.Namespace) -> int:
    model = _load_model_path(args.input)
    level = ConfidenceLevel(args.gamma)
    table = ground_truth_probabilities(model, args.draws, args.seed, level)
    _write_text(args.output, _summary_csv(table, model.topology, args.draws, level.gamma))
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    p_values = _parse_list(args.p, "--p", float, "numbers")
    m_values = _parse_list(args.m, "--m", int, "integers")
    level = ConfidenceLevel(args.gamma)
    # Only the base seed comes from the user; the per-cell seeds below wrap.
    _check_seed(args.seed)
    lines = ["p,m,gamma,reps,coverage,mean_width\n"]
    for seed, (p, m) in enumerate(itertools.product(p_values, m_values), args.seed):
        report = coverage_experiment(p, m, level, reps=args.reps, seed=seed % _SEED_MAX)
        lines.append(
            f"{_fmt9(report.p_true)},{report.m},{float(report.gamma)!r},"
            f"{report.reps},{_fmt9(report.empirical_coverage)},"
            f"{_fmt9(report.mean_width)}\n")
    _write_text(args.output, lines)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpci",
        description=(
            "Confidence intervals for critical-point occurrence probabilities "
            "in ensembles of piecewise-linear scalar fields."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="list critical points of one ensemble member as CSV")
    p_classify.add_argument("--input", required=True, help="input EGF file")
    p_classify.add_argument("--output", required=True, help="output CSV file")
    p_classify.add_argument(
        "--member", type=int, default=0, help="member index (default 0)")
    p_classify.set_defaults(func=cmd_classify)

    p_estimate = sub.add_parser(
        "estimate",
        help="per-vertex occurrence probabilities with Jeffreys intervals")
    p_estimate.add_argument("--input", required=True, help="input EGF file")
    p_estimate.add_argument("--output", required=True, help="output CSV file")
    p_estimate.add_argument(
        "--gamma", type=float, default=0.95, help="confidence level (default 0.95)")
    p_estimate.add_argument(
        "--counts", action="store_true",
        help="emit raw per-type counts instead of interval estimates")
    p_estimate.set_defaults(func=cmd_estimate)

    p_query = sub.add_parser(
        "query", help="print the nine values of one vertex from a summary CSV")
    p_query.add_argument("--input", required=True, help="summary CSV file")
    p_query.add_argument("i", type=int, help="vertex column index")
    p_query.add_argument("j", type=int, help="vertex row index")
    p_query.set_defaults(func=cmd_query)

    p_render = sub.add_parser(
        "render", help="render a summary CSV as an SVG glyph map")
    p_render.add_argument("--input", required=True, help="summary CSV file")
    p_render.add_argument("--output", required=True, help="output SVG file")
    p_render.add_argument(
        "--rmax", type=float, default=18.0, help="glyph radius at p=1 (default 18)")
    p_render.add_argument(
        "--cell", type=float, default=40.0, help="grid spacing in pixels (default 40)")
    p_render.add_argument(
        "--ground-truth", action="store_true",
        help="draw each p_hat alone, with no interval (p_lower = p_upper = p_hat)")
    p_render.set_defaults(func=cmd_render)

    p_synth = sub.add_parser(
        "synth", help="Gaussian model fitting, sampling, and ground truth")
    synth_sub = p_synth.add_subparsers(dest="synth_command", required=True)

    p_fit = synth_sub.add_parser("fit", help="estimate moments from an EGF ensemble")
    p_fit.add_argument("--input", required=True, help="input EGF file")
    p_fit.add_argument("--output", required=True, help="output MMF file")
    p_fit.set_defaults(func=cmd_synth_fit)

    p_sample = synth_sub.add_parser(
        "sample", help="draw numbered EGF ensembles from an MMF model")
    p_sample.add_argument("--input", required=True, help="input MMF file")
    p_sample.add_argument(
        "--output", required=True, help="output directory for EGF files")
    p_sample.add_argument(
        "--sizes", required=True,
        help="comma-separated ensemble sizes, e.g. 4,9,16")
    p_sample.add_argument(
        "--count", type=int, default=1,
        help="ensembles per size (default 1); seeds derive from --seed + ordinal")
    p_sample.add_argument(
        "--seed", type=int, default=0, help="base seed (default 0)")
    p_sample.set_defaults(func=cmd_synth_sample)

    p_truth = synth_sub.add_parser(
        "truth", help="Monte-Carlo ground-truth probabilities from an MMF model")
    p_truth.add_argument("--input", required=True, help="input MMF file")
    p_truth.add_argument("--output", required=True, help="output summary CSV")
    p_truth.add_argument(
        "--draws", type=int, default=100_000,
        help="Monte-Carlo draws (default 100000)")
    p_truth.add_argument("--seed", type=int, default=0, help="seed (default 0)")
    p_truth.add_argument(
        "--gamma", type=float, default=0.95, help="confidence level (default 0.95)")
    p_truth.set_defaults(func=cmd_synth_truth)

    p_coverage = sub.add_parser(
        "coverage", help="Monte-Carlo coverage of Jeffreys intervals as CSV")
    p_coverage.add_argument(
        "--p", required=True, help="comma-separated true probabilities")
    p_coverage.add_argument(
        "--m", required=True, help="comma-separated ensemble sizes")
    p_coverage.add_argument("--output", required=True, help="output CSV file")
    p_coverage.add_argument(
        "--gamma", type=float, default=0.95, help="confidence level (default 0.95)")
    p_coverage.add_argument(
        "--reps", type=int, default=10_000, help="replications per cell (default 10000)")
    p_coverage.add_argument(
        "--seed", type=int, default=0,
        help="base seed; each (p, m) cell uses --seed + ordinal")
    p_coverage.set_defaults(func=cmd_coverage)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # A MemoryError comes from an input that asks for more than there
        # is, such as `synth sample --sizes 10**12`.
        print(f"cpci: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"cpci: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
