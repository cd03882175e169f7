"""Command-line front end: classify, estimate, query, render, synth, coverage.

Every subcommand composes module operations and writes each output file
through one atomic sink, `_atomic_write`: writers write straight into a
temp file, which is synced and renamed over the output only when they
finish, so failures never leave partial output.  Binary writers write
into the sink's handle; text writers hand it an iterable of `str` pieces,
encoded one at a time, so no output is held whole as text or bytes.
Exit codes: 0 success, 2 usage or input error, 1 internal error.

`estimate` checks its confidence level, then opens its EGF through one
serial stream, which parses the head at once and the body as it is
iterated, one chunk of members at a time.  Before the body is read, a
large regular file (`_SPLIT_BYTES`) whose head is the one `write_blocks`
writes is split at member K = m // 2, rounded up to a whole chunk, so
that the helper, which starts later, takes the smaller half: a helper
process (`python -c`, `_tally_back`) tallies [K, m) while this process
tallies [0, K), and the two int64 count arrays are added, which gives
the serial counts exactly.  The split point is the end of line K * ny of
the body, and each half is parsed by the serial stream's own parse
(`grid.stream_range`), which must find exactly its members' rows there:
a comment, blank line or CR that moves the member boundary leaves one
half with a row too few or too many.  Any parse error in either half
ends the split, as does a helper that fails or opens a different file.
The helper is then killed and reaped, and the serial stream reads the
body again from its first byte, so every output, message and exit code
is the serial stream's.
The summary CSV format is `grid`'s (`save_summary`, `load_summary`);
`_load_summary_path` prefixes its errors with the file's path.
Numbers in CSV output carry 9 significant digits with LF line endings,
except the confidence level gamma: the summary's metadata, the coverage
CSV and `query` write it as the shortest text that reads back to the
same double, so a level that rounds to 1 at 9 digits still reads back as
a level in (0, 1).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import os
import sys
from stat import S_ISREG
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
    GridTopology, ParseError, RangeDeclined, line_end, load_ensemble, load_summary,
    save_ensemble, save_summary, stream_ensemble, stream_range, vertex_csv, write_blocks,
)
from .render import GlyphStyle, render_map, render_map_pieces  # noqa: F401
from .stats import _SEED_MAX, ConfidenceLevel, _check_seed, coverage_experiment, summarize
from .synth import (
    estimate_moments,
    ground_truth_probabilities,
    load_moment_model,
    sample_ensemble,
    save_moment_model,
)


def _fmt9(value: float) -> str:
    return format(float(value), ".9g")


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
    existing `path` keeps its bytes.  An error making or renaming the temp
    file names `path` alone, not the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".cpci-tmp-{os.urandom(8).hex()}")
    try:
        # Mode 0666 less the umask, as a plain open() would give; os.replace keeps it.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
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


def _load_summary_path(path: str):
    """`grid.load_summary` of the file at `path`; its errors are prefixed with `path`."""
    with open(path, "rb") as handle:
        try:
            return load_summary(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


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


# An EGF of at least this many bytes is tallied by two processes.  Below
# it the helper's start-up, a fresh interpreter that imports numpy, costs
# more than the half of the parse it takes (break-even at about 33 MB on a
# 2-vCPU VM: 13 MB took 0.47 s in one process and 0.70 s in two).
_SPLIT_BYTES = 1 << 25
# The helper process: `python -c _HELPER <package parent> <_tally_back arguments>`.
_HELPER = ("import sys; sys.path.insert(0, sys.argv[1]); "
           "from cpci.cli import _tally_back; sys.exit(_tally_back(*sys.argv[2:]))")


def _identity(stat: os.stat_result) -> list[str]:
    return [str(stat.st_dev), str(stat.st_ino), str(stat.st_size), str(stat.st_mtime_ns)]


def _tally_back(path: str, *fields: str) -> int:
    """The helper's half: tally members [K, m) of the EGF at `path` into stdout.

    `fields` are the main process's `_identity` of the file, then the
    byte where member K starts, nx, ny and m - K.  Writes the (3, n)
    int64 counts and returns 0, or writes nothing and returns 1 if the
    file it opens is not that file or the range does not parse as
    exactly m - K members.
    """
    start, nx, ny, count = map(int, fields[4:])
    topology = GridTopology(nx, ny)
    with open(path, "rb") as handle:
        if _identity(os.fstat(handle.fileno())) != list(fields[:4]):
            return 1
        handle.seek(start)
        try:
            counts = _tally(stream_range(handle, (nx, ny, count), _member_chunk), topology)
        except ParseError:
            return 1
    sys.stdout.buffer.write(counts)
    sys.stdout.buffer.flush()
    return 0


def _split_tally(handle: IO[bytes], path: str, topology: GridTopology, m: int,
                 ) -> np.ndarray | None:
    """The (3, n) counts of the EGF open in `handle`, tallied by two processes.

    `handle` is at the body: the serial stream has parsed the head as
    (topology, m).  Returns None, with `handle` back at the body, unless
    the EGF is a regular file of at least `_SPLIT_BYTES` whose head is
    the one `write_blocks` writes for (topology, m), it spans at least
    two `_member_chunk` batches, and at least two CPUs are usable.  Then
    a helper process (`_tally_back`) tallies members [K, m), K being
    m // 2 rounded up to a whole batch, while this one tallies [0, K);
    each parses its byte range with the serial stream's parse
    (`stream_range`).  A range that does not parse as exactly its
    members, or a helper that cannot start, fails or finds another file,
    returns None too, so that the serial stream, which defines the
    format, reads the body and reports its errors.  The helper is killed
    and reaped on every exit.
    """
    stat = os.fstat(handle.fileno())
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if stat.st_size < _SPLIT_BYTES or not S_ISREG(stat.st_mode) or cpus < 2:
        return None
    body, head = handle.tell(), io.BytesIO()
    write_blocks(head, "EGF1", topology, m, ())
    nx, ny, batch = topology.nx, topology.ny, _member_chunk(topology.n)
    try:
        # Only the canonical head puts member 0's first row at `body`: a
        # lone CR can leave rows on the header's line, which the serial
        # stream has read and this split would miss.
        handle.seek(0)
        if min(nx, ny) < 2 or m < 2 * batch or handle.read(body) != head.getvalue():
            raise RangeDeclined
        front = -(-(m // 2) // batch) * batch
        split = line_end(handle, front * ny)
        handle.seek(body)
        import subprocess  # here, so that no other command pays for the import
        package_parent = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        try:
            helper = subprocess.Popen(
                [sys.executable, "-c", _HELPER, package_parent, path, *_identity(stat),
                 str(split), str(nx), str(ny), str(m - front)],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        except OSError:
            raise RangeDeclined from None
        back = np.empty((3, topology.n), dtype=np.int64)
        with helper:
            try:
                counts = _tally(stream_range(handle, (nx, ny, front), _member_chunk,
                                             split - body), topology)
                got = helper.stdout.readinto(back)
                helper.wait()
            except BaseException:
                helper.kill()
                helper.wait()
                raise
        if helper.returncode != 0 or got != back.nbytes:
            raise RangeDeclined
    except (RangeDeclined, ParseError):
        handle.seek(body)
        return None
    return counts + back


def cmd_estimate(args: argparse.Namespace) -> int:
    # The level is checked before the input is read, and with --counts too.
    level = ConfidenceLevel(args.gamma)
    # Members are parsed and tallied one chunk at a time, so memory does
    # not grow with m; a large EGF is split between two processes.
    with open(args.input, "rb") as handle:
        topology, m, blocks = stream_ensemble(handle, _member_chunk)
        counts = _split_tally(handle, args.input, topology, m)
        if counts is None:
            counts = _tally(blocks, topology)
    if args.counts:
        _write_text(args.output, vertex_csv(
            "i,j,c_min,c_max,c_saddle,m\n", counts.T, topology.nx, f",%d,%d,%d,{m}\n"))
        return 0
    table = summarize(counts, m, level)
    with _atomic_write(args.output) as sink:
        save_summary(table, topology, m, level.gamma, sink)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    topology, table, m, gamma = _load_summary_path(args.input)
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
    topology, table, _, _ = _load_summary_path(args.input)
    if args.ground_truth:
        # A ground-truth map shows point estimates: each p_hat is its own
        # interval.  A read-only view repeats the p_hat rows, not a copy.
        table = np.broadcast_to(table[:, :1], table.shape)
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
    with _atomic_write(args.output) as sink:
        save_summary(table, model.topology, args.draws, level.gamma, sink)
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
