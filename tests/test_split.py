"""The two-process `estimate` against the serial stream it falls back to.

`cli._split_tally` tallies members [K, m) of a large EGF in a helper
process and [0, K) in its own, each half parsed by the serial stream's
parse, which must find exactly its members' rows.  Its outputs must be
the serial stream's bytes.  Every file on which a half fails, every
error and every helper failure must read exactly as the serial stream
reads it, and no helper may outlive the command.  `estimate` opens one
serial stream on every path, and tallies its blocks only where the split
is declined.  Here the size constant is 0, so small files take the
split path, and the batch is 4 members in this process (the helper
keeps the real rule; counts do not depend on it), so K is m // 2
rounded up to a multiple of 4.
"""

import io
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from cpci import cli
from cpci.critical import _member_chunk
from cpci.grid import GridTopology, ParseError, stream_range

from conftest import run_cli, write_egf
from test_stream import egf_bytes, members, write_members

BATCH = 4
TOPOLOGY = GridTopology(24, 20)
M = 41  # odd: K = 20 members here, 21 in the helper


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    # Every helper has been reaped: this process has no child, running or exited.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def estimate(path, out, flags=()) -> tuple[int, bytes | None, str]:
    code, _, err = run_cli("estimate", "--input", str(path), "--output", str(out), *flags)
    return code, out.read_bytes() if code == 0 else None, err


class Streams:
    """Counts `estimate`'s calls of `stream_ensemble` and the serial tallies of its blocks."""

    def __init__(self, monkeypatch, serial_allowed: bool):
        self.streams = self.serial = 0
        stream = cli.stream_ensemble

        def serial_blocks(blocks):
            # A generator: this runs when the tally first asks for a block.
            self.serial += 1
            if not serial_allowed:
                raise AssertionError("the serial stream was tallied on the split path")
            yield from blocks

        def counted_stream(*args):
            self.streams += 1
            topology, m, blocks = stream(*args)
            return topology, m, serial_blocks(blocks)

        monkeypatch.setattr(cli, "stream_ensemble", counted_stream)


class Paths(Streams):
    """Puts `estimate` on the split path and counts serial tallies and helper starts."""

    def __init__(self, monkeypatch, serial_allowed: bool):
        super().__init__(monkeypatch, serial_allowed)
        self.helpers = 0
        self.back = None  # the members the last helper was asked to tally
        monkeypatch.setattr(cli, "_SPLIT_BYTES", 0)
        monkeypatch.setattr(cli, "_member_chunk", lambda n: BATCH)
        paths = self

        class CountedPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                paths.helpers += 1
                paths.back = int(args[0][-1])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", CountedPopen)
        # Two usable CPUs, whatever this machine has.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def egf_lines(m: int = M, step: float | None = None, seed: int = 0) -> list[bytes]:
    return egf_bytes(members(TOPOLOGY, m, step, seed), TOPOLOGY).splitlines(keepends=True)


def front(m: int) -> int:
    """K, the members of the front half: m // 2 rounded up to a whole batch."""
    return -(-(m // 2) // BATCH) * BATCH


def body_row(half: str, m: int = M) -> int:
    """Index in `egf_lines` of a row in the middle of the front or back half."""
    rows = (front(m) if half == "front" else m + front(m)) * TOPOLOGY.ny // 2
    return 2 + rows


@pytest.mark.parametrize("flags", [(), ("--counts",)], ids=["summary", "counts"])
@pytest.mark.parametrize("m, step", [
    (M, None), (40, None), (M, 0.25), (9, 1.0), (8, None), (13, None),
], ids=["random-odd", "random-even", "quantised", "quantised-m9", "two-batches", "rounded-up"])
def test_helper_counts_give_the_serial_bytes(tmp_path, monkeypatch, flags, m, step):
    path = tmp_path / "in.egf"
    values = members(TOPOLOGY, m, step)
    if step is not None:
        # Tied: the index tie-break decides many comparisons (7% of row neighbours at 0.25).
        assert (values[:, 1:] == values[:, :-1]).mean() > 0.05
    write_egf(path, TOPOLOGY, values)
    code, serial, err = estimate(path, tmp_path / "serial.csv", flags)
    assert code == 0, err
    paths = Paths(monkeypatch, serial_allowed=False)
    code, split, err = estimate(path, tmp_path / "split.csv", flags)
    assert code == 0, err
    assert (paths.helpers, paths.back) == (1, m - front(m))
    assert (paths.streams, paths.serial) == (1, 0)
    assert split == serial


@pytest.mark.parametrize("flags", [(), ("--counts",)], ids=["summary", "counts"])
def test_under_two_batches_no_helper_starts(tmp_path, monkeypatch, flags):
    path = tmp_path / "in.egf"
    path.write_bytes(b"".join(egf_lines(m=2 * BATCH - 1)))
    code, serial, _ = estimate(path, tmp_path / "serial.csv", flags)
    paths = Paths(monkeypatch, serial_allowed=True)
    assert estimate(path, tmp_path / "split.csv", flags) == (code, serial, "")
    assert (paths.helpers, paths.serial) == (0, 1)
    assert paths.streams == 1


def test_each_half_is_parsed_as_the_serial_stream_parses_it():
    lines, k = egf_lines(), front(M)
    source = io.BytesIO(b"".join(lines[2:]))
    limit = len(b"".join(lines[2:2 + k * TOPOLOGY.ny]))
    shape = (TOPOLOGY.nx, TOPOLOGY.ny)
    front_half = list(stream_range(source, (*shape, k), lambda n: BATCH, limit))
    assert [len(a) for a in front_half] == [BATCH] * (k // BATCH)
    back_half = list(stream_range(source, (*shape, M - k), lambda n: BATCH))
    assert np.array_equal(np.concatenate(front_half + back_half), members(TOPOLOGY, M))


@pytest.mark.parametrize("rows, message", [
    (1, "line 81: trailing content after final block"),
    (-1, "line 79: unexpected end of file, expected row 19 of member 3"),
], ids=["row-too-many", "row-too-few"])
def test_a_range_of_other_than_its_members_rows_raises(rows, message):
    """Line numbers count from the start of the range."""
    lines = egf_lines()[2:]
    limit = len(b"".join(lines[:4 * TOPOLOGY.ny + rows]))
    blocks = stream_range(io.BytesIO(b"".join(lines)), (TOPOLOGY.nx, TOPOLOGY.ny, 4),
                          lambda n: BATCH, limit)
    with pytest.raises(ParseError, match=message):
        list(blocks)


def insert(at: int, line: bytes):
    return lambda lines: lines[:at] + [line] + lines[at:]


def replace(at: int, edit):
    return lambda lines: lines[:at] + [edit(lines[at])] + lines[at + 1:]


def truncate(at: int):
    return lambda lines: lines[:at]


def join_with_cr(at: int):
    """Join line `at` and the next into one raw line, at a lone CR."""
    return lambda lines: lines[:at] + [lines[at][:-1] + b"\r" + lines[at + 1]] + lines[at + 2:]


def rest_of_row(line: bytes) -> bytes:
    return line.split(b" ", 1)[1]


ZERO_ROW = b"0 " * (TOPOLOGY.nx - 1) + b"0\n"


def edits(half: str) -> dict:
    """name -> (edit of the EGF's lines, helpers started, the helper's counts used).

    A comment or blank line in the front half moves member K past the
    split point, so the front parse ends a row short; in the back half
    it moves nothing.
    """
    at = body_row(half)
    back = half == "back"
    return {f"{kind}-{half}": case for kind, case in {
        "comment": (insert(at, b"# a note\n"), 1, back),
        "blank": (insert(at, b"\n"), 1, back),
        "crlf": (replace(at, lambda line: line[:-1] + b"\r\n"), 1, True),
        "space-led": (replace(at, lambda line: b"  " + line), 1, True),
        "bad-row": (replace(at, rest_of_row), 1, False),
        "nan": (replace(at, lambda line: b"nan " + rest_of_row(line)), 1, False),
        "extra-row": (insert(at, ZERO_ROW), 1, False),
        # Cut in the front half, the file has no member K to split at.
        "truncated": (truncate(at), int(half == "back"), False),
    }.items()}


EDITS = {
    **edits("front"),
    **edits("back"),
    # The lone CR takes one LF from the front half; the comment gives it back.
    "lone-cr-and-comment-front": (
        lambda lines: insert(body_row("front"), b"# a note\n")(
            join_with_cr(body_row("front"))(lines)), 1, True),
    # Without the comment, the split lands a row into member K.
    "lone-cr-front": (join_with_cr(body_row("front")), 1, False),
    "trailing-comment": (lambda lines: lines + [b"# end\n"], 1, True),
    "trailing-blank-lines": (lambda lines: lines + [b"\n", b"  \n", b"\n"], 1, True),
    # A lone CR puts member 0's first row on the header's line: the head is
    # not the one `write_blocks` writes, so no helper starts.
    "row-on-header-line": (join_with_cr(1), 0, False),
    # With one row more, each half would hold exactly its members' rows
    # and the split would count a file that the serial stream rejects.
    "row-on-header-line-and-extra-row": (
        lambda lines: join_with_cr(1)(lines) + [ZERO_ROW], 0, False),
    "comment-before-magic": (insert(0, b"# made by hand\n"), 0, False),
    "zero-padded-header": (replace(1, lambda line: b"0" + line), 0, False),
}


@pytest.mark.parametrize("name", EDITS)
def test_edited_files_read_as_the_serial_stream_reads_them(tmp_path, monkeypatch, name):
    edit, helpers, split_used = EDITS[name]
    path = tmp_path / "in.egf"
    path.write_bytes(b"".join(edit(egf_lines())))
    expected = estimate(path, tmp_path / "serial.csv")
    paths = Paths(monkeypatch, serial_allowed=not split_used)
    got = estimate(path, tmp_path / "split.csv")
    assert got == expected
    assert paths.helpers == helpers
    assert paths.serial == int(not split_used)
    assert paths.streams == 1
    code, _, err = got
    if "extra-row" in name or name.startswith(("bad-row", "nan", "truncated")):
        assert code == 2 and err.startswith("cpci: error: line "), err
    else:
        assert code == 0, err


def test_error_lines_are_those_of_the_serial_stream(tmp_path, monkeypatch):
    path = tmp_path / "in.egf"
    lines = egf_lines()
    at = body_row("back")
    path.write_bytes(b"".join(replace(at, lambda line: b"nan " + rest_of_row(line))(lines)))
    paths = Paths(monkeypatch, serial_allowed=True)
    code, _, err = estimate(path, tmp_path / "out.csv")
    assert (code, err) == (2, f"cpci: error: line {at + 1}: non-finite value 'nan'\n")
    assert (paths.helpers, paths.serial, paths.streams) == (1, 1, 1)


def test_helper_that_cannot_start(tmp_path, monkeypatch):
    path = tmp_path / "in.egf"
    path.write_bytes(b"".join(egf_lines()))
    expected = estimate(path, tmp_path / "serial.csv")
    paths = Paths(monkeypatch, serial_allowed=True)
    monkeypatch.setattr(sys, "executable", str(tmp_path / "missing" / "python"))
    assert estimate(path, tmp_path / "split.csv") == expected
    assert (paths.helpers, paths.serial) == (1, 1)
    assert paths.streams == 1


def test_helper_that_finds_another_file_declines(tmp_path, monkeypatch):
    path = tmp_path / "in.egf"
    path.write_bytes(b"".join(egf_lines()))
    expected = estimate(path, tmp_path / "serial.csv")
    paths = Paths(monkeypatch, serial_allowed=True)
    identity = cli._identity
    monkeypatch.setattr(cli, "_identity", lambda stat: [*identity(stat)[:3], "0"])
    assert estimate(path, tmp_path / "split.csv") == expected
    assert (paths.helpers, paths.serial) == (1, 1)
    assert paths.streams == 1


@pytest.mark.parametrize("error, code", [(KeyboardInterrupt, None), (OSError, 2)])
def test_helper_is_killed_when_this_half_fails(tmp_path, monkeypatch, error, code):
    path = tmp_path / "in.egf"
    path.write_bytes(b"".join(egf_lines()))
    paths = Paths(monkeypatch, serial_allowed=False)
    # A helper that would outlive the test unless it is killed.
    monkeypatch.setattr(cli, "_HELPER", "import time; time.sleep(60)")

    def failing_tally(blocks, topology):
        raise error("stopped in this half")

    monkeypatch.setattr(cli, "_tally", failing_tally)
    start = time.monotonic()
    if code is None:
        with pytest.raises(error):
            estimate(path, tmp_path / "out.csv")
    else:
        assert estimate(path, tmp_path / "out.csv") == (
            code, None, "cpci: error: stopped in this half\n")
    assert time.monotonic() - start < 30
    assert (paths.helpers, paths.streams) == (1, 1)
    assert not (tmp_path / "out.csv").exists()


def test_split_path_memory_does_not_grow_with_m(tmp_path, monkeypatch):
    """The main process's tracemalloc peak of `estimate --counts` on the split path.

    The serial budget (`test_member_chunk`): within 5% across m, and at
    most 4 MiB; 3.5 MiB measured at both m.  The real batch rule is kept.
    """
    topology = GridTopology(128, 128)
    paths = Paths(monkeypatch, serial_allowed=False)
    monkeypatch.setattr(cli, "_member_chunk", _member_chunk)
    peaks = []
    for m in (40, 120):
        path = tmp_path / f"m{m}.egf"
        write_members(path, topology, m, 0.25, seed=m)
        tracemalloc.start()
        try:
            code, _, err = run_cli("estimate", "--counts", "--input", str(path),
                                   "--output", str(tmp_path / "counts.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0, err
    assert (paths.helpers, paths.serial, paths.streams) == (2, 0, 2)
    assert max(peaks) <= 1.05 * min(peaks), peaks
    assert max(peaks) <= 4 * 2 ** 20, [peak / 2 ** 20 for peak in peaks]


def test_pipe_input_takes_the_serial_stream(tmp_path, monkeypatch):
    path = tmp_path / "in.egf"
    path.write_bytes(b"".join(egf_lines()))
    expected = estimate(path, tmp_path / "serial.csv")
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    paths = Paths(monkeypatch, serial_allowed=True)
    # A thread writes the FIFO, so that any child process would be a helper.
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    assert estimate(fifo, tmp_path / "split.csv") == expected
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert (paths.helpers, paths.serial) == (0, 1)
    assert paths.streams == 1


def test_one_usable_cpu_takes_the_serial_stream(tmp_path, monkeypatch):
    path = tmp_path / "in.egf"
    path.write_bytes(b"".join(egf_lines()))
    expected = estimate(path, tmp_path / "serial.csv")
    paths = Paths(monkeypatch, serial_allowed=True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert estimate(path, tmp_path / "split.csv") == expected
    assert (paths.helpers, paths.serial) == (0, 1)
    assert paths.streams == 1


@pytest.mark.slow
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the split needs 2 usable CPUs")
def test_just_above_the_real_size_constant(tmp_path, monkeypatch):
    """No patched constant: a file just over `_SPLIT_BYTES` at 128x128 takes the split path."""
    topology = GridTopology(128, 128)
    member_bytes = len(egf_bytes(members(topology, 1), topology))
    m = int(cli._SPLIT_BYTES / member_bytes * 1.01) + 1
    path = tmp_path / "large.egf"
    write_egf(path, topology, members(topology, m, seed=5))
    assert cli._SPLIT_BYTES <= path.stat().st_size < 1.05 * cli._SPLIT_BYTES
    with monkeypatch.context() as serial_only:
        serial_only.setattr(cli, "_split_tally", lambda handle, path, topology, m: None)
        expected = estimate(path, tmp_path / "serial.csv")
    assert expected[0] == 0
    streams = Streams(monkeypatch, serial_allowed=False)
    assert estimate(path, tmp_path / "split.csv") == expected
    assert (streams.streams, streams.serial) == (1, 0)
