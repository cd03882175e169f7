"""Streamed member blocks against the whole-array parse they replace in the CLI.

`estimate` and `classify` read an EGF through `grid.stream_ensemble` and
tally it one block of members at a time.  `count_types(load_ensemble(...))`
stays as the oracle: the streamed tally must equal it bit for bit, every
parse error must read the same through the stream, and the stream's
memory must not grow with m.
"""

import io
import tracemalloc

import numpy as np
import pytest

from cpci import grid
from cpci.critical import _member_chunk, _tally, count_types
from cpci.grid import Ensemble, GridTopology, load_ensemble, save_ensemble, stream_blocks
from cpci.synth import _mmf_block_name

from test_grid import PARSER_CONTRACT, contract_result


def egf_bytes(values: np.ndarray, topology: GridTopology) -> bytes:
    sink = io.BytesIO()
    save_ensemble(Ensemble(topology, values), sink)
    return sink.getvalue()


def members(topology: GridTopology, m: int, step: float | None = None, seed: int = 0):
    values = np.random.default_rng(seed).normal(size=(m, topology.n))
    if step is not None:
        values = np.rint(values / step) * step
    return values


def oracle_counts(data: bytes) -> np.ndarray:
    records = count_types(load_ensemble(io.BytesIO(data)))
    return np.stack((records.c_min, records.c_max, records.c_saddle))


def streamed_counts(data: bytes, batch=_member_chunk) -> tuple[np.ndarray, list[int]]:
    """The streamed tally of an EGF, and the member count of each block it read."""
    sizes = []

    def recorded(blocks):
        for block in blocks:
            sizes.append(len(block))
            yield block

    topology, m, blocks = grid.stream_ensemble(io.BytesIO(data), batch)
    counts = _tally(recorded(blocks), topology)
    assert sum(sizes) == m
    return counts, sizes


def assert_same_bits(counts: np.ndarray, expected: np.ndarray) -> None:
    assert counts.dtype == expected.dtype and counts.shape == expected.shape
    assert counts.tobytes() == expected.tobytes()


class TestTallyEquivalence:
    @pytest.mark.parametrize("step", [None, 0.5], ids=["plain", "quantised"])
    @pytest.mark.parametrize("k", [1, 5, 37, 100])
    def test_blocks_of_k_members(self, step, k):
        topology = GridTopology(9, 7)
        data = egf_bytes(members(topology, 37, step), topology)
        counts, sizes = streamed_counts(data, lambda n: k)
        assert sizes == [min(k, 37 - start) for start in range(0, 37, k)]
        assert_same_bits(counts, oracle_counts(data))

    def test_quantised_fields_tie_heavily(self):
        topology = GridTopology(12, 10)
        values = members(topology, 200, step=1.0)
        # Many neighbour pairs tie, so the index tie-break decides them.
        assert (values[:, 1:] == values[:, :-1]).mean() > 0.25
        data = egf_bytes(values, topology)
        assert_same_bits(streamed_counts(data, lambda n: 16)[0], oracle_counts(data))

    def test_single_member(self):
        topology = GridTopology(6, 5)
        data = egf_bytes(members(topology, 1), topology)
        counts, sizes = streamed_counts(data)
        assert sizes == [1]
        assert_same_bits(counts, oracle_counts(data))

    def test_default_chunk_with_a_short_last_block(self):
        topology = GridTopology(100, 100)
        k = _member_chunk(topology.n)
        data = egf_bytes(members(topology, k + 3, step=0.25), topology)
        counts, sizes = streamed_counts(data)
        assert sizes == [k, 3]
        assert_same_bits(counts, oracle_counts(data))

    def test_crlf_comments_and_blanks_between_members(self):
        topology = GridTopology(5, 4)
        values = members(topology, 9, step=0.5, seed=3)
        text = ["# head", "EGF1", "", "5 4 9"]
        for k, member in enumerate(values):
            text += [f"# member {k}", ""]
            text += [" ".join("%.17g" % v for v in row) for row in member.reshape(4, 5)]
        data = ("\r\n".join(text) + "\r\n").encode()
        assert load_ensemble(io.BytesIO(data)).values.tobytes() == values.tobytes()
        for k in (1, 2, 4, 9):
            assert_same_bits(streamed_counts(data, lambda n: k)[0], oracle_counts(data))


class TestParseErrorsThroughTheStream:
    """Every PARSER_CONTRACT case reads the same through `stream_blocks`."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("case", PARSER_CONTRACT, ids=str)
    def test_same_values_or_error_as_read_blocks(self, case, k):
        kind, data, _ = PARSER_CONTRACT[case]
        if kind == "egf":
            args = ("EGF1", "nx ny m", grid._member_name)
        else:
            args = ("MMF1", "nx ny r", _mmf_block_name)
        extra = int(kind == "mmf")  # the mean block
        try:
            _, count, blocks = stream_blocks(
                io.BytesIO(data), *args, extra=extra, batch=lambda n: k)
            arrays = list(blocks)
        except grid.ParseError as exc:
            streamed = str(exc), exc.line
        else:
            assert all(len(a) == k for a in arrays[:-1]) and 0 < len(arrays[-1]) <= k
            assert sum(map(len, arrays)) == count + extra
            # Both kinds list their blocks in file order.
            streamed = np.concatenate(arrays).tolist()
        assert streamed == contract_result(kind, data)

    def test_header_errors_are_raised_before_iteration(self):
        with pytest.raises(grid.ParseError, match="line 2: header values must be positive"):
            grid.stream_ensemble(io.BytesIO(b"EGF1\n0 2 1\n1 2\n"), _member_chunk)


class TestChunkPathAtBlockBoundaries:
    @pytest.mark.parametrize("step", [None, 0.25], ids=["plain", "quantised"])
    def test_chunks_that_straddle_blocks_skip_the_line_parser(self, step, monkeypatch):
        topology = GridTopology(32, 24)
        data = egf_bytes(members(topology, 90, step), topology)
        k = 7
        calls = []
        parse_chunk = grid._parse_chunk

        def counted(chunk, nx, room):
            calls.append(parse_chunk(chunk, nx, room))
            return calls[-1]

        monkeypatch.setattr(grid, "_parse_chunk", counted)
        counts, sizes = streamed_counts(data, lambda n: k)
        assert sum(rows is None for rows in calls) == 0
        # Some chunk held rows of two blocks, and parsed in one step all the same.
        ends = np.cumsum([len(rows) for rows in calls])
        boundaries = np.arange(1, len(sizes)) * k * topology.ny
        assert np.isin(boundaries, ends).sum() < len(boundaries)
        assert_same_bits(counts, oracle_counts(data))


def stream_peak(path, batch) -> tuple[np.ndarray, int]:
    """The streamed tally of an EGF file and the peak bytes allocated while it ran."""
    tracemalloc.start()
    try:
        with open(path, "rb") as handle:
            topology, _, blocks = grid.stream_ensemble(handle, batch)
            counts = _tally(blocks, topology)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return counts, peak


def write_members(path, topology: GridTopology, m: int, step: float, seed: int) -> None:
    with open(path, "wb") as handle:
        save_ensemble(Ensemble(topology, members(topology, m, step, seed)), handle)


class TestStreamMemory:
    """The streamed parse plus tally holds about two blocks, whatever m is."""

    def test_peak_does_not_grow_with_m(self, tmp_path):
        # Blocks of 50 members, so both sizes span several blocks and the
        # bound below counts blocks of a known size; the default chunk at
        # 64x64 is 32 members.
        topology, k = GridTopology(64, 64), 50
        block_bytes = k * topology.n * 8
        peaks = []
        for m in (200, 800):
            path = tmp_path / f"m{m}.egf"
            write_members(path, topology, m, 0.25, seed=m)
            counts, peak = stream_peak(path, lambda n: k)
            assert counts.sum(axis=0).max() <= m
            peaks.append(peak)
        assert max(peaks) <= 1.1 * min(peaks), peaks
        # 2.55 blocks measured: one block and the kernel's workspace, or two
        # blocks while the next parses.  Allocating the next block before the
        # tally has the last one read 3.55.
        assert max(peaks) < 3 * block_bytes, (peaks, block_bytes)

    @pytest.mark.slow
    def test_deep_file_peak_is_a_fraction_of_its_values(self, tmp_path):
        topology = GridTopology(128, 128)
        path = tmp_path / "deep.egf"
        write_members(path, topology, 1000, 0.25, seed=2)
        _, peak = stream_peak(path, _member_chunk)
        values_bytes = 1000 * topology.n * 8
        assert peak < 0.25 * values_bytes, peak / values_bytes
        # 3.01 MiB measured (18.68 MiB under the earlier 10^6 member-vertex
        # chunks); bound 4 MiB, whatever the chunk rule.
        assert peak <= 4 * 2 ** 20, peak / 2 ** 20
