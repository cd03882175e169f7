"""End-to-end tests of the `cpci` command line against the library routes."""

import importlib.metadata
import io
import os
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cpci import cli, grid
from cpci.critical import TYPE_CODES, CriticalType, classify_field, count_types
from cpci.grid import GridTopology, load_ensemble
from cpci.stats import ConfidenceLevel, coverage_experiment, summarize
from cpci.synth import (
    MomentModel, estimate_moments, ground_truth_probabilities, load_moment_model,
    sample_ensemble, save_moment_model,
)

from conftest import grid_field, load_summary_file, run_cli, save_summary_file, write_egf

DATA = Path(__file__).parent / "data"


def bump(topology):
    return grid_field(topology, lambda i, j: -((i - 1) ** 2 + (j - 1) ** 2))


def random_members(topology, m, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, topology.n))


class TestClassify:
    def test_bump_center_is_the_only_maximum(self, tmp_path, topo33):
        egf = tmp_path / "in.egf"
        out = tmp_path / "out.csv"
        write_egf(egf, topo33, bump(topo33))
        code, _, err = run_cli("classify", "--input", str(egf), "--output", str(out))
        assert code == 0 and err == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "i,j,type"
        max_rows = [l for l in lines[1:] if l.endswith(",max")]
        assert max_rows == ["1,1,max"]

    def test_ramp_has_exactly_corner_extrema(self, tmp_path, topo33):
        egf = tmp_path / "in.egf"
        out = tmp_path / "out.csv"
        write_egf(egf, topo33, grid_field(topo33, lambda i, j: float(i + j)))
        code, _, _ = run_cli("classify", "--input", str(egf), "--output", str(out))
        assert code == 0
        assert out.read_text().splitlines()[1:] == ["0,0,min", "2,2,max"]

    def test_rows_match_classify_field(self, tmp_path):
        topology = GridTopology(5, 4)
        members = random_members(topology, 3, seed=7)
        egf = tmp_path / "in.egf"
        out = tmp_path / "out.csv"
        write_egf(egf, topology, members)
        code, _, _ = run_cli(
            "classify", "--input", str(egf), "--output", str(out), "--member", "2")
        assert code == 0
        got = out.read_text().splitlines()[1:]
        types = classify_field(members[2], topology)
        expected = [
            f"{i},{j},{TYPE_CODES[types[topology.linear(i, j)]]}"
            for j in range(topology.ny)
            for i in range(topology.nx)
            if types[topology.linear(i, j)] != CriticalType.REGULAR
        ]
        assert got == expected

    def test_member_out_of_range(self, tmp_path, topo33):
        egf = tmp_path / "in.egf"
        write_egf(egf, topo33, random_members(topo33, 2, seed=0))
        code, _, err = run_cli(
            "classify", "--input", str(egf), "--output", str(tmp_path / "o.csv"),
            "--member", "5")
        assert code == 2
        assert "--member must be in [0, 1]" in err

    @pytest.mark.parametrize("member", ["0", "5"], ids=["parsed-before-the-error", "out-of-range"])
    def test_parse_error_in_a_later_member_wins(self, tmp_path, topo33, member):
        egf = tmp_path / "in.egf"
        write_egf(egf, topo33, random_members(topo33, 2, seed=0))
        lines = egf.read_bytes().splitlines(keepends=True)
        lines[-1] = b"1 2 oops\n"
        egf.write_bytes(b"".join(lines))
        out = tmp_path / "o.csv"
        code, _, err = run_cli(
            "classify", "--input", str(egf), "--output", str(out), "--member", member)
        assert code == 2 and "line 8: bad number 'oops'" in err, err
        assert not out.exists()

    def test_missing_input_file(self, tmp_path):
        code, _, err = run_cli(
            "classify", "--input", str(tmp_path / "absent.egf"),
            "--output", str(tmp_path / "o.csv"))
        assert code == 2
        assert err.startswith("cpci: error:")


class TestEstimate:
    def test_single_member_certainty(self, tmp_path, topo33):
        egf = tmp_path / "in.egf"
        out = tmp_path / "out.csv"
        write_egf(egf, topo33, bump(topo33))
        code, _, _ = run_cli("estimate", "--input", str(egf), "--output", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# m=1 gamma=0.95"
        assert lines[1].startswith("i,j,min_hat")
        assert len(lines) == 2 + topo33.n
        center = next(l for l in lines[2:] if l.startswith("1,1,"))
        cells = center.split(",")
        # max_hat and max_hi pin at 1 when the count equals m
        assert cells[5] == "1" and cells[7] == "1"
        assert float(cells[6]) < 1.0

    def test_counts_mode_matches_library(self, tmp_path):
        topology = GridTopology(4, 3)
        members = random_members(topology, 6, seed=3)
        egf = tmp_path / "in.egf"
        out = tmp_path / "counts.csv"
        write_egf(egf, topology, members)
        code, _, _ = run_cli(
            "estimate", "--input", str(egf), "--output", str(out), "--counts")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "i,j,c_min,c_max,c_saddle,m"
        with open(egf, "rb") as handle:
            counts = count_types(load_ensemble(handle))
        for line in lines[1:]:
            i, j, c_min, c_max, c_sad, m = (int(t) for t in line.split(","))
            c = counts[topology.linear(i, j)]
            assert (c.c_min, c.c_max, c.c_saddle, len(members)) == (c_min, c_max, c_sad, m)
        assert len(lines) == 1 + topology.n

    def test_gamma_is_recorded(self, tmp_path, topo33):
        egf = tmp_path / "in.egf"
        out = tmp_path / "out.csv"
        write_egf(egf, topo33, random_members(topo33, 4, seed=1))
        code, _, _ = run_cli(
            "estimate", "--input", str(egf), "--output", str(out), "--gamma", "0.9")
        assert code == 0
        assert out.read_text().splitlines()[0] == "# m=4 gamma=0.9"

    def test_gamma_near_one_reads_back(self, tmp_path, topo33):
        # At 9 digits this level rounds to 1, which is not a confidence level;
        # the summary metadata, `query` and the coverage CSV all keep it.
        egf = tmp_path / "in.egf"
        out = tmp_path / "out.csv"
        write_egf(egf, topo33, random_members(topo33, 4, seed=1))
        code, _, _ = run_cli(
            "estimate", "--input", str(egf), "--output", str(out),
            "--gamma", "0.9999999999")
        assert code == 0
        assert out.read_text().splitlines()[0] == "# m=4 gamma=0.9999999999"
        assert load_summary_file(out)[3] == 0.9999999999
        code, stdout, err = run_cli("query", "--input", str(out), "1", "1")
        assert (code, err) == (0, "")
        assert stdout.splitlines()[0] == "vertex (1, 1)  m=4  gamma=0.9999999999"
        cov = tmp_path / "cov.csv"
        code, _, err = run_cli(
            "coverage", "--p", "0.3", "--m", "20", "--gamma", "0.9999999999",
            "--reps", "1000", "--output", str(cov))
        assert (code, err) == (0, "")
        assert cov.read_text().splitlines()[1] == "0.3,20,0.9999999999,1000,1,0.885726388"

    @pytest.mark.parametrize("nx, ny", [(1, 5), (5, 1)])
    def test_single_row_or_column_is_input_error(self, tmp_path, nx, ny):
        egf = tmp_path / "in.egf"
        write_egf(egf, GridTopology(nx, ny), np.arange(nx * ny, dtype=float))
        code, _, err = run_cli(
            "estimate", "--input", str(egf), "--output", str(tmp_path / "o.csv"))
        assert code == 2 and "2x2" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("flags", [(), ("--counts",)], ids=["summary", "counts"])
    @pytest.mark.parametrize("head", [b"EGF1\n3 3 4\n", b"EGF1\n3 3 four\n"],
                             ids=["well-formed", "malformed"])
    def test_bad_gamma(self, tmp_path, topo33, flags, head):
        # The level is checked before the input is read, with --counts too.
        egf, out = tmp_path / "in.egf", tmp_path / "o.csv"
        write_egf(egf, topo33, random_members(topo33, 4, seed=1))
        egf.write_bytes(head + egf.read_bytes().split(b"\n", 2)[2])
        code, _, err = run_cli("estimate", "--input", str(egf), "--output", str(out),
                               "--gamma", "1.5", *flags)
        assert (code, err) == (2, "cpci: error: gamma must lie in (0, 1), got 1.5\n")
        assert not out.exists()


class TestQuery:
    @pytest.fixture
    def summary_csv(self, tmp_path):
        topology = GridTopology(3, 3)
        egf = tmp_path / "in.egf"
        out = tmp_path / "summary.csv"
        write_egf(egf, topology, random_members(topology, 6, seed=12))
        code, _, _ = run_cli(
            "estimate", "--input", str(egf), "--output", str(out), "--gamma", "0.9")
        assert code == 0
        return out

    def test_reproduces_csv_row(self, summary_csv):
        rows = {
            tuple(l.split(",")[:2]): l.split(",")
            for l in summary_csv.read_text().splitlines()[2:]
        }
        code, stdout, _ = run_cli("query", "--input", str(summary_csv), "2", "1")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "vertex (2, 1)  m=6  gamma=0.9"
        cells = rows[("2", "1")]
        for line, base in zip(lines[1:], (2, 5, 8)):
            code_label, hat, lo, hi = line.split()
            assert code_label in ("min", "max", "sad")
            assert hat == f"p_hat={cells[base]}"
            assert lo == f"p_lower={cells[base + 1]}"
            assert hi == f"p_upper={cells[base + 2]}"

    def test_out_of_range_names_valid_box(self, summary_csv):
        code, _, err = run_cli("query", "--input", str(summary_csv), "3", "0")
        assert code == 2
        assert "i must be in [0, 2] and j in [0, 2], got (3, 0)" in err

    def test_negative_index_rejected(self, summary_csv):
        code, _, err = run_cli("query", "--input", str(summary_csv), "0", "-1")
        assert code == 2 and "out of range" in err

    def test_metadata_required(self, tmp_path, summary_csv):
        stripped = tmp_path / "bare.csv"
        lines = summary_csv.read_text().splitlines()
        stripped.write_text("\n".join(lines[1:]) + "\n")
        code, _, err = run_cli("query", "--input", str(stripped), "0", "0")
        assert code == 2 and "metadata" in err

    @staticmethod
    def _set_cell(lines, k, value):
        cells = lines[6].split(",")   # vertex (1, 1) of the 3x3 summary
        cells[k] = value
        lines[6] = ",".join(cells)

    @pytest.mark.parametrize("mutate, fragments", [
        pytest.param(lambda ls: ls.__setitem__(1, ls[1].replace("sad_hi", "sad_top")),
                     ["unexpected header", "sad_top"], id="header"),
        pytest.param(lambda ls: ls.__setitem__(6, ls[6].rsplit(",", 1)[0]),
                     ["expected 11 fields per row, got 10", "'1,1,"], id="ten-fields"),
        pytest.param(lambda ls: TestQuery._set_cell(ls, 4, "abc"),
                     ["malformed row", "'1,1,", "abc"], id="non-number"),
        pytest.param(lambda ls: TestQuery._set_cell(ls, 0, "-1"),
                     ["negative vertex index", "'-1,1,"], id="negative-index"),
        pytest.param(lambda ls: ls.append(ls[6]),
                     ["duplicate vertex (1, 1)"], id="duplicate"),
        pytest.param(lambda ls: ls.pop(6),
                     ["missing vertex (1, 1)", "8 rows do not cover the 3x3 grid"],
                     id="missing"),
        pytest.param(lambda ls: TestQuery._set_cell(ls, 2, "1.5"),
                     ["vertex (1, 1)", "=1.5 is not a probability"], id="above-one"),
        pytest.param(lambda ls: TestQuery._set_cell(ls, 3, "nan"),
                     ["vertex (1, 1)", "=nan is not a probability"], id="nan"),
        pytest.param(lambda ls: (TestQuery._set_cell(ls, 3, "0.9"),
                                 TestQuery._set_cell(ls, 4, "0.1")),
                     ["vertex (1, 1)", "=0.9 exceeds", "=0.1"], id="lo-above-hi"),
    ])
    def test_malformed_summary_rejected(self, tmp_path, summary_csv, mutate, fragments):
        lines = summary_csv.read_text().splitlines()
        mutate(lines)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, stdout, err = run_cli("query", "--input", str(bad), "0", "0")
        assert code == 2 and stdout == ""
        assert err.startswith("cpci: error: ")
        for fragment in fragments:
            assert fragment in err

    def test_p_hat_outside_interval_reads_back(self, tmp_path, topo33):
        # At gamma = 0.1 the Jeffreys interval of c = 1 (and 49) out of 50
        # excludes c/m, so the readers must not demand p_lo <= p_hat <= p_hi.
        ramp = grid_field(topo33, lambda i, j: float(i + j))
        egf = tmp_path / "in.egf"
        summary = tmp_path / "summary.csv"
        write_egf(egf, topo33, np.stack([ramp] * 49 + [bump(topo33)]))
        code, _, _ = run_cli("estimate", "--input", str(egf), "--output", str(summary),
                             "--gamma", "0.1")
        assert code == 0
        rows = np.array([l.split(",") for l in summary.read_text().splitlines()[2:]],
                        dtype=float)
        hat, lo, hi = rows[:, 2::3], rows[:, 3::3], rows[:, 4::3]
        assert ((hat < lo) | (hat > hi)).any()
        code, stdout, _ = run_cli("query", "--input", str(summary), "1", "1")
        assert code == 0 and "max  p_hat=0.02  p_lower=0.0209781351" in stdout
        code, _, _ = run_cli("render", "--input", str(summary),
                             "--output", str(tmp_path / "map.svg"))
        assert code == 0 and (tmp_path / "map.svg").exists()


SUMMARY_ROWS = [
    "0,0,0.25,0.125,0.5,0,0,0.25,0.75,0.5,1",
    "1,0,0,0,0.25,1,0.75,1,0,0,0",
    "0,1,0.5,0.25,0.75,0.5,0.25,0.75,0,0,0.125",
    "1,1,0.1,0.05,0.2,0.3,0.2,0.4,0.6,0.5,0.7",
]
SUMMARY_META = "# m=4 gamma=0.9"
SUMMARY_HEADER = "i,j,min_hat,min_lo,min_hi,max_hat,max_lo,max_hi,sad_hat,sad_lo,sad_hi"


def summary_text(rows=SUMMARY_ROWS, eol="\n", meta=SUMMARY_META):
    return eol.join([meta, SUMMARY_HEADER, *rows]) + eol


def with_cell(row, k, value, rows=SUMMARY_ROWS):
    cells = rows[row].split(",")
    cells[k] = value
    return [*rows[:row], ",".join(cells), *rows[row + 1:]]


def summary_result(values_rows=SUMMARY_ROWS, m=4, gamma=0.9):
    # Rows are in linear order; the table is [type, stat, vertex].
    values = np.array([[float(c) for c in r.split(",")[2:]] for r in values_rows])
    return 2, 2, values.T.reshape(3, 3, len(values_rows)).tobytes(), m, gamma


def missing(first, nx, ny):
    return (f"<path>: missing vertex ({first % nx}, {first // nx}); 4 rows do not "
            f"cover the {nx}x{ny} grid ({nx * ny} vertices)")


# Each case is a summary file and the reader's result: (nx, ny, table
# bytes, m, gamma), or the message of the ValueError it raises.
SUMMARY_CONTRACT = [
    ("plain", summary_text(), summary_result()),
    ("crlf", summary_text(eol="\r\n"), summary_result()),
    ("lone-cr", summary_text(eol="\r"), summary_result()),
    ("u2028", summary_text(eol="\u2028"), summary_result()),
    ("comments-and-blanks-mid-file",
     summary_text(rows=[SUMMARY_ROWS[0], "", "# note m=7", "  ", *SUMMARY_ROWS[1:], "#"]),
     summary_result(m=7)),
    ("spaces-and-tab",
     summary_text(rows=[" 0 ,\t0, 0.25 ,0.125,0.5,0,0,0.25,0.75,0.5,1\t", *SUMMARY_ROWS[1:]]),
     summary_result()),
    ("underscore-index", summary_text(rows=with_cell(1, 0, "1_0")), missing(1, 11, 2)),
    ("plus-index", summary_text(rows=with_cell(3, 1, "+1")), summary_result()),
    ("float-index", summary_text(rows=with_cell(1, 0, "1.0")),
     "<path>: malformed row '1.0,0,0,0,0.25,1,0.75,1,0,0,0'"),
    ("infinity-value", summary_text(rows=with_cell(1, 3, "infinity")),
     "<path>: vertex (1, 0) min_lo=inf is not a probability"),
    ("nan-value", summary_text(rows=with_cell(2, 10, "nan")),
     "<path>: vertex (0, 1) sad_hi=nan is not a probability"),
    ("reverse-order", summary_text(rows=SUMMARY_ROWS[::-1]), summary_result()),
    ("index-2**53+1", summary_text(rows=with_cell(1, 0, str(2**53 + 1))),
     missing(1, 2**53 + 2, 2)),
    ("index-2**62", summary_text(rows=with_cell(1, 0, str(2**62))), missing(1, 2**62 + 1, 2)),
    ("index-2**63-1", summary_text(rows=with_cell(1, 0, str(2**63 - 1))), missing(1, 2**63, 2)),
    ("index-2**63", summary_text(rows=with_cell(1, 0, str(2**63))),
     "<path>: vertex index beyond the 64-bit range"),
    ("index-2**64", summary_text(rows=with_cell(2, 1, str(2**64))),
     "<path>: vertex index beyond the 64-bit range"),
    ("index-below-int64", summary_text(rows=with_cell(0, 1, str(-2**63 - 1))),
     "<path>: vertex index beyond the 64-bit range"),
    ("negative-before-overflow",
     summary_text(rows=with_cell(2, 1, str(2**64), with_cell(0, 0, "-1"))),
     "<path>: vertex index beyond the 64-bit range"),
    ("negative-before-malformed",
     summary_text(rows=with_cell(3, 4, "abc", with_cell(1, 0, "-1"))),
     "<path>: malformed row '1,1,0.1,0.05,abc,0.3,0.2,0.4,0.6,0.5,0.7'"),
    ("malformed-before-overflow",
     summary_text(rows=with_cell(3, 4, "abc", with_cell(0, 0, str(2**64)))),
     "<path>: malformed row '1,1,0.1,0.05,abc,0.3,0.2,0.4,0.6,0.5,0.7'"),
    ("twelve-fields", summary_text(rows=[*SUMMARY_ROWS[:3], SUMMARY_ROWS[3] + ",0"]),
     "<path>: expected 11 fields per row, got 12: "
     "'1,1,0.1,0.05,0.2,0.3,0.2,0.4,0.6,0.5,0.7,0'"),
    # 10 + 12 fields: the cell count is that of two rows, and every cell
    # would parse as an index.
    ("ten-then-twelve-fields",
     summary_text(rows=["0,0,0,0,0,0,0,0,1,1", "1,0,0,0,0,0,0,0,0,1,1,1",
                        *SUMMARY_ROWS[2:]]),
     "<path>: expected 11 fields per row, got 10: '0,0,0,0,0,0,0,0,1,1'"),
    # Two rows and one cell more: 23 fields read as rows of 12 would line up.
    ("twenty-three-fields",
     summary_text(rows=[SUMMARY_ROWS[0] + ",0," + SUMMARY_ROWS[1], *SUMMARY_ROWS[2:]]),
     "<path>: expected 11 fields per row, got 23: "
     f"'{SUMMARY_ROWS[0]},0,{SUMMARY_ROWS[1]}'"),
    ("no-header", "# m=4 gamma=0.9\n\n# nothing else\n", "<path>: no header row found"),
    ("no-data-rows", summary_text(rows=[]), "<path>: no data rows"),
    # cpci never quotes a cell, so a quote is a malformed row.
    ("quoted-index", summary_text(rows=with_cell(0, 0, '"0"')),
     "<path>: malformed row '\"0\",0,0.25,0.125,0.5,0,0,0.25,0.75,0.5,1'"),
    ("quoted-value", summary_text(rows=with_cell(1, 3, '"0"')),
     "<path>: malformed row '1,0,0,\"0\",0.25,1,0.75,1,0,0,0'"),
    # The metadata must describe an estimate: m >= 1 members and a
    # confidence level in (0, 1), as ConfidenceLevel requires.
    ("m-not-integer", summary_text(meta="# m=abc gamma=0.9"),
     "<path>: metadata m='abc' is not an integer >= 1"),
    ("m-float", summary_text(meta="# m=4.0 gamma=0.9"),
     "<path>: metadata m='4.0' is not an integer >= 1"),
    ("m-negative", summary_text(meta="# m=-3 gamma=0.9"),
     "<path>: metadata m='-3' is not an integer >= 1"),
    ("m-zero", summary_text(meta="# m=0 gamma=0.9"),
     "<path>: metadata m='0' is not an integer >= 1"),
    ("m-one", summary_text(meta="# m=1 gamma=0.9"), summary_result(m=1)),
    ("gamma-not-number", summary_text(meta="# m=4 gamma=high"),
     "<path>: metadata gamma='high' is not a confidence level in (0, 1)"),
    ("gamma-two", summary_text(meta="# m=4 gamma=2"),
     "<path>: metadata gamma='2' is not a confidence level in (0, 1)"),
    ("gamma-zero", summary_text(meta="# m=4 gamma=0"),
     "<path>: metadata gamma='0' is not a confidence level in (0, 1)"),
    ("gamma-one", summary_text(meta="# m=4 gamma=1"),
     "<path>: metadata gamma='1' is not a confidence level in (0, 1)"),
    ("gamma-nan", summary_text(meta="# m=4 gamma=nan"),
     "<path>: metadata gamma='nan' is not a confidence level in (0, 1)"),
    ("bad-metadata-in-later-comment",
     summary_text(rows=[*SUMMARY_ROWS, "# m=-1"]),
     "<path>: metadata m='-1' is not an integer >= 1"),
    # The file is read as bytes; a summary that is not UTF-8 is named, in a
    # plain row or in the comment before the header.
    ("invalid-utf8-in-row", summary_text().encode().replace(b"0.125,0.5", b"0.125,\xff"),
     "<path>: not valid UTF-8 (invalid start byte)"),
    ("invalid-utf8-in-comment", summary_text(meta="# m=4 gamma=0.9 \xe9").encode("latin-1"),
     "<path>: not valid UTF-8 (invalid continuation byte)"),
    # Head shapes: what precedes the header is parsed as text with the rest.
    ("blank-line-before-header", summary_text(meta=SUMMARY_META + "\n"), summary_result()),
    ("row-before-header",
     summary_text(meta=f"{SUMMARY_META}\n{SUMMARY_ROWS[0]}", rows=SUMMARY_ROWS[1:]),
     f"<path>: unexpected header {SUMMARY_ROWS[0]!r}; expected {SUMMARY_HEADER!r}"),
    ("later-metadata-wins", summary_text(rows=[*SUMMARY_ROWS, "# m=7"]), summary_result(m=7)),
]


def read_summary(path):
    """The reader's result: (nx, ny, table bytes, m, gamma), or its message."""
    try:
        topology, table, m, gamma = load_summary_file(path)
    except ValueError as exc:
        # The library names no file; the CLI puts the path in front.
        return f"<path>: {exc}"
    assert table.dtype == np.float64 and table.flags.c_contiguous
    return topology.nx, topology.ny, table.tobytes(), m, gamma


summary_contract = pytest.mark.parametrize(
    "text, expected", [case[1:] for case in SUMMARY_CONTRACT],
    ids=[case[0] for case in SUMMARY_CONTRACT])


def write_summary(path, text) -> None:
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))


class TestSummaryReader:
    @summary_contract
    def test_table_or_message(self, tmp_path, text, expected):
        path = tmp_path / "summary.csv"
        write_summary(path, text)
        assert read_summary(path) == expected

    @summary_contract
    def test_column_wise_parse_alone(self, tmp_path, text, expected, monkeypatch):
        # The text parse defines the format: without the fast path every
        # file reads the same.
        monkeypatch.setattr(grid, "_parse_chunk", lambda *args: None)
        path = tmp_path / "summary.csv"
        write_summary(path, text)
        assert read_summary(path) == expected

    @summary_contract
    def test_in_one_line_chunks(self, tmp_path, text, expected):
        # Each line is a chunk of its own, so every plain row is parsed in
        # one step and each line that declines as text.
        path = tmp_path / "summary.csv"
        write_summary(path, text)
        with mock.patch.object(grid, "_CHUNK_BYTES", 1):
            assert read_summary(path) == expected

    @pytest.mark.parametrize(
        "text, expected", [case[1:] for case in SUMMARY_CONTRACT if isinstance(case[2], str)],
        ids=[case[0] for case in SUMMARY_CONTRACT if isinstance(case[2], str)])
    def test_query_and_render_print_the_message_with_the_path(self, tmp_path, text,
                                                               expected):
        path, out = tmp_path / "summary.csv", tmp_path / "map.svg"
        write_summary(path, text)
        message = f"cpci: error: {expected.replace('<path>', str(path), 1)}\n"
        assert run_cli("query", "--input", str(path), "0", "0") == (2, "", message)
        assert run_cli("render", "--input", str(path), "--output", str(out)) == (2, "", message)
        assert not out.exists()

    def test_invalid_utf8_is_an_input_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(summary_text().encode().replace(b"0.125,0.5", b"0.125,\xff"))
        code, stdout, err = run_cli("query", "--input", str(path), "0", "0")
        assert (code, stdout) == (2, "")
        assert err == f"cpci: error: {path}: not valid UTF-8 (invalid start byte)\n"


# Cells and lines that numpy's C reader and int()/float() might read
# differently: the fast path must read them as the text parse does, or
# decline.
INDEX_MUTATIONS = ["+1", "007", "1.0", "1e0", "1_0", "-1", "-0", " 1", "", '"0"',
                   str(2**63 - 1), str(2**63), str(-2**63 - 1), str(2**53 + 1)]
VALUE_MUTATIONS = [".5", "5.", "-0", "1e-05", "1E-5", "+.5", "1.", "", "1.5", "-1e-300",
                   "1e999", "nan", "inf", "e", "-", "0x1", "1_0", " 0.5"]
LINE_MUTATIONS = ["ten-fields", "twelve-fields", "blank-line", "crlf", "comment", "space",
                  "duplicate", "drop"]
VALUE_FORMATS = ["%.9g", "%r", "%.3f", "%.2e"]


def summary_cells(draw) -> list[list[str]]:
    """The cells of each row of a small grid's summary, as cpci writes them or nearly."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    probabilities = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    rows = []
    for v in draw(st.permutations(range(nx * ny))):
        cells = [str(v % nx), str(v // nx)]
        for _ in range(3):
            lo, hat, hi = sorted(draw(st.lists(probabilities, min_size=3, max_size=3)))
            fmt = draw(st.sampled_from(VALUE_FORMATS))
            cells += [fmt % hat, fmt % lo, fmt % hi]
        rows.append(cells)
    return rows


def mutate_row(draw, rows, k, lines=LINE_MUTATIONS) -> None:
    """Apply one index, value or `lines` mutation to row `k` of `rows`, in place.

    Only the rows from `k` on move, when the line is dropped or one is
    inserted before it.
    """
    row = rows[k]
    if draw(st.booleans()):
        # Half of the cell mutations hit an index.
        at = draw(st.integers(0, min(1, len(row) - 1)) | st.integers(0, len(row) - 1))
        row[at] = draw(st.sampled_from(INDEX_MUTATIONS if at < 2 else VALUE_MUTATIONS))
    else:
        line = draw(st.sampled_from(lines))
        if line == "ten-fields":
            row.pop()
        elif line == "twelve-fields":
            row.append("0")
        elif line == "crlf":
            row[-1] += "\r"
        elif line == "space":
            row[0] = " " + row[0]
        elif line == "drop":
            del rows[k]
        else:
            rows.insert(k, {"blank-line": [""], "comment": ["# note m=7"],
                            "duplicate": list(row)}[line])


@st.composite
def summary_files(draw) -> bytes:
    """A summary of a small grid as cpci writes it or nearly, maybe mutated."""
    rows = summary_cells(draw)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        if not rows:
            break
        mutate_row(draw, rows, draw(st.integers(0, len(rows) - 1)))
    lines = [",".join(row) for row in rows]
    return summary_text(rows=lines).encode()


class TestPlainSummaryEquivalence:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(summary_files(), st.integers(1, 512))
    def test_same_result_as_the_column_wise_parse(self, tmp_path, data, size):
        path = tmp_path / "summary.csv"
        path.write_bytes(data)
        # Small chunks put most bodies in several chunks, so a chunk after
        # the first may be the one that declines.
        with mock.patch.object(grid, "_CHUNK_BYTES", size):
            fast = read_summary(path)
        with mock.patch.object(grid, "_parse_chunk", lambda *args: None):
            column_wise = read_summary(path)
        assert fast == column_wise


def column_wise_text_rows(rows: list[str]) -> np.ndarray:
    """The reference text parse: stripped summary data rows, parsed column-wise.

    This was the reader's text parse before it went row by row; it gives
    the same records and the same message as `grid._parse_text_rows`.
    """
    # Each row is followed by a "\n" cell, which int() and float() reject.
    # The eleven columns below skip every 12th cell, so they parse only if
    # each "\n" sits there, and then the reshape holds only if there are
    # len(rows) of those: together, only if every row has 11 fields.
    cells = (",\n,".join(rows) + ",\n").split(",")
    try:
        i, j = np.array([cells[0::12], cells[1::12]], dtype=np.int64).reshape(2, len(rows))
        values = np.array([cells[k::12] for k in range(2, 11)], dtype=np.float64)
    except (ValueError, OverflowError):
        # Name the first row that int() and float() reject, as a row
        # parser would; if there is none, an index overflowed int64.
        for row in rows:
            fields = row.split(",")
            if len(fields) != 11:
                raise ValueError("expected 11 fields per row, "
                                 f"got {len(fields)}: {row!r}") from None
            try:
                int(fields[0]), int(fields[1]), *map(float, fields[2:])
            except ValueError:
                raise ValueError(f"malformed row {row!r}") from None
        raise ValueError("vertex index beyond the 64-bit range") from None
    negative = (i < 0) | (j < 0)
    if negative.any():
        raise ValueError(
            f"negative vertex index in row {rows[int(np.argmax(negative))]!r}")
    records = np.empty(len(rows), grid._SUMMARY_RECORD)
    records["i"], records["j"], records["values"] = i, j, values.T
    return records


@st.composite
def faulty_rows(draw) -> list[str]:
    """The data rows the reader hands its text parse, with faults in several rows."""
    rows = summary_cells(draw)
    faulty = draw(st.sets(st.integers(0, len(rows) - 1), min_size=min(2, len(rows)),
                          max_size=4))
    # A field-count fault in any row decides the message, so half of the
    # files keep 11 fields per row, and the other faults compete.
    eleven = [line for line in LINE_MUTATIONS if not line.endswith("-fields")]
    lines = draw(st.sampled_from([LINE_MUTATIONS, eleven]))
    # From the last row back, so a dropped or inserted line moves no row
    # that is still to be mutated.
    for k in sorted(faulty, reverse=True):
        mutate_row(draw, rows, k, lines)
    text = summary_text(rows=[",".join(row) for row in rows])
    return list(grid._content_lines(text.splitlines(), {}))[1:]


def parse_result(parse, rows):
    """`parse`'s records as bytes, or its message."""
    try:
        return parse(rows).tobytes()
    except ValueError as exc:
        return str(exc)


class TestRowByRowParse:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(faulty_rows())
    def test_same_records_or_message_as_the_column_wise_parse(self, rows):
        assume(rows)
        row_by_row = parse_result(grid._parse_text_rows, rows)
        assert row_by_row == parse_result(column_wise_text_rows, rows)


def writer_table(topology: GridTopology, seed: int = 12) -> np.ndarray:
    """A (3, 3, n) table with lo <= hi, holding 0, 1 and tiny values that
    `%.9g` writes with exponents."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0, 1, (topology.n, 3, 3)) ** rng.choice([1, 6, 60], (topology.n, 3, 1))
    u[rng.uniform(size=u.shape) < 0.1] = 0.0
    u[rng.uniform(size=u.shape) < 0.1] = 1.0
    lo_hat_hi = np.sort(u, axis=-1)
    return np.ascontiguousarray(lo_hat_hi[:, :, [1, 0, 2]].transpose(1, 2, 0))


@pytest.fixture(scope="module")
def summary_256(tmp_path_factory):
    """A 256x256 summary as `estimate` would write it, and its path."""
    topology = GridTopology(256, 256)
    path = tmp_path_factory.mktemp("summary") / "summary_256.csv"
    save_summary_file(path, writer_table(topology), topology, 50, 0.95)
    return path


@pytest.fixture
def no_fallback(monkeypatch):
    def text_parse(rows):
        pytest.fail("the summary went through the text parse")

    monkeypatch.setattr(grid, "_parse_text_rows", text_parse)


class TestWriterOutputIsPlain:
    """Every summary cpci writes is read by numpy's C reader, never the fallback."""

    def assert_reads_back(self, path):
        text = path.read_text()
        topology, table, m, gamma = load_summary_file(path)
        assert "".join(grid._summary_csv(table, topology, m, gamma)) == text

    def test_golden_summary(self, no_fallback):
        self.assert_reads_back(DATA / "golden_summary.csv")

    def test_collapsed_truth(self, tmp_path, no_fallback):
        # A degenerate table (lo = hat = hi), as a ground-truth map draws it.
        model = load_moment_model(io.BytesIO((DATA / "golden_model.mmf").read_bytes()))
        table = ground_truth_probabilities(model, 300, 0)
        out = tmp_path / "truth.csv"
        save_summary_file(out, table[:, [0, 0, 0]], model.topology, 300, 0.95)
        self.assert_reads_back(out)

    def test_zeros_ones_and_exponents_at_256(self, summary_256, no_fallback):
        text = summary_256.read_text()
        assert ",0," in text and ",1," in text and "e-" in text
        self.assert_reads_back(summary_256)


@pytest.fixture(scope="module")
def late_decline(summary_256, tmp_path_factory):
    """`summary_256` with a space after its last row: only the last chunk declines."""
    path = tmp_path_factory.mktemp("summary") / "late_decline.csv"
    path.write_bytes(summary_256.read_bytes()[:-1] + b" \n")
    return path


@pytest.fixture(scope="module")
def crlf_copy(summary_256, tmp_path_factory):
    """`summary_256` with CRLF line endings: every chunk declines, so it is all text."""
    path = tmp_path_factory.mktemp("summary") / "crlf.csv"
    path.write_bytes(summary_256.read_bytes().replace(b"\n", b"\r\n"))
    return path


@pytest.fixture(scope="module")
def note_after_header(summary_256, tmp_path_factory):
    """`summary_256` with a `# note` line after its header: only the first chunk declines."""
    path = tmp_path_factory.mktemp("summary") / "note.csv"
    meta, header, body = summary_256.read_bytes().split(b"\n", 2)
    path.write_bytes(b"\n".join([meta, header, b"# note", body]))
    return path


def peak_tables(path) -> float:
    """The tracemalloc peak of reading a summary, in tables of its size."""
    tracemalloc.start()
    try:
        _, table, _, _ = load_summary_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / table.nbytes


class TestSummaryReadMemory:
    def test_peak_within_a_few_tables(self, summary_256):
        # Measured 2.25 tables: the parsed records (1.22 tables) and the
        # table their values are copied into, a chunk at a time; the bound
        # adds a quarter of a table.  A parse of every file as text took 15.9.
        assert peak_tables(summary_256) <= 2.5

    def test_crlf_within_a_few_tables(self, crlf_copy):
        # Measured 5.2 tables: the decoded text and its lines, and the
        # parsed values.  A column-wise parse, whose cells are one str
        # each, measured 13.7.
        assert peak_tables(crlf_copy) <= 6

    def test_note_after_the_header_parses_one_chunk_as_text(self, note_after_header,
                                                            summary_256, monkeypatch):
        parse_text_rows, seen = grid._parse_text_rows, []

        def spy(rows):
            seen.append(rows)
            return parse_text_rows(rows)

        monkeypatch.setattr(grid, "_parse_text_rows", spy)
        _, table, _, _ = load_summary_file(note_after_header)
        rows = [row.strip() for row in note_after_header.read_text().splitlines()[3:]]
        [text_rows] = seen
        # The declined chunk is the first, of at most one chunk and one line.
        assert text_rows == rows[:len(text_rows)]
        assert len("\n".join(text_rows)) <= grid._CHUNK_BYTES + len(rows[0])
        assert table.tobytes() == load_summary_file(summary_256)[1].tobytes()
        # Measured 2.27 tables.
        assert peak_tables(note_after_header) <= 2.5

    def test_late_decline_within_a_few_tables(self, late_decline):
        # Measured 2.26 tables: the rows before the declined chunk stay
        # parsed; a second parse of the whole file measured 13.7 tables.
        assert peak_tables(late_decline) <= 2.5

    def test_late_decline_parses_only_its_tail_as_text(self, late_decline, summary_256,
                                                       monkeypatch):
        parse_text_rows, seen = grid._parse_text_rows, []

        def spy(rows):
            seen.append(rows)
            return parse_text_rows(rows)

        monkeypatch.setattr(grid, "_parse_text_rows", spy)
        _, table, _, _ = load_summary_file(late_decline)
        rows = [row.strip() for row in late_decline.read_text().splitlines()[2:]]
        [text_rows] = seen
        # The declined chunk is the last, of at most one chunk and one line.
        assert text_rows == rows[-len(text_rows):]
        assert len("\n".join(text_rows)) <= grid._CHUNK_BYTES + len(rows[-1])
        assert len(text_rows) < len(rows) == 65536
        assert table.tobytes() == load_summary_file(summary_256)[1].tobytes()


class TestRender:
    def test_golden_map(self, tmp_path):
        out = tmp_path / "map.svg"
        code, _, _ = run_cli(
            "render", "--input", str(DATA / "summary_4x4.csv"), "--output", str(out))
        assert code == 0
        assert out.read_bytes() == (DATA / "golden_map_4x4.svg").read_bytes()

    def test_ground_truth_draws_point_estimates(self, tmp_path, monkeypatch):
        # --ground-truth draws the map of the table with lo and hi replaced by hat.
        topology, table, m, gamma = load_summary_file(DATA / "summary_4x4.csv")
        hats = tmp_path / "hats.csv"
        save_summary_file(hats, table[:, [0, 0, 0]], topology, m, gamma)
        out, plain = tmp_path / "map.svg", tmp_path / "plain.svg"
        drawn = []
        render_map_pieces = cli.render_map_pieces
        monkeypatch.setattr(cli, "render_map_pieces", lambda table, *args: (
            drawn.append(table) or render_map_pieces(table, *args)))
        code, _, err = run_cli(
            "render", "--input", str(DATA / "summary_4x4.csv"),
            "--output", str(out), "--ground-truth")
        assert (code, err) == (0, "")
        # The hat rows are repeated by a read-only view of the loaded table.
        (hat_view,) = drawn
        assert hat_view.strides[1] == 0 and not hat_view.flags.writeable
        assert hat_view.tobytes() == table[:, [0, 0, 0]].tobytes()
        assert run_cli("render", "--input", str(hats), "--output", str(plain))[0] == 0
        assert out.read_bytes() == plain.read_bytes()
        assert out.read_bytes() != (DATA / "golden_map_4x4.svg").read_bytes()

    def test_ground_truth_holds_no_second_table(self, tmp_path, monkeypatch):
        # Beyond the table it loads, the command holds well under one more
        # table: 0.32 of one measured with numpy 2.4.6, 1.33 with a copy.
        topology = GridTopology(128, 128)
        counts = np.random.default_rng(2).integers(0, 17, (3, topology.n))
        table = summarize(counts, 50, ConfidenceLevel(0.95))
        monkeypatch.setattr(cli, "_load_summary_path", lambda path: (topology, table, 50, 0.95))
        tracemalloc.start()
        try:
            code, _, err = run_cli("render", "--input", "summary.csv", "--output",
                                   str(tmp_path / "map.svg"), "--ground-truth")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert peak / table.nbytes <= 0.75, peak / table.nbytes

    def test_overlapping_glyphs_rejected(self, tmp_path):
        code, _, err = run_cli(
            "render", "--input", str(DATA / "summary_4x4.csv"),
            "--output", str(tmp_path / "map.svg"), "--rmax", "30", "--cell", "40")
        assert code == 2 and "overlap" in err

    def test_infinite_canvas_rejected(self, tmp_path):
        out = tmp_path / "big.svg"
        code, _, err = run_cli(
            "render", "--input", str(DATA / "summary_4x4.csv"),
            "--output", str(out), "--cell", "1e308", "--rmax", "1")
        assert code == 2
        assert err == ("cpci: error: a 4x4 map at cell=1e+308, r_max=1.0 "
                       "overflows the SVG canvas (inf by inf)\n")
        assert list(tmp_path.iterdir()) == []


class TestSynth:
    @pytest.fixture
    def model_file(self, tmp_path):
        topology = GridTopology(3, 3)
        egf = tmp_path / "fit_input.egf"
        mmf = tmp_path / "model.mmf"
        write_egf(egf, topology, random_members(topology, 5, seed=21))
        code, _, _ = run_cli("synth", "fit", "--input", str(egf), "--output", str(mmf))
        assert code == 0
        return mmf

    def test_fit_matches_library_moments(self, tmp_path):
        topology = GridTopology(3, 2)
        members = random_members(topology, 4, seed=9)
        egf = tmp_path / "in.egf"
        mmf = tmp_path / "model.mmf"
        write_egf(egf, topology, members)
        code, _, _ = run_cli("synth", "fit", "--input", str(egf), "--output", str(mmf))
        assert code == 0
        from cpci.synth import load_moment_model

        with open(mmf, "rb") as handle:
            model = load_moment_model(handle)
        with open(egf, "rb") as handle:
            expected = estimate_moments(load_ensemble(handle))
        assert np.array_equal(model.mean, expected.mean)
        assert np.array_equal(model.factor, expected.factor)

    def test_zero_variance_model_samples_the_mean(self, tmp_path, topo33):
        field = bump(topo33)
        egf = tmp_path / "in.egf"
        mmf = tmp_path / "model.mmf"
        write_egf(egf, topo33, np.stack([field, field, field]))
        run_cli("synth", "fit", "--input", str(egf), "--output", str(mmf))
        out_dir = tmp_path / "samples"
        code, stdout, _ = run_cli(
            "synth", "sample", "--input", str(mmf), "--output", str(out_dir),
            "--sizes", "4")
        assert code == 0
        with open(stdout.strip(), "rb") as handle:
            sampled = load_ensemble(handle)
        assert np.array_equal(sampled.values, np.tile(field, (4, 1)))

    def test_sample_naming_and_order(self, tmp_path, model_file):
        out_dir = tmp_path / "samples"
        code, stdout, _ = run_cli(
            "synth", "sample", "--input", str(model_file), "--output", str(out_dir),
            "--sizes", "4,9", "--count", "2", "--seed", "5")
        assert code == 0
        names = [os.path.basename(p) for p in stdout.splitlines()]
        assert names == [
            "sample_m4_00.egf", "sample_m4_01.egf",
            "sample_m9_00.egf", "sample_m9_01.egf",
        ]
        assert sorted(os.listdir(out_dir)) == sorted(names)

    def test_sample_seeds_advance_sizes_major(self, tmp_path, model_file):
        out_dir = tmp_path / "samples"
        run_cli("synth", "sample", "--input", str(model_file), "--output",
                str(out_dir), "--sizes", "4,9", "--seed", "5")
        from cpci.synth import load_moment_model

        with open(model_file, "rb") as handle:
            model = load_moment_model(handle)
        for name, m_out, seed in (
                ("sample_m4_00.egf", 4, 5), ("sample_m9_00.egf", 9, 6)):
            with open(out_dir / name, "rb") as handle:
                got = load_ensemble(handle)
            expected = sample_ensemble(model, m_out, seed)
            assert np.array_equal(got.values, expected.values)

    def test_sample_deterministic(self, tmp_path, model_file):
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            code, _, _ = run_cli(
                "synth", "sample", "--input", str(model_file), "--output", str(d),
                "--sizes", "9", "--seed", "3")
            assert code == 0
        read = lambda d: (d / "sample_m9_00.egf").read_bytes()
        assert read(dirs[0]) == read(dirs[1])
        run_cli("synth", "sample", "--input", str(model_file), "--output",
                str(tmp_path / "c"), "--sizes", "9", "--seed", "4")
        assert read(tmp_path / "c") != read(dirs[0])

    def test_sample_rejects_bad_sizes(self, tmp_path, model_file):
        code, _, err = run_cli(
            "synth", "sample", "--input", str(model_file),
            "--output", str(tmp_path / "s"), "--sizes", "4,0")
        assert code == 2 and ">= 1" in err

    def test_sample_rejects_duplicate_sizes(self, tmp_path, model_file):
        out_dir = tmp_path / "s"
        code, stdout, err = run_cli(
            "synth", "sample", "--input", str(model_file),
            "--output", str(out_dir), "--sizes", "3,3")
        assert code == 2 and "distinct" in err
        assert stdout == "" and not out_dir.exists()

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_sample_rejects_seed_outside_64_bits(self, tmp_path, model_file, seed):
        out_dir = tmp_path / "s"
        code, stdout, err = run_cli(
            "synth", "sample", "--input", str(model_file),
            "--output", str(out_dir), "--sizes", "4", "--seed", seed)
        assert code == 2 and "64-bit" in err
        assert stdout == "" and not out_dir.exists()

    def test_truth_deterministic_and_ground_truth_renders(self, tmp_path, model_file):
        csvs = (tmp_path / "t1.csv", tmp_path / "t2.csv")
        for path in csvs:
            code, _, _ = run_cli(
                "synth", "truth", "--input", str(model_file), "--output", str(path),
                "--draws", "300")
            assert code == 0
        assert csvs[0].read_bytes() == csvs[1].read_bytes()
        assert csvs[0].read_text().splitlines()[0].startswith("# m=300 gamma=0.95")
        code, _, _ = run_cli(
            "render", "--input", str(csvs[0]), "--output", str(tmp_path / "gt.svg"),
            "--ground-truth")
        assert code == 0

    def test_truth_gamma_near_one_renders(self, tmp_path, model_file):
        out = tmp_path / "truth.csv"
        code, _, _ = run_cli(
            "synth", "truth", "--input", str(model_file), "--output", str(out),
            "--draws", "300", "--gamma", "0.9999999999")
        assert code == 0
        assert out.read_text().splitlines()[0] == "# m=300 gamma=0.9999999999"
        code, _, err = run_cli(
            "render", "--input", str(out), "--output", str(tmp_path / "gt.svg"),
            "--ground-truth")
        assert (code, err) == (0, "")

    @pytest.fixture
    def overflow_model(self, tmp_path):
        # Every stored value is finite, but sums of +-1e308 terms are not.
        topology = GridTopology(3, 3)
        factor = np.tile([1e308, -1e308], (topology.n, 1))
        mmf = tmp_path / "model.mmf"
        with open(mmf, "wb") as sink:
            save_moment_model(MomentModel(topology, np.zeros(topology.n), factor), sink)
        return mmf

    @pytest.mark.filterwarnings("error")
    def test_truth_rejects_draws_that_overflow(self, tmp_path, overflow_model):
        out = tmp_path / "truth.csv"
        code, _, err = run_cli("synth", "truth", "--input", str(overflow_model),
                               "--output", str(out), "--draws", "1000")
        assert code == 2
        assert err == "cpci: error: the moment model's draws overflow float64\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_sample_that_overflows_leaves_no_directory(self, tmp_path, overflow_model):
        out = tmp_path / "samples"
        code, _, err = run_cli("synth", "sample", "--input", str(overflow_model),
                               "--output", str(out), "--sizes", "10")
        assert code == 2
        assert err == "cpci: error: the moment model's draws overflow float64\n"
        assert not out.exists()

    def test_truth_without_collapse_keeps_intervals(self, tmp_path, model_file):
        out = tmp_path / "truth.csv"
        code, _, _ = run_cli(
            "synth", "truth", "--input", str(model_file), "--output", str(out),
            "--draws", "300")
        assert code == 0
        _, table, _, _ = load_summary_file(out)
        assert (table[:, 1] < table[:, 2]).any()
        code, _, err = run_cli(
            "render", "--input", str(out), "--output", str(tmp_path / "gt.svg"),
            "--ground-truth")
        assert (code, err) == (0, "")
        code, _, err = run_cli(
            "synth", "truth", "--input", str(model_file), "--output", str(out),
            "--draws", "300", "--collapse")
        assert code == 2 and "--collapse" in err


class TestCoverage:
    def test_degenerate_p_zero_has_full_coverage(self, tmp_path):
        out = tmp_path / "cov.csv"
        code, _, _ = run_cli(
            "coverage", "--p", "0", "--m", "9", "--reps", "50",
            "--output", str(out))
        assert code == 0
        header, row = out.read_text().splitlines()
        assert header == "p,m,gamma,reps,coverage,mean_width"
        cells = row.split(",")
        assert cells[:5] == ["0", "9", "0.95", "50", "1"]

    def test_rows_match_library_with_ordinal_seeds(self, tmp_path):
        out = tmp_path / "cov.csv"
        code, _, _ = run_cli(
            "coverage", "--p", "0.1,0.5", "--m", "9,49", "--reps", "400",
            "--seed", "11", "--output", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        level = ConfidenceLevel(0.95)
        combos = [(0.1, 9), (0.1, 49), (0.5, 9), (0.5, 49)]
        assert len(rows) == len(combos)
        for ordinal, ((p, m), row) in enumerate(zip(combos, rows)):
            report = coverage_experiment(p, m, level, reps=400, seed=11 + ordinal)
            cells = row.split(",")
            assert float(cells[0]) == p and int(cells[1]) == m
            assert float(cells[4]) == pytest.approx(report.empirical_coverage)
            assert float(cells[5]) == pytest.approx(report.mean_width, rel=1e-8)

    def test_central_p_lands_in_band(self, tmp_path):
        out = tmp_path / "cov.csv"
        code, _, _ = run_cli(
            "coverage", "--p", "0.5", "--m", "49", "--reps", "4000",
            "--output", str(out))
        assert code == 0
        coverage = float(out.read_text().splitlines()[1].split(",")[4])
        assert 0.90 <= coverage <= 0.99

    def test_deterministic(self, tmp_path):
        outs = (tmp_path / "a.csv", tmp_path / "b.csv")
        for out in outs:
            run_cli("coverage", "--p", "0.3", "--m", "9", "--reps", "200",
                    "--output", str(out))
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_malformed_p_list(self, tmp_path):
        code, _, err = run_cli(
            "coverage", "--p", "0.1,oops", "--m", "9",
            "--output", str(tmp_path / "c.csv"))
        assert code == 2 and "--p expects comma-separated numbers" in err

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_rejects_seed_outside_64_bits(self, tmp_path, seed):
        out = tmp_path / "cov.csv"
        code, _, err = run_cli(
            "coverage", "--p", "0.5", "--m", "9", "--reps", "10",
            "--seed", seed, "--output", str(out))
        assert code == 2 and "64-bit" in err
        assert not out.exists()


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_missing_required_flag_is_usage_error(self):
        code, _, _ = run_cli("classify")
        assert code == 2

    def test_output_into_missing_directory(self, tmp_path, topo33):
        egf = tmp_path / "in.egf"
        write_egf(egf, topo33, bump(topo33))
        code, _, err = run_cli(
            "classify", "--input", str(egf),
            "--output", str(tmp_path / "no_such_dir" / "out.csv"))
        assert code == 2 and err.startswith("cpci: error:")

    def test_missing_directory_is_named_by_the_output(self, tmp_path):
        # The error names the output path, not the temp file made beside it.
        out = tmp_path / "nodir" / "cov.csv"
        code, _, err = run_cli(
            "coverage", "--p", "0.3", "--m", "9", "--reps", "10", "--output", str(out))
        assert code == 2
        assert err == f"cpci: error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert ".cpci-tmp" not in err

    def test_output_path_is_directory_leaves_no_temp(self, tmp_path, topo33):
        egf = tmp_path / "in.egf"
        target = tmp_path / "occupied"
        target.mkdir()
        write_egf(egf, topo33, bump(topo33))
        code, _, _ = run_cli(
            "classify", "--input", str(egf), "--output", str(target))
        assert code == 2
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".cpci-tmp-")]
        assert leftovers == []

    def test_failed_rename_is_named_by_the_output(self, tmp_path, topo33):
        # The rename over a directory fails after the temp file is written;
        # the error names the output alone, not the removed temp file.
        egf = tmp_path / "in.egf"
        target = tmp_path / "occupied"
        target.mkdir()
        write_egf(egf, topo33, bump(topo33))
        code, _, err = run_cli("estimate", "--input", str(egf), "--output", str(target))
        assert code == 2
        assert err == f"cpci: error: [Errno 21] Is a directory: {str(target)!r}\n"
        assert list(tmp_path.glob(".cpci-tmp-*")) == []
        assert os.listdir(target) == []

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 58.2 TiB for an array with shape "
                     "(1000000000000, 64) and data type float64"),
         "Unable to allocate 58.2 TiB for an array with shape "
         "(1000000000000, 64) and data type float64"),
        (MemoryError(), "MemoryError"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_input_error(self, tmp_path, monkeypatch, error, message):
        # An input that asks for more memory than there is fails like any
        # other bad input, and leaves no output behind.
        def sample_ensemble(model, size, seed):
            raise error

        monkeypatch.setattr(cli, "sample_ensemble", sample_ensemble)
        out = tmp_path / "samples"
        code, stdout, err = run_cli(
            "synth", "sample", "--input", str(DATA / "golden_model.mmf"),
            "--output", str(out), "--sizes", "1000000000000")
        assert (code, stdout, err) == (2, "", f"cpci: error: {message}\n")
        assert not out.exists()

    def test_writes_leave_the_umask_alone(self, tmp_path, monkeypatch):
        # Setting the umask, even for a moment, would change the mode of
        # files that another thread creates meanwhile.
        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        out = tmp_path / "cov.csv"
        code, _, err = run_cli(
            "coverage", "--p", "0.5", "--m", "9", "--reps", "10", "--output", str(out))
        assert (code, err) == (0, "")
        assert out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["coverage", "--p", ",", "--m", "9"], "--p must list at least one value"),
        (["synth", "sample", "--input", str(DATA / "golden_model.mmf"), "--sizes", "4",
          "--count", "0"], "--count must be >= 1, got 0"),
        (["render", "--input", str(DATA / "summary_4x4.csv"), "--cell", "0"],
         "cell must be positive, got 0.0"),
    ], ids=["coverage-empty-p", "sample-count-0", "render-cell-0"])
    def test_argument_errors_write_nothing(self, tmp_path, argv, message):
        out = tmp_path / "out"
        code, stdout, err = run_cli(*argv, "--output", str(out))
        assert (code, stdout, err) == (2, "", f"cpci: error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_outputs_get_the_umask_mode(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            code, _, _ = run_cli(
                "coverage", "--p", "0.5", "--m", "9", "--reps", "10",
                "--output", str(tmp_path / "cov.csv"))
        finally:
            os.umask(previous)
        assert code == 0
        assert (tmp_path / "cov.csv").stat().st_mode & 0o777 == 0o666 & ~umask

    @pytest.mark.parametrize("count", [10**8, 10**14], ids=["no-memory", "too-big"])
    @pytest.mark.parametrize("magic,command", [
        ("EGF1", ["synth", "fit"]),
        ("MMF1", ["synth", "sample", "--sizes", "4"]),
    ], ids=["fit", "sample"])
    def test_oversized_header_is_input_error(self, tmp_path, magic, command, count):
        # 10^14 or 10^20 values: beyond any address space, so no allocation
        # can succeed even where memory is overcommitted.
        source = tmp_path / "in.txt"
        source.write_bytes(f"{magic}\n1000 1000 {count}\n1 2\n".encode())
        output = tmp_path / "out"
        code, _, err = run_cli(*command, "--input", str(source), "--output", str(output))
        assert code == 2 and "line 2" in err, err
        assert not output.exists()

    def test_streamed_estimate_parses_up_to_the_bad_row(self, tmp_path):
        # estimate holds one chunk of members, never all 10^14 values, so
        # it reads on to the short row.
        source = tmp_path / "in.egf"
        source.write_bytes(b"EGF1\n1000 1000 100000000\n1 2\n")
        output = tmp_path / "out.csv"
        code, _, err = run_cli("estimate", "--input", str(source), "--output", str(output))
        assert code == 2 and "line 3: expected 1000 values in row 0 of member 0" in err, err
        assert not output.exists()

    @pytest.mark.parametrize("count", [10**14, 10**20], ids=["address-space", "int64"])
    def test_streamed_estimate_rejects_a_count_beyond_its_tally(self, tmp_path, count):
        # 10^20 values or members: more than any address space holds, and
        # 10^20 overflows the int64 counts.
        source = tmp_path / "in.egf"
        source.write_bytes(f"EGF1\n1000 1000 {count}\n1 2\n".encode())
        output = tmp_path / "out.csv"
        code, _, err = run_cli("estimate", "--input", str(source), "--output", str(output))
        assert code == 2 and "line 2: header" in err, err
        assert not output.exists()

    def test_help_exits_zero(self):
        code, stdout, _ = run_cli("--help")
        assert code == 0 and "usage: cpci" in stdout


def distribution_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


class TestInstalledEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cpci", "--help"],
            capture_output=True, timeout=60)
        assert proc.returncode == 0
        assert b"usage: cpci" in proc.stdout

    @pytest.mark.skipif(
        not distribution_installed("cpci"),
        reason="the `cpci` distribution is not installed "
               "(importlib.metadata.PackageNotFoundError: cpci); "
               "its console script exists only after installation")
    def test_console_script(self):
        entry_points = importlib.metadata.entry_points(
            group="console_scripts", name="cpci")
        assert {ep.value for ep in entry_points} == {"cpci.cli:main"}
        installed = Path(sysconfig.get_path("scripts")) / (
            "cpci.exe" if os.name == "nt" else "cpci")
        script = str(installed) if installed.is_file() else shutil.which("cpci")
        assert script is not None, (
            f"console script `cpci` neither in {installed.parent} nor on PATH")
        proc = subprocess.run([script, "--help"], capture_output=True, timeout=60)
        assert proc.returncode == 0
        assert b"usage: cpci" in proc.stdout
