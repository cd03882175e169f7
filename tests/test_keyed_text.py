"""Keyed text writers against the per-vertex loops they replaced.

`render_map` and the summary and count CSV writers format each distinct
row of per-vertex values once and share the text among the vertices that
have the same bits.  The per-vertex loops below are the writers as they
were before; every output must equal theirs byte for byte.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpci import render
from cpci.cli import _write_text
from cpci.critical import count_types
from cpci.grid import (
    _SUMMARY_HEADER, Ensemble, GridTopology, _summary_csv, keyed_text, load_summary, save_summary,
)
from cpci.render import GlyphStyle, render_map, render_map_pieces
from cpci.stats import ConfidenceLevel, summarize

from conftest import load_summary_file, run_cli, write_egf

DATA = Path(__file__).parent / "data"


def summary_csv_oracle(table, topology, m, gamma, collapse=False) -> str:
    """The summary CSV, one `%` format per vertex."""
    if collapse:
        table = table[:, [0, 0, 0]]
    nx = topology.nx
    lines = [f"# m={m} gamma={format(float(gamma), '.9g')}", _SUMMARY_HEADER]
    lines.extend(
        ("%d,%d" + ",%.9g" * 9) % (v % nx, v // nx, *row)
        for v, row in enumerate(table.reshape(9, topology.n).T.tolist()))
    return "\n".join(lines) + "\n"


def counts_csv_oracle(counts, topology, m) -> str:
    """The `estimate --counts` CSV, one `%` format per vertex."""
    nx = topology.nx
    lines = ["i,j,c_min,c_max,c_saddle,m"]
    lines.extend("%d,%d,%d,%d,%d,%d" % (v % nx, v // nx, *row, m)
                 for v, row in enumerate(np.asarray(counts).T.tolist()))
    return "\n".join(lines) + "\n"


def render_map_oracle(table, topology, style=GlyphStyle()) -> str:
    """The SVG document, one glyph string per vertex, joined at the end."""
    nx, ny, n = topology.nx, topology.ny, topology.n
    table = np.asarray(table, dtype=np.float64)
    fmt, margin = render._fmt, render._MARGIN
    grid_w = 2 * margin + (nx - 1) * style.cell
    grid_h = 2 * margin + (ny - 1) * style.cell
    legend, legend_w, legend_h = render._legend(style, grid_w)
    width = grid_w + legend_w
    height = max(grid_h, legend_h)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(width)}" height="{fmt(height)}" '
        f'viewBox="0 0 {fmt(width)} {fmt(height)}">',
    ]
    xs = [fmt(margin + i * style.cell) for i in range(nx)]
    ys = [fmt(margin + (ny - 1 - j) * style.cell) for j in range(ny)]
    for v, paths in enumerate(zip(*render._sector_paths(table, style))):
        i, j = v % nx, v // nx
        open_tag = f'<g data-vertex="{i},{j}" transform="translate({xs[i]},{ys[j]})">'
        body = "\n".join(path for path in paths if path)
        parts.append(f"{open_tag}\n{body}\n</g>" if body else open_tag + "</g>")
    parts.append(legend)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def assert_writers_match(table, topology, style=GlyphStyle()):
    assert render_map(table, topology, style) == render_map_oracle(table, topology, style)
    for collapse in (False, True):
        written = table[:, [0, 0, 0]] if collapse else table
        assert ("".join(_summary_csv(written, topology, 50, 0.95))
                == summary_csv_oracle(table, topology, 50, 0.95, collapse=collapse))


def smooth_ensemble(topology: GridTopology, m: int, seed: int) -> Ensemble:
    """A smooth bump field plus noise: many vertices share their counts."""
    rng = np.random.default_rng(seed)
    x, y = np.meshgrid(np.linspace(0, 3, topology.nx), np.linspace(0, 3, topology.ny))
    field = (np.sin(x) * np.cos(y)).ravel()
    return Ensemble(topology, field + 0.3 * rng.normal(size=(m, topology.n)))


def counts_of(ensemble: Ensemble) -> np.ndarray:
    records = count_types(ensemble)
    return np.stack((records.c_min, records.c_max, records.c_saddle))


def estimate_table(topology: GridTopology, m: int = 50, seed: int = 0) -> np.ndarray:
    return summarize(counts_of(smooth_ensemble(topology, m, seed)), m, ConfidenceLevel(0.95))


def glyph_bodies(table, topology) -> list[str]:
    """The SVG piece after each vertex's opening tag: its shared glyph body."""
    return list(render_map_pieces(table, topology))[2:-2:2]


@st.composite
def tables(draw):
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pool = draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, 0.25, 1 / 3, 1e-9, 0.999999999])
        | st.floats(0.0, 1.0), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=9 * nx * ny,
                          max_size=9 * nx * ny))
    return GridTopology(nx, ny), np.array(pool)[picks].reshape(3, 3, nx * ny)


def hex_text(rows: np.ndarray) -> list[str]:
    """The per-row oracle: each row's raw bytes as hex."""
    return [row.tobytes().hex() for row in rows]


def keyed_hex(rows: np.ndarray) -> list[str]:
    """`keyed_text` with the oracle's formatter, checking it is called once."""
    calls = []

    def format_rows(distinct):
        calls.append(len(distinct))
        return hex_text(distinct)
    out = list(keyed_text(rows, format_rows))
    assert len(calls) == 1 and calls[0] == len(set(out))
    return out


def unique_keyed_text(rows: np.ndarray, format_rows) -> list[str]:
    """The keying before `lexsort` over column bits: `np.unique` over a copy
    of the rows as one void key each, which compares as the row's raw bytes."""
    keys = np.ascontiguousarray(rows).view(
        np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    texts = format_rows(distinct.view(rows.dtype).reshape(len(distinct), -1))
    return np.array(texts, dtype=object)[inverse.ravel()].tolist()


# Float bit patterns whose keys an inexact keying would merge: both zeros,
# NaNs of either sign with different payloads, and the infinities; and 1.0.
SPECIAL_BITS = [0x0, 0x8000_0000_0000_0000, 0x7FF8_0000_0000_0000, 0xFFF8_0000_0000_0000,
                0x7FF8_0000_0000_0001, 0x7FF0_0000_0000_0002, 0x7FF0_0000_0000_0000,
                0xFFF0_0000_0000_0000, 0x3FF0_0000_0000_0000]


@st.composite
def keyed_rows(draw) -> np.ndarray:
    """(n, k) rows as the writers pass them: float64 tables with k = 9, int64
    count rows with k = 3 and the one-column rows of `_sector_paths`, laid
    out as transposed (k, n) arrays or as contiguous rows."""
    n, k = draw(st.integers(1, 40)), draw(st.sampled_from([1, 3, 9]))
    if draw(st.booleans()):
        pool = np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(0, 3),
                                      min_size=1, max_size=6)), dtype=np.int64)
    else:
        bits = draw(st.lists(st.sampled_from(SPECIAL_BITS) | st.integers(0, 2**64 - 1),
                             min_size=1, max_size=6))
        pool = np.array(bits, dtype=np.uint64).view(np.float64)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * k, max_size=n * k))
    if draw(st.booleans()):
        return pool[picks].reshape(k, n).T
    return pool[picks].reshape(n, k)


class TestKeyedText:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(keyed_rows())
    def test_same_texts_as_unique_over_row_bytes(self, rows):
        out, oracle = keyed_hex(rows), unique_keyed_text(rows, hex_text)
        assert out == oracle == hex_text(rows)
        # Rows with equal keys share one string.
        assert all(out[out.index(text)] is text for text in out)

    def test_keys_exact_bits(self):
        payload_nan = np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0]
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [np.nan, 0.5],
                         [payload_nan, 0.5]])
        out = keyed_hex(rows)
        assert out == hex_text(rows)
        assert len(set(out)) == 4 and out[0] is out[2]

    def test_integer_rows(self):
        rows = np.array([[2, 7], [1, 1], [2, 7], [1, 1]], dtype=np.int64)
        out = keyed_hex(rows)
        assert out == hex_text(rows)
        assert len(set(out)) == 2

    def test_equal_keys_share_one_string(self):
        rows = np.array([[5, 1], [2, 2], [5, 1], [0, 9], [2, 2]], dtype=np.int64)
        out = keyed_hex(rows)
        assert out == hex_text(rows)
        assert out[0] is out[2] and out[1] is out[4]

    def test_shuffled_rows_give_shuffled_strings(self):
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 3, (200, 3))
        order = rng.permutation(len(rows))
        out, shuffled = keyed_hex(rows), keyed_hex(rows[order])
        assert shuffled == [out[k] for k in order] == hex_text(rows[order])

    def test_keys_exact_under_hash_collision(self):
        # A and B collide under the multiply-sum row hash sum_k row[k] * w**(k + 1)
        # (mod 2**64, w = 0x9E3779B97F4A7C15); each key still gets one entry.
        w = [pow(0x9E3779B97F4A7C15, k, 1 << 64) for k in (1, 2)]
        a, b = [0, 0], [w[1], (1 << 64) - w[0]]
        rows = np.array([a, b, a], dtype=np.uint64).view(np.int64)
        out = keyed_hex(rows)
        assert out == hex_text(rows)
        assert len(set(out)) == 2 and out[0] is out[2]
        table = np.random.default_rng(3).choice([0.0, -0.0, 0.5], size=(3, 3, 12))
        assert_writers_match(table, GridTopology(4, 3))


class TestKeyedWritersMatchOracles:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(tables())
    def test_property(self, case):
        topology, table = case
        assert_writers_match(table, topology)

    def test_quantised_table_shares_keys(self):
        t = GridTopology(40, 30)
        triples = np.array([(0, 0, 0), (0, 0, 0), (4, 0, 0), (0, 4, 0), (1, 0, 2), (0, 1, 1)])
        counts = triples[np.random.default_rng(6).integers(0, len(triples), t.n)].T
        table = summarize(counts, 4, ConfidenceLevel(0.95))
        assert len(set(glyph_bodies(table, t))) == 5
        assert_writers_match(table, t)
        assert_writers_match(table, t, GlyphStyle(r_max=7.5, cell=15.0))

    def test_all_distinct_table(self):
        t = GridTopology(20, 15)
        lo_hat_hi = np.sort(np.random.default_rng(8).uniform(0, 1, (t.n, 3, 3)), axis=-1)
        table = lo_hat_hi[:, :, [1, 0, 2]].transpose(1, 2, 0)
        assert len(set(glyph_bodies(table, t))) == t.n
        assert_writers_match(table, t)

    def test_summary_csv_shares_row_strings(self):
        t = GridTopology(20, 15)
        pieces = list(_summary_csv(estimate_table(t, m=4), t, 4, 0.95))
        # One `j` string per grid row, and one tail per distinct row.
        assert len(set(map(id, pieces[2::3]))) == t.ny
        assert len(set(map(id, pieces[3::3]))) == len(set(pieces[3::3]))

    def test_negative_zero_read_from_csv(self, tmp_path):
        rows = ["0,0,-0,-0,0.5,0,0,0,0.25,0.1,0.5", "1,0,0,0,0.5,-0,-0,0,0.25,0.1,0.5",
                "0,1,0,0,0.5,0,0,0,0.25,0.1,0.5", "1,1,-0,-0,-0,-0,-0,-0,-0,-0,-0"]
        path = tmp_path / "summary.csv"
        path.write_text("# m=4 gamma=0.95\n" + _SUMMARY_HEADER + "\n" + "\n".join(rows) + "\n")
        topology, table, _, _ = load_summary_file(path)
        assert np.signbit(table).sum() == 13
        assert_writers_match(table, topology)
        assert "".join(_summary_csv(table, topology, 4, 0.95)) == path.read_text()

    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (5, 1), (2, 2)])
    def test_small_grids(self, nx, ny):
        t = GridTopology(nx, ny)
        rng = np.random.default_rng(nx * 10 + ny)
        table = np.round(rng.uniform(0, 1, (3, 3, t.n)), 1)
        assert_writers_match(table, t)
        assert_writers_match(np.zeros((3, 3, t.n)), t)

    def test_fixture_summary(self):
        topology, table, _, _ = load_summary_file(DATA / "summary_4x4.csv")
        assert_writers_match(table, topology)

    @pytest.mark.parametrize("quantise", [False, True])
    def test_counts_csv(self, tmp_path, quantise):
        t = GridTopology(12, 9)
        ensemble = smooth_ensemble(t, 30, seed=5)
        values = np.rint(ensemble.values / 0.5) * 0.5 if quantise else ensemble.values
        egf, out = tmp_path / "in.egf", tmp_path / "counts.csv"
        write_egf(egf, t, values)
        code, _, _ = run_cli("estimate", "--input", str(egf), "--output", str(out), "--counts")
        assert code == 0
        assert out.read_text() == counts_csv_oracle(counts_of(Ensemble(t, values)), t, 30)


def render_and_write_peak(table, topology, path) -> float:
    """tracemalloc peak of the CLI's render path, `render_map_pieces` into
    `_write_text`, over the size of the SVG it writes."""
    tracemalloc.start()
    try:
        _write_text(str(path), render_map_pieces(table, topology))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == render_map(table, topology)
    return peak / path.stat().st_size


class TestRenderMemory:
    """The SVG is written piece by piece: its text is never held whole."""

    def test_peak_within_half_an_svg(self, tmp_path):
        t = GridTopology(128, 128)
        assert render_and_write_peak(estimate_table(t), t, tmp_path / "map.svg") <= 0.5

    @pytest.mark.slow
    def test_peak_within_half_an_svg_at_256(self, tmp_path):
        t = GridTopology(256, 256)
        assert render_and_write_peak(estimate_table(t), t, tmp_path / "map.svg") <= 0.5


def traced_peak(run) -> int:
    """The tracemalloc peak of `run()`, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", params=[128, pytest.param(256, marks=pytest.mark.slow)])
def estimate_case(request, tmp_path_factory):
    """(topology, counts, table, summary path) of a side x side smooth
    ensemble of 50 members, as `estimate` would count, summarize and write it."""
    t = GridTopology(request.param, request.param)
    counts = counts_of(smooth_ensemble(t, 50, seed=0))
    # Also fills the bounds cache, so the traced calls below compute none.
    table = summarize(counts, 50, ConfidenceLevel(0.95))
    path = tmp_path_factory.mktemp("stages") / "summary.csv"
    with open(path, "wb") as sink:
        save_summary(table, t, 50, 0.95, sink)
    return t, counts, table, path


# Bounds on each stage's peak in tables (9 n float64) at 128x128 and
# 256x256: the peak measured with numpy 2.4.6 plus about 0.25 of a table.
# Per-distinct-row text does not grow with the grid, so it weighs more in
# the smaller table.  Writers and a reader that copied the whole table
# measured 2.06 / 2.06, 3.49 / 3.40, 3.57 / 3.57 and 4.02 / 3.40.
STAGE_BUDGETS = {
    # measured 1.39 / 1.39: the table and one type's bounds
    "summarize": {128: 1.65, 256: 1.65},
    # measured 1.29 / 0.57: the sort order, the keys and the tails
    "save_summary": {128: 1.55, 256: 0.8},
    # measured 2.25 / 2.24: the parsed records and the table
    "load_summary": {128: 2.5, 256: 2.5},
    # measured 2.65 / 1.12: the keys and the glyph bodies
    "render": {128: 2.9, 256: 1.4},
}


class TestPerVertexStageMemory:
    """Each stage after the tally holds at most about two tables at once."""

    @pytest.mark.parametrize("stage", STAGE_BUDGETS)
    def test_peak_in_tables(self, estimate_case, stage, tmp_path):
        t, counts, table, path = estimate_case
        with open(path, "rb") as source, open(tmp_path / "out", "wb") as sink:
            run = {
                "summarize": lambda: summarize(counts, 50, ConfidenceLevel(0.95)),
                "save_summary": lambda: save_summary(table, t, 50, 0.95, sink),
                "load_summary": lambda: load_summary(source),
                "render": lambda: _write_text(str(tmp_path / "map.svg"),
                                              render_map_pieces(table, t)),
            }[stage]
            peak = traced_peak(run) / table.nbytes
        assert peak <= STAGE_BUDGETS[stage][t.nx], peak
