import io
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpci import grid
from cpci.grid import (
    Ensemble,
    GridTopology,
    ParseError,
    VertexLink,
    build_link,
    load_ensemble,
    save_ensemble,
)
from cpci.synth import MomentModel, load_moment_model, save_moment_model

from conftest import grid_field


def load_bytes(data: bytes) -> Ensemble:
    return load_ensemble(io.BytesIO(data))


def save_bytes(e: Ensemble) -> bytes:
    sink = io.BytesIO()
    save_ensemble(e, sink)
    return sink.getvalue()


class TestGridTopology:
    def test_dimensions_and_vertex_count(self):
        t = GridTopology(4, 3)
        assert (t.nx, t.ny, t.n) == (4, 3, 12)

    @pytest.mark.parametrize("nx,ny", [(0, 3), (3, 0), (-1, 2)])
    def test_nonpositive_dimensions_rejected(self, nx, ny):
        with pytest.raises(ValueError):
            GridTopology(nx, ny)

    def test_single_row_lattice_accepted(self):
        # degenerate lattices are valid for layout; links need 2x2
        t = GridTopology(2, 1)
        assert t.n == 2
        with pytest.raises(ValueError):
            build_link(t, (0, 0))

    def test_linear_index_is_j_major(self):
        t = GridTopology(5, 4)
        assert t.linear(2, 3) == 3 * 5 + 2

    def test_linear_coords_bijection(self):
        t = GridTopology(4, 3)
        seen = set()
        for j in range(t.ny):
            for i in range(t.nx):
                k = t.linear(i, j)
                assert t.coords(k) == (i, j)
                seen.add(k)
        assert seen == set(range(t.n))

    def test_out_of_range_lookups_rejected(self):
        t = GridTopology(3, 3)
        with pytest.raises(ValueError):
            t.linear(3, 0)
        with pytest.raises(ValueError):
            t.linear(0, -1)
        with pytest.raises(ValueError):
            t.coords(9)

    def test_contains(self):
        t = GridTopology(3, 2)
        assert t.contains(2, 1)
        assert not t.contains(2, 2)
        assert not t.contains(-1, 0)


class TestBuildLink:
    def test_interior_link_is_closed_hexagon(self, topo33):
        link = build_link(topo33, (1, 1))
        assert link == VertexLink(
            ((2, 1), (2, 2), (1, 2), (0, 1), (0, 0), (1, 0)), closed=True)

    def test_corner_on_diagonal_side_has_three_neighbors(self, topo33):
        link = build_link(topo33, (0, 0))
        assert link == VertexLink(((1, 0), (1, 1), (0, 1)), closed=False)

    def test_corner_opposite_diagonal_has_two_neighbors(self, topo33):
        link = build_link(topo33, (2, 0))
        assert link == VertexLink(((1, 0), (2, 1)), closed=False)

    def test_out_of_range_vertex_rejected(self, topo33):
        with pytest.raises(ValueError):
            build_link(topo33, (3, 1))

    @pytest.mark.parametrize("nx,ny", [(2, 2), (3, 3), (4, 3), (2, 5)])
    def test_boundary_links_are_open_paths_of_two_to_four(self, nx, ny):
        t = GridTopology(nx, ny)
        for j in range(ny):
            for i in range(nx):
                interior = 0 < i < nx - 1 and 0 < j < ny - 1
                link = build_link(t, (i, j))
                if interior:
                    assert link.closed and len(link.neighbors) == 6
                else:
                    assert not link.closed
                    assert 2 <= len(link.neighbors) <= 4

    @pytest.mark.parametrize("nx,ny", [(2, 2), (3, 3), (4, 3), (5, 2)])
    def test_link_symmetry(self, nx, ny):
        t = GridTopology(nx, ny)
        links = {
            (i, j): build_link(t, (i, j)).neighbors
            for j in range(ny) for i in range(nx)
        }
        for v, neighbors in links.items():
            for u in neighbors:
                assert v in links[u], (v, u)

    @pytest.mark.parametrize("nx,ny", [(2, 2), (3, 3), (4, 3), (5, 2)])
    def test_degree_sum_counts_each_edge_twice(self, nx, ny):
        t = GridTopology(nx, ny)
        degree_sum = sum(
            len(build_link(t, (i, j)).neighbors)
            for j in range(ny) for i in range(nx))
        edges = nx * (ny - 1) + ny * (nx - 1) + (nx - 1) * (ny - 1)
        assert degree_sum == 2 * edges

    def test_open_path_endpoints_not_adjacent(self):
        # a boundary path must not wrap: its endpoints share no edge,
        # while consecutive path entries always do
        t = GridTopology(4, 4)
        for j in range(4):
            for i in range(4):
                link = build_link(t, (i, j))
                if link.closed:
                    continue
                for a, b in zip(link.neighbors, link.neighbors[1:]):
                    assert b in build_link(t, a).neighbors
                if len(link.neighbors) >= 3:
                    first, last = link.neighbors[0], link.neighbors[-1]
                    assert first not in build_link(t, last).neighbors


class TestEnsemble:
    def test_values_coerced_to_float64(self):
        e = Ensemble(GridTopology(2, 2), [[1, 2, 3, 4]])
        assert e.values.dtype == np.float64
        assert e.m == 1

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(GridTopology(2, 2), [[1, 2, 3]])

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(GridTopology(2, 2), np.empty((0, 4)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(GridTopology(2, 2), [[1, 2, np.nan, 4]])
        for bad in (np.nan, np.inf, -np.inf):
            for where in (0, 2, 7):
                values = np.arange(8.0).reshape(2, 4)
                values.flat[where] = bad
                with pytest.raises(ValueError, match="finite"):
                    Ensemble(GridTopology(2, 2), values)


class TestLoadEnsemble:
    def test_minimal_file(self):
        e = load_bytes(b"EGF1\n2 2 1\n1 2\n3 4\n")
        assert (e.topology.nx, e.topology.ny, e.m) == (2, 2, 1)
        assert e.values.tolist() == [[1.0, 2.0, 3.0, 4.0]]

    def test_row_zero_comes_first(self):
        e = load_bytes(b"EGF1\n2 2 1\n10 11\n20 21\n")
        t = e.topology
        assert e.values[0][t.linear(0, 0)] == 10
        assert e.values[0][t.linear(1, 1)] == 21

    def test_comments_blanks_and_crlf_accepted(self):
        data = b"# comment\r\nEGF1\r\n\r\n2 2 1\r\n# block\r\n1 2\r\n3 4\r\n"
        e = load_bytes(data)
        assert e.values.tolist() == [[1.0, 2.0, 3.0, 4.0]]

    def test_bad_magic(self):
        with pytest.raises(ParseError, match="magic"):
            load_bytes(b"EGX1\n2 2 1\n1 2\n3 4\n")

    def test_missing_block_reports_line(self):
        with pytest.raises(ParseError, match="unexpected end"):
            load_bytes(b"EGF1\n2 2 2\n1 2\n3 4\n")

    def test_short_row(self):
        with pytest.raises(ParseError, match="expected 2 values"):
            load_bytes(b"EGF1\n2 2 1\n1\n3 4\n")

    def test_bad_number_names_physical_line(self):
        data = b"# leading comment\nEGF1\n2 2 1\n1 2\n3 oops\n"
        with pytest.raises(ParseError, match="'oops'") as exc_info:
            load_bytes(data)
        assert exc_info.value.line == 5

    def test_non_finite_value_rejected(self):
        with pytest.raises(ParseError, match="non-finite"):
            load_bytes(b"EGF1\n2 2 1\n1 2\nnan 4\n")

    def test_header_token_count(self):
        with pytest.raises(ParseError, match="3 integers"):
            load_bytes(b"EGF1\n2 2\n1 2\n3 4\n")

    def test_header_non_integer(self):
        with pytest.raises(ParseError, match="non-integer"):
            load_bytes(b"EGF1\n2 x 1\n1 2\n3 4\n")

    def test_header_zero_dimension(self):
        with pytest.raises(ParseError, match="positive"):
            load_bytes(b"EGF1\n0 2 1\n1 2\n3 4\n")

    def test_trailing_content_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            load_bytes(b"EGF1\n2 2 1\n1 2\n3 4\n5 6\n")

    def test_invalid_utf8(self):
        with pytest.raises(ParseError, match="UTF-8"):
            load_bytes(b"\xff\xfe EGF1\n")

    def test_invalid_utf8_names_its_line(self):
        with pytest.raises(ParseError, match="UTF-8") as exc_info:
            load_bytes(b"EGF1\n2 2 1\n1 2\n3 \xff4\n")
        assert exc_info.value.line == 4

    def test_empty_file(self):
        with pytest.raises(ParseError):
            load_bytes(b"")


# (loader, input bytes, expected): the parsed blocks, EGF members or the
# MMF mean then factor columns, or the ParseError (message and line).
PARSER_CONTRACT = {
    "lf": ("egf", b"EGF1\n2 2 1\n1 2\n3 4\n", [[1, 2, 3, 4]]),
    "crlf": ("egf", b"EGF1\r\n2 2 1\r\n1 2\r\n3 4\r\n", [[1, 2, 3, 4]]),
    "lone-cr": ("egf", b"EGF1\r2 2 1\r1 2\r3 4\r", [[1, 2, 3, 4]]),
    "tab": ("egf", b"EGF1\n2 2 1\n1\t2\n3 4\n", [[1, 2, 3, 4]]),
    "form-feed-in-row": (
        "egf", b"EGF1\n2 2 1\n1\x0c2\n3 4\n",
        ParseError(3, "expected 2 values in row 0 of member 0, got 1")),
    # A lone CR leaves rows on the header's raw line, and plain lines follow.
    "rows-in-header-line": (
        "egf", b"EGF1\n2 2 2\r1 2\r3 4\n5 6\n7 8\n", [[1, 2, 3, 4], [5, 6, 7, 8]]),
    "short-row-in-header-line": (
        "egf", b"EGF1\n2 2 1\r1\r3 4\n",
        ParseError(3, "expected 2 values in row 0 of member 0, got 1")),
    "u2028-splits-a-row": (
        "egf", "EGF1\n2 2 1\n1 2 3 4\n".encode(), [[1, 2, 3, 4]]),
    "comments-and-blanks": (
        "egf",
        b"# a\n\n  \nEGF1\n# b\n2 2 2\n\n1 2\n3 4\n# between\n\n5 6\n7 8\n# end\n\n",
        [[1, 2, 3, 4], [5, 6, 7, 8]]),
    "trailing-content": (
        "egf", b"EGF1\n2 2 1\n1 2\n3 4\n5 6\n",
        ParseError(5, "trailing content after final block")),
    "short-row": (
        "egf", b"EGF1\n2 2 1\n1\n3 4\n",
        ParseError(3, "expected 2 values in row 0 of member 0, got 1")),
    "oops": ("egf", b"# c\nEGF1\n2 2 1\n1 2\n3 oops\n", ParseError(5, "bad number 'oops'")),
    "underscore": ("egf", b"EGF1\n2 2 1\n1_0 2\n3 4\n", [[10, 2, 3, 4]]),
    "infinity": (
        "egf", b"EGF1\n2 2 1\n1 2\n3 infinity\n", ParseError(4, "non-finite value 'infinity'")),
    "nan": ("egf", b"EGF1\n2 2 1\n1 2\nnan 4\n", ParseError(4, "non-finite value 'nan'")),
    "overflow": (
        "egf", b"EGF1\n2 2 1\n1 2\n3 -1e999\n", ParseError(4, "non-finite value '-1e999'")),
    "missing-block": (
        "egf", b"EGF1\n2 2 2\n1 2\n3 4\n\n# end\n",
        ParseError(4, "unexpected end of file, expected row 0 of member 1")),
    "empty": ("egf", b"", ParseError(1, "unexpected end of file, expected magic line 'EGF1'")),
    "comments-only": (
        "egf", b"# x\n\n", ParseError(1, "unexpected end of file, expected magic line 'EGF1'")),
    "bad-magic": (
        "egf", b"EGX1\n2 2 1\n1 2\n3 4\n", ParseError(1, "bad magic line 'EGX1', expected 'EGF1'")),
    "missing-header": (
        "egf", b"EGF1\n# none\n", ParseError(1, "unexpected end of file, expected header 'nx ny m'")),
    "header-token-count": (
        "egf", b"EGF1\n2 2\n1 2\n3 4\n",
        ParseError(2, "header 'nx ny m' needs 3 integers, got 2 tokens")),
    "header-non-integer": (
        "egf", b"EGF1\n2 2 1.0\n1 2\n3 4\n", ParseError(2, "non-integer in header '2 2 1.0'")),
    "header-not-positive": (
        "egf", b"EGF1\n0 2 1\n1 2\n3 4\n",
        ParseError(2, "header values must be positive, got '0 2 1'")),
    "mmf": (
        "mmf", b"# m\r\nMMF1\r\n2 2 2\r\n0 1\r\n2 3\r\n\r\n1 0\r\n0 1\r\n# f\r\n4 5\r\n6 7\r\n",
        [[0, 1, 2, 3], [1, 0, 0, 1], [4, 5, 6, 7]]),
    "mmf-short-row-of-mean": (
        "mmf", b"MMF1\n2 2 1\n0\n0 0\n1 0\n0 1\n",
        ParseError(3, "expected 2 values in row 0 of mean block, got 1")),
    "mmf-short-row-of-factor": (
        "mmf", b"MMF1\n2 2 2\n0 0\n0 0\n1 0\n0 1\n# last\n1 0\n0\n",
        ParseError(9, "expected 2 values in row 1 of factor block 2 of 2, got 1")),
    "mmf-missing-factor-block": (
        "mmf", b"MMF1\n2 2 2\n0 0\n0 0\n1 0\n0 1\n",
        ParseError(6, "unexpected end of file, expected row 0 of factor block 2 of 2")),
    "mmf-trailing-content": (
        "mmf", b"MMF1\n2 2 1\n0 0\n0 0\n1 0\n0 1\n9 9\n",
        ParseError(7, "trailing content after final block")),
    "mmf-bad-magic": (
        "mmf", b"EGF1\n2 2 1\n0 0\n0 0\n",
        ParseError(1, "bad magic line 'EGF1', expected 'MMF1'")),
    "mmf-header-token-count": (
        "mmf", b"MMF1\n2 2 1 1\n", ParseError(2, "header 'nx ny r' needs 3 integers, got 4 tokens")),
    "invalid-utf8": (
        "egf", b"EGF1\n2 2 1\n1 2\n3 \xff4\n",
        ParseError(4, "not valid UTF-8 (invalid start byte)")),
}


def contract_result(kind: str, data: bytes):
    """The parsed blocks as PARSER_CONTRACT lists them, or the ParseError's text and line."""
    source = io.BytesIO(data)
    try:
        if kind == "egf":
            return load_ensemble(source).values.tolist()
        model = load_moment_model(source)
    except ParseError as exc:
        return str(exc), exc.line
    return [model.mean.tolist(), *model.factor.T.tolist()]


def contract_expected(expected):
    if isinstance(expected, ParseError):
        return str(expected), expected.line
    return expected


class TestParserContract:
    @pytest.mark.parametrize("case", PARSER_CONTRACT, ids=str)
    def test_values_or_error(self, case):
        kind, data, expected = PARSER_CONTRACT[case]
        assert contract_result(kind, data) == contract_expected(expected)


# PARSER_CONTRACT cases of a 2x2 EGF whose oddity lies in the body.
BODY_ODDITIES = [
    "lf", "crlf", "lone-cr", "tab", "form-feed-in-row", "u2028-splits-a-row",
    "comments-and-blanks", "trailing-content", "short-row", "oops", "underscore",
    "infinity", "nan", "overflow", "missing-block", "invalid-utf8", "rows-in-header-line",
    "short-row-in-header-line",
]
CLEAN_MEMBER = b"1 2\n3 4\n"


def after_clean_members(data: bytes, k: int) -> bytes:
    """The 2x2 EGF `data` with k clean members put in front of its first member."""
    head = re.search(rb"2 2 (\d+)(\r\n|\r|\n)", data)
    return (data[:head.start()] + b"2 2 %d" % (int(head[1]) + k) + head[2]
            + CLEAN_MEMBER * k + data[head.end():])


def shifted(expected, k: int):
    """A PARSER_CONTRACT result once k clean members stand in front of the body."""
    if not isinstance(expected, ParseError):
        return [[1, 2, 3, 4]] * k + expected
    message = str(expected).split(": ", 1)[1]
    message = re.sub(r"member (\d+)", lambda m: f"member {int(m[1]) + k}", message)
    return ParseError(expected.line + 2 * k, message)


class TestChunkBoundaries:
    """The chunked parse keeps the contract wherever a chunk ends."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", BODY_ODDITIES)
    def test_oddity_before_at_and_after_a_boundary(self, case, monkeypatch):
        kind, data, expected = PARSER_CONTRACT[case]
        k = 16
        data, expected = after_clean_members(data, k), contract_expected(shifted(expected, k))
        parsed = []
        parse_chunk = grid._parse_chunk

        def recorded(*args):
            parsed.append(parse_chunk(*args))
            return parsed[-1]

        monkeypatch.setattr(grid, "_parse_chunk", recorded)
        # Sizes 1 to 40 put a chunk end at every byte of the oddity and
        # the rows on either side of it.
        for size in range(1, 41):
            monkeypatch.setattr(grid, "_CHUNK_BYTES", size)
            assert contract_result(kind, data) == expected, size
        assert any(rows is not None for rows in parsed)


def parse_bits(kind: str, data: bytes):
    """The parsed arrays' bytes, or the error's type, message and line."""
    try:
        if kind == "egf":
            return load_ensemble(io.BytesIO(data)).values.tobytes()
        model = load_moment_model(io.BytesIO(data))
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return model.mean.tobytes(), model.factor.tobytes()


PLAIN_TOKENS = [
    st.text("0123456789.eE+-", min_size=1, max_size=6),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format),
    st.integers(-12, 12).map(lambda q: "%.17g" % (q * 0.25)),
]
# Line boundaries, spellings and bytes outside the plain alphabet, which a
# chunk holding them must leave to the line path, and a double space.
MUTATIONS = [
    *(text.encode() for text in ("\r", "\n", "\r\n", "\x0c", "\x0b", "\x1c", "\x85",
                                 "\u2028", "\t", "#", "nan", "inf", "1_0", "0x1", "  ")),
    b"\xff", b"\xc3",
]


@st.composite
def grid_files(draw):
    """(kind, bytes) of an EGF or MMF file over the plain alphabet, maybe mutated."""
    kind = draw(st.sampled_from(["egf", "mmf"]))
    nx, ny, count = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    tokens = draw(st.sampled_from(PLAIN_TOKENS))
    rows = (count + (kind == "mmf")) * ny + draw(st.sampled_from([0, 0, 0, -1, 1]))
    lines = [" ".join(draw(st.lists(tokens, min_size=nx, max_size=nx))) for _ in range(rows)]
    if lines and draw(st.integers(0, 3)) == 0:
        ragged = draw(st.integers(0, len(lines) - 1))
        lines[ragged] = " ".join(draw(st.lists(tokens, min_size=nx - 1, max_size=nx + 1)))
    body = ("\n".join(lines) + "\n").encode()
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.sampled_from(MUTATIONS)) + body[at:]
    magic = "EGF1" if kind == "egf" else "MMF1"
    return kind, f"{magic}\n{nx} {ny} {count}\n".encode() + body


class TestChunkedParseEquivalence:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(grid_files(), st.integers(1, 64))
    def test_same_result_as_the_line_path(self, file, size):
        kind, data = file
        with mock.patch.object(grid, "_CHUNK_BYTES", size):
            chunked = parse_bits(kind, data)
            with mock.patch.object(grid, "_parse_chunk", lambda *args: None):
                by_line = parse_bits(kind, data)
        assert chunked == by_line

    @pytest.mark.parametrize("save", ["normal", "quantised", "moment-model"])
    def test_writer_output_skips_the_line_path(self, save, monkeypatch):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(64, 64 * 64))
        if save == "quantised":
            values = np.rint(values / 0.25) * 0.25
        sink = io.BytesIO()
        if save == "moment-model":
            model = MomentModel(GridTopology(64, 64), values[0], values[1:].T)
            save_moment_model(model, sink)
        else:
            save_ensemble(Ensemble(GridTopology(64, 64), values), sink)
        assert len(sink.getvalue()) > 2 * grid._CHUNK_BYTES
        split_lines = grid._split_lines

        def header_only(raw, lineno):
            assert lineno < 2, f"line {lineno + 1} went through the line path"
            return split_lines(raw, lineno)

        monkeypatch.setattr(grid, "_split_lines", header_only)
        sink.seek(0)
        if save == "moment-model":
            back = load_moment_model(sink)
            assert back.mean.tobytes() == model.mean.tobytes()
            assert back.factor.tobytes() == model.factor.tobytes()
        else:
            assert load_ensemble(sink).values.tobytes() == values.tobytes()


def traced_load_peak(source) -> tuple[Ensemble, int]:
    """load_ensemble's result and the peak bytes allocated while it ran."""
    tracemalloc.start()
    try:
        ensemble = load_ensemble(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ensemble, peak


class TestParseMemory:
    """A parse holds the value array and about one line, never the file."""

    def test_peak_within_one_and_a_half_value_arrays(self):
        values = np.random.default_rng(0).normal(size=(100, 64 * 64))
        source = io.BytesIO(save_bytes(Ensemble(GridTopology(64, 64), values)))
        ensemble, peak = traced_load_peak(source)
        assert np.array_equal(ensemble.values, values)
        assert peak <= 1.5 * values.nbytes, peak / values.nbytes

    def test_no_temporary_beyond_a_tenth_of_the_values(self):
        # Only the value array and the parse's chunk buffers remain; a
        # full-size temporary (a bool mask is 1/8 of the values) would show.
        values = np.random.default_rng(0).normal(size=(100, 64 * 64))
        source = io.BytesIO(save_bytes(Ensemble(GridTopology(64, 64), values)))
        ensemble, peak = traced_load_peak(source)
        assert np.array_equal(ensemble.values, values)
        assert peak <= 1.1 * values.nbytes, peak / values.nbytes

    @pytest.mark.slow
    def test_large_grid_from_file(self, tmp_path):
        values = np.random.default_rng(1).normal(size=(4, 1024 * 1024))
        path = tmp_path / "large.egf"
        with open(path, "wb") as handle:
            save_ensemble(Ensemble(GridTopology(1024, 1024), values), handle)
        with open(path, "rb") as handle:
            ensemble, peak = traced_load_peak(handle)
        assert np.array_equal(ensemble.values, values)
        assert peak <= 1.5 * values.nbytes, peak / values.nbytes

    @pytest.mark.slow
    def test_deep_quantised_file(self, tmp_path):
        values = np.random.default_rng(2).normal(size=(1000, 128 * 128))
        values = np.rint(values / 0.25) * 0.25
        path = tmp_path / "deep.egf"
        with open(path, "wb") as handle:
            save_ensemble(Ensemble(GridTopology(128, 128), values), handle)
        with open(path, "rb") as handle:
            ensemble, peak = traced_load_peak(handle)
        assert ensemble.values.tobytes() == values.tobytes()
        assert peak <= 1.5 * values.nbytes, peak / values.nbytes


class TestSaveEnsemble:
    def test_constant_zero_block(self):
        data = save_bytes(Ensemble(GridTopology(2, 2), [[0.0] * 4]))
        assert data == b"EGF1\n2 2 1\n0 0\n0 0\n"

    def test_roundtrip_is_exact(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([
            rng.normal(size=(2, 12)) * 1e-7,
            rng.normal(size=(2, 12)) * 1e9,
            [[0.1] * 12, np.linspace(-1, 1, 12)],
        ])
        e = Ensemble(GridTopology(4, 3), values)
        back = load_bytes(save_bytes(e))
        assert np.array_equal(back.values, e.values)
        assert back.topology == e.topology

    def test_bytes_match_per_value_format_on_extremes(self):
        big = np.finfo(np.float64).max
        tiny = np.finfo(np.float64).tiny
        values = np.array([
            [0.0, -0.0, 5e-324, -5e-324],
            [tiny, np.nextafter(tiny, 0.0), big, -big],
            [1 / 3, -1e22, 1e-7, 123456789.0],
        ]).reshape(1, 12)
        rows = [" ".join(format(v, ".17g") for v in row) for row in values.reshape(3, 4)]
        expected = "\n".join(["EGF1", "4 3 1", *rows]) + "\n"
        data = save_bytes(Ensemble(GridTopology(4, 3), values))
        assert data == expected.encode()
        assert b" 4.9406564584124654e-324 " in data

    def test_seventeen_significant_digits(self):
        data = save_bytes(Ensemble(GridTopology(2, 2), [[1 / 3] * 4]))
        assert b"0.33333333333333331" in data
