import io

import numpy as np
import pytest

from cpci.grid import (
    Ensemble,
    GridTopology,
    ParseError,
    VertexLink,
    build_link,
    load_ensemble,
    save_ensemble,
)

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

    def test_empty_file(self):
        with pytest.raises(ParseError):
            load_bytes(b"")


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
