import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpci import critical
from cpci.critical import (
    CriticalType,
    _classify_codes,
    _table_rows,
    _tally,
    classify_field,
    classify_vertex,
    compare_vertices,
    count_types,
)
from cpci.grid import _LINK_OFFSETS, Ensemble, GridTopology, build_link

from conftest import grid_field


# --- independent oracle -------------------------------------------------
# Classifies a link sign pattern (True = neighbor higher than center) by
# explicit run segmentation, written without reference to the library's
# transition counting.

def segment_runs(signs: tuple[bool, ...], closed: bool) -> int:
    if all(signs) or not any(signs):
        return 1
    if closed:
        # rotate so the sequence starts at a boundary between runs,
        # then count maximal segments linearly
        k = next(t for t in range(len(signs)) if signs[t] != signs[t - 1])
        signs = signs[k:] + signs[:k]
    runs = 1
    for a, b in zip(signs, signs[1:]):
        if a != b:
            runs += 1
    return runs


def oracle_classify(signs: tuple[bool, ...], closed: bool) -> CriticalType:
    if all(signs):
        return CriticalType.MINIMUM
    if not any(signs):
        return CriticalType.MAXIMUM
    if segment_runs(signs, closed) > 2:
        return CriticalType.SADDLE
    return CriticalType.REGULAR


def field_with_center_pattern(topo: GridTopology, signs) -> np.ndarray:
    """3x3 field: center 0, link neighbors +-1 per sign, corners off-link +3."""
    field = np.full(topo.n, 3.0)
    field[topo.linear(1, 1)] = 0.0
    link = build_link(topo, (1, 1))
    for (i, j), higher in zip(link.neighbors, signs):
        field[topo.linear(i, j)] = 1.0 if higher else -1.0
    return field


# --- compare_vertices ---------------------------------------------------

class TestCompareVertices:
    def test_orders_by_value(self):
        field = np.array([1.0, 2.0])
        assert compare_vertices(field, 0, 1) == -1
        assert compare_vertices(field, 1, 0) == 1

    def test_tie_broken_by_linear_index(self):
        field = np.zeros(8)
        assert compare_vertices(field, 3, 7) == -1
        assert compare_vertices(field, 7, 3) == 1

    def test_antisymmetry_on_random_fields(self):
        rng = np.random.default_rng(0)
        field = rng.integers(0, 3, size=20).astype(float)
        for u in range(20):
            for v in range(20):
                if u == v:
                    continue
                assert compare_vertices(field, u, v) == -compare_vertices(field, v, u)

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            compare_vertices(np.zeros(4), 2, 2)

    def test_total_order_is_transitive(self):
        field = np.array([1.0, 1.0, 0.5, 1.0])
        order = sorted(range(4), key=lambda v: (field[v], v))
        for a, b in zip(order, order[1:]):
            assert compare_vertices(field, a, b) == -1


# --- classify_vertex ----------------------------------------------------

class TestClassifyVertex:
    def test_all_higher_neighbors_is_minimum(self, topo33):
        field = field_with_center_pattern(topo33, [True] * 6)
        assert classify_vertex(field, topo33, (1, 1)) == CriticalType.MINIMUM

    def test_all_lower_neighbors_is_maximum(self, topo33):
        field = field_with_center_pattern(topo33, [False] * 6)
        field[[topo33.linear(2, 0), topo33.linear(0, 2)]] = -3.0
        assert classify_vertex(field, topo33, (1, 1)) == CriticalType.MAXIMUM

    def test_quadratic_saddle(self, topo33):
        # u^2 - 2 v^2 around the center: cyclic signs (+,-,-,+,-,-), 4 runs
        field = grid_field(topo33, lambda i, j: (i - 1) ** 2 - 2 * (j - 1) ** 2)
        link = build_link(topo33, (1, 1))
        center = topo33.linear(1, 1)
        signs = [
            compare_vertices(field, topo33.linear(i, j), center) > 0
            for i, j in link.neighbors
        ]
        assert signs == [True, False, False, True, False, False]
        assert classify_vertex(field, topo33, (1, 1)) == CriticalType.SADDLE

    def test_monotone_ramp_is_regular(self, topo33):
        field = grid_field(topo33, lambda i, j: float(i))
        assert classify_vertex(field, topo33, (1, 1)) == CriticalType.REGULAR

    def test_explicit_link_argument_matches(self, topo33):
        rng = np.random.default_rng(5)
        field = rng.normal(size=9)
        link = build_link(topo33, (1, 1))
        assert classify_vertex(field, topo33, (1, 1), link) == classify_vertex(
            field, topo33, (1, 1))

    def test_exhaustive_interior_sign_patterns(self, topo33):
        for signs in itertools.product([False, True], repeat=6):
            field = field_with_center_pattern(topo33, signs)
            got = classify_vertex(field, topo33, (1, 1))
            assert got == oracle_classify(signs, closed=True), signs

    def test_boundary_patterns_use_path_runs(self):
        # bottom edge vertex of a 4x4 grid has an open 4-neighbor link
        t = GridTopology(4, 4)
        link = build_link(t, (1, 0))
        assert not link.closed and len(link.neighbors) == 4
        for signs in itertools.product([False, True], repeat=4):
            field = np.full(t.n, 5.0)
            field[t.linear(1, 0)] = 0.0
            for (i, j), higher in zip(link.neighbors, signs):
                field[t.linear(i, j)] = 1.0 if higher else -1.0
            got = classify_vertex(field, t, (1, 0))
            assert got == oracle_classify(signs, closed=False), signs


# --- classify_field -----------------------------------------------------

class TestClassifyField:
    def test_radial_bump_has_unique_maximum_at_center(self):
        t = GridTopology(5, 5)
        field = grid_field(t, lambda i, j: -((i - 2) ** 2 + (j - 2) ** 2))
        types = classify_field(field, t)
        maxima = [v for v, c in enumerate(types) if c == CriticalType.MAXIMUM]
        assert maxima == [t.linear(2, 2)]

    def test_constant_field_tie_breaking(self):
        t = GridTopology(4, 4)
        types = classify_field(np.zeros(t.n), t)
        assert types[0] == CriticalType.MINIMUM
        assert types[-1] == CriticalType.MAXIMUM
        assert np.count_nonzero(types == CriticalType.MINIMUM) >= 1

    def test_negation_swaps_minima_and_maxima(self):
        t = GridTopology(8, 8)
        rng = np.random.default_rng(17)
        swap = {
            CriticalType.MINIMUM: CriticalType.MAXIMUM,
            CriticalType.MAXIMUM: CriticalType.MINIMUM,
            CriticalType.SADDLE: CriticalType.SADDLE,
            CriticalType.REGULAR: CriticalType.REGULAR,
        }
        for _ in range(20):
            field = rng.normal(size=t.n)
            plain = classify_field(field, t)
            negated = classify_field(-field, t)
            assert np.array_equal(negated, [swap[c] for c in plain])

    def test_monotone_transform_invariance(self):
        t = GridTopology(8, 8)
        rng = np.random.default_rng(23)
        for _ in range(10):
            field = rng.uniform(0.5, 10.0, size=t.n)
            base = classify_field(field, t)
            assert np.array_equal(classify_field(2 * field + 5, t), base)
            assert np.array_equal(classify_field(field ** 3, t), base)

    def test_matches_per_vertex_classification(self):
        t = GridTopology(5, 4)
        rng = np.random.default_rng(29)
        field = rng.integers(0, 4, size=t.n).astype(float)  # many ties
        types = classify_field(field, t)
        for j in range(t.ny):
            for i in range(t.nx):
                link = build_link(t, (i, j))
                assert types[t.linear(i, j)] == classify_vertex(
                    field, t, (i, j), link)

    def test_exactly_one_type_per_vertex(self):
        t = GridTopology(6, 6)
        field = np.random.default_rng(31).normal(size=t.n)
        types = classify_field(field, t)
        assert len(types) == t.n
        assert types.dtype == np.int8 and set(types.tolist()) <= set(CriticalType)

    @pytest.mark.parametrize("nx, ny", [(1, 5), (5, 1)])
    def test_single_row_or_column_rejected(self, nx, ny):
        with pytest.raises(ValueError, match="2x2"):
            classify_field(np.zeros(nx * ny), GridTopology(nx, ny))

    def test_size_mismatch_rejected(self, topo33):
        with pytest.raises(ValueError):
            classify_field(np.zeros(8), topo33)
        # Nine values, the right count, in the wrong shape.
        with pytest.raises(ValueError, match=r"field must have shape \(9,\), got \(1, 9\)"):
            classify_field(np.zeros((1, 9)), topo33)

    def test_non_finite_rejected(self, topo33):
        field = np.zeros(9)
        field[4] = np.inf
        with pytest.raises(ValueError):
            classify_field(field, topo33)


# --- vectorised kernel against the scalar oracle ---------------------------

def kernel_fields(kind: str, m: int, n: int) -> np.ndarray:
    values = np.random.default_rng(n).normal(size=(m, n))
    if kind == "quantised 1.0":
        return np.round(values)
    if kind == "quantised 0.25":
        return np.round(values * 4) / 4
    if kind == "constant":
        return np.full((m, n), 0.5)
    return values


def oracle_type_table() -> np.ndarray:
    """int8 type of every (valid, bits) pair of 6-bit direction masks.

    The kernel's table before it was indexed by kind of vertex: bit k stands
    for direction `_LINK_OFFSETS[k]`, in `valid` an in-grid neighbor, in
    `bits` a higher one.  The nine vertices of a 3x3 grid carry every
    `valid` mask of a grid of at least 2x2; each pattern is typed by
    `oracle_classify`, and bits outside `valid` do not change the type.
    """
    table = np.zeros((64, 64), dtype=np.int8)
    grid = GridTopology(3, 3)
    for j in range(3):
        for i in range(3):
            link = build_link(grid, (i, j))
            order = [_LINK_OFFSETS.index((a - i, b - j)) for a, b in link.neighbors]
            valid = sum(1 << k for k in order)
            for bits in range(64):
                signs = tuple(bool(bits >> k & 1) for k in order)
                table[valid, bits] = oracle_classify(signs, link.closed)
    return table


ORACLE_TYPE_TABLE = oracle_type_table()


def six_comparison_codes(values: np.ndarray, topology: GridTopology) -> np.ndarray:
    """The kernel before one comparison per edge: every link direction is
    compared from its own end, `nb >= c` where the neighbor has the larger
    linear index and `nb > c` where it has the smaller, so each grid edge
    is compared twice."""
    nx, ny, n = topology.nx, topology.ny, topology.n
    bits = np.zeros(values.shape, dtype=np.uint8)
    valid = np.zeros((ny, nx), dtype=np.uint8)
    for k, (di, dj) in enumerate(_LINK_OFFSETS):
        d = di + dj * nx
        if d > 0:
            bits[:, :n - d] |= (values[:, d:] >= values[:, :n - d]).view(np.uint8) << k
        else:
            bits[:, -d:] |= (values[:, :n + d] > values[:, -d:]).view(np.uint8) << k
        valid[max(0, -dj):ny - max(0, dj), max(0, -di):nx - max(0, di)] |= 1 << k
    return ORACLE_TYPE_TABLE.ravel().take((valid.reshape(n).astype(np.intp) << 6) + bits)


@st.composite
def tied_blocks(draw):
    """(values, topology): 1-5 members of a 2x2 to 9x9 grid, values in {0, 1}."""
    topology = GridTopology(draw(st.integers(2, 9)), draw(st.integers(2, 9)))
    m = draw(st.integers(1, 5))
    values = draw(arrays(np.float64, (m, topology.n), elements=st.sampled_from([0.0, 1.0])))
    return values, topology


class TestClassifyCodes:
    @pytest.mark.parametrize("nx, ny", [(2, 2), (2, 5), (5, 2), (7, 3), (16, 16)])
    @pytest.mark.parametrize(
        "kind", ["random", "quantised 1.0", "quantised 0.25", "constant"])
    def test_every_vertex_matches_classify_vertex(self, nx, ny, kind):
        t = GridTopology(nx, ny)
        values = kernel_fields(kind, 3, t.n)
        codes = _classify_codes(values, t, _table_rows(t))
        assert codes.shape == values.shape and codes.dtype == np.int8
        for j in range(ny):
            for i in range(nx):
                link = build_link(t, (i, j))
                for field, member_codes in zip(values, codes):
                    expected = classify_vertex(field, t, (i, j), link)
                    assert member_codes[t.linear(i, j)] == expected, (i, j)

    def test_every_sign_pattern_at_every_kind_of_vertex(self, topo33):
        # The nine vertices of a 3x3 grid carry every in-grid direction set;
        # each link sign pattern is one member, checked against the oracle.
        for j in range(3):
            for i in range(3):
                link = build_link(topo33, (i, j))
                patterns = list(itertools.product([False, True], repeat=len(link.neighbors)))
                values = np.full((len(patterns), topo33.n), 5.0)
                values[:, topo33.linear(i, j)] = 0.0
                for member, signs in zip(values, patterns):
                    for (a, b), higher in zip(link.neighbors, signs):
                        member[topo33.linear(a, b)] = 1.0 if higher else -1.0
                codes = _classify_codes(values, topo33, _table_rows(topo33))
                codes = codes[:, topo33.linear(i, j)]
                expected = [oracle_classify(signs, link.closed) for signs in patterns]
                assert codes.tolist() == expected, (i, j)

    @settings(max_examples=300, deadline=None)
    @given(tied_blocks())
    def test_matches_six_comparison_kernel_on_tied_fields(self, block):
        # Nearly every edge is a tie, so the index tie-break decides most bits.
        values, topology = block
        assert np.array_equal(
            _classify_codes(values, topology, _table_rows(topology)),
            six_comparison_codes(values, topology))

    def test_peak_workspace_per_member_vertex(self):
        # The intp table index (8 bytes), the uint8 code and the int8 types
        # are live together; a comparison kept alive past the loop adds one.
        t = GridTopology(128, 128)
        values = np.round(np.random.default_rng(61).normal(size=(61, t.n)) * 4) / 4
        rows = _table_rows(t)
        _classify_codes(values[:1], t, rows)
        tracemalloc.start()
        try:
            _classify_codes(values, t, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.5 * values.size, peak / values.size


class TestTally:
    def test_grid_work_is_done_once_per_tally(self, monkeypatch):
        # Five blocks, one table-row lookup and one grid check: the kernel
        # itself does only per-member work.
        calls = []

        def spy(name, real):
            def wrapper(topology):
                calls.append(name)
                return real(topology)
            monkeypatch.setattr(f"cpci.critical.{name}", wrapper)

        spy("_table_rows", _table_rows)
        spy("_require_links", critical._require_links)
        t = GridTopology(6, 5)
        values = np.round(np.random.default_rng(53).normal(size=(15, t.n)))
        counts = _tally(iter(np.split(values, 5)), t)
        assert calls == ["_table_rows", "_require_links"]
        monkeypatch.undo()
        expected = count_types(Ensemble(t, values))
        assert np.array_equal(counts, [expected.c_min, expected.c_max, expected.c_saddle])

    def test_grid_checked_before_the_first_block(self):
        pulled = []

        def blocks():
            pulled.append(True)
            yield np.zeros((1, 5))

        with pytest.raises(ValueError, match="2x2"):
            _tally(blocks(), GridTopology(5, 1))
        assert pulled == []


# --- count_types --------------------------------------------------------

class TestCountTypes:
    def test_single_member_counts_are_indicators(self, topo33):
        field = grid_field(topo33, lambda i, j: -((i - 1) ** 2 + (j - 1) ** 2))
        e = Ensemble(topo33, [field])
        counts = count_types(e)
        types = classify_field(field, topo33)
        assert len(counts) == topo33.n
        for v, c in enumerate(counts):
            assert c.c_min == (types[v] == CriticalType.MINIMUM)
            assert c.c_max == (types[v] == CriticalType.MAXIMUM)
            assert c.c_saddle == (types[v] == CriticalType.SADDLE)

    def test_identical_members_count_zero_or_m(self, topo33):
        field = np.random.default_rng(4).normal(size=9)
        e = Ensemble(topo33, [field] * 4)
        for c in count_types(e):
            assert {c.c_min, c.c_max, c.c_saddle} <= {0, 4}

    def test_counts_match_per_member_recount(self):
        t = GridTopology(4, 4)
        rng = np.random.default_rng(41)
        members = rng.normal(size=(3, t.n))
        counts = count_types(Ensemble(t, members))
        for v in range(t.n):
            per_member = [classify_field(member, t)[v] for member in members]
            assert counts[v].c_min == sum(
                c == CriticalType.MINIMUM for c in per_member)
            assert counts[v].c_max == sum(
                c == CriticalType.MAXIMUM for c in per_member)
            assert counts[v].c_saddle == sum(
                c == CriticalType.SADDLE for c in per_member)

    def test_record_fields(self):
        t = GridTopology(3, 2)
        counts = count_types(Ensemble(t, np.random.default_rng(5).normal(size=(4, t.n))))
        assert counts.shape == (t.n,)
        assert counts.dtype.names == ("c_min", "c_max", "c_saddle")
        assert all(counts.dtype[name] == np.int64 for name in counts.dtype.names)

    def test_result_independent_of_chunk_size(self, monkeypatch):
        t = GridTopology(5, 4)
        members = np.round(np.random.default_rng(47).normal(size=(20, t.n)) * 2)
        base = count_types(Ensemble(t, members))
        monkeypatch.setattr("cpci.critical._member_chunk", lambda n: 7)
        assert np.array_equal(count_types(Ensemble(t, members)), base)

    @pytest.mark.parametrize("nx, ny", [(1, 5), (5, 1)])
    def test_single_row_or_column_rejected(self, nx, ny):
        with pytest.raises(ValueError, match="2x2"):
            count_types(Ensemble(GridTopology(nx, ny), np.zeros((3, nx * ny))))

    def test_count_sum_bounded_by_m(self):
        t = GridTopology(6, 5)
        members = np.random.default_rng(43).normal(size=(7, t.n))
        for c in count_types(Ensemble(t, members)):
            assert c.c_min + c.c_max + c.c_saddle <= 7
