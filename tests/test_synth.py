import io
import tracemalloc

import numpy as np
import pytest

from cpci.critical import CriticalType, _member_chunk, classify_field
from cpci.grid import Ensemble, GridTopology, ParseError, save_ensemble
from cpci.stats import ConfidenceLevel, summarize
from cpci.synth import (
    MomentModel,
    _draw_members,
    estimate_moments,
    ground_truth_probabilities,
    load_moment_model,
    sample_ensemble,
    save_moment_model,
)


# --- independent oracle -------------------------------------------------

def brute_force_covariance(members: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance by explicit double loop."""
    m, n = members.shape
    mean = members.mean(axis=0)
    cov = np.empty((n, n))
    for p in range(n):
        for q in range(n):
            cov[p, q] = sum(
                (members[k, p] - mean[p]) * (members[k, q] - mean[q])
                for k in range(m)) / (m - 1)
    return cov


def ensemble_bytes(e: Ensemble) -> bytes:
    sink = io.BytesIO()
    save_ensemble(e, sink)
    return sink.getvalue()


# --- moment estimation ----------------------------------------------------

class TestEstimateMoments:
    def test_identical_members_give_zero_factor(self):
        t = GridTopology(2, 2)
        field = np.array([1.0, 2.0, 3.0, 4.0])
        model = estimate_moments(Ensemble(t, [field, field]))
        assert np.array_equal(model.mean, field)
        assert np.all(model.factor == 0.0)

    def test_two_constant_members(self):
        t = GridTopology(2, 2)
        model = estimate_moments(Ensemble(t, [[0.0] * 4, [2.0] * 4]))
        assert np.array_equal(model.mean, np.ones(4))
        cov = model.factor @ model.factor.T
        assert np.allclose(cov, 2.0, atol=1e-14)

    def test_factor_reproduces_brute_force_covariance(self):
        t = GridTopology(3, 3)
        members = np.random.default_rng(11).normal(size=(4, 9))
        model = estimate_moments(Ensemble(t, members))
        cov = model.factor @ model.factor.T
        assert np.allclose(cov, brute_force_covariance(members), atol=1e-12)

    def test_single_member_rejected(self):
        with pytest.raises(ValueError):
            estimate_moments(Ensemble(GridTopology(2, 2), [[1.0, 2.0, 3.0, 4.0]]))

    def test_centred_in_place_with_the_bits_of_a_separate_quotient(self):
        t = GridTopology(64, 64)
        e = Ensemble(t, np.random.default_rng(4).normal(size=(50, t.n)))
        tracemalloc.start()
        try:
            model = estimate_moments(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The factor is the only member-sized array made: 1.15 values
        # measured, 2.02 when the quotient was a second array; bound 1.25.
        assert peak <= 1.25 * e.values.nbytes, peak / e.values.nbytes
        quotient = (e.values - e.values.mean(axis=0)).T / np.sqrt(e.m - 1)
        assert model.factor.strides == quotient.strides
        assert model.factor.tobytes("A") == quotient.tobytes("A")

    def test_factor_has_one_column_per_member(self):
        t = GridTopology(2, 3)
        members = np.random.default_rng(2).normal(size=(5, 6))
        model = estimate_moments(Ensemble(t, members))
        assert model.factor.shape == (6, 5)
        assert model.rank_bound == 5


class TestMomentModel:
    def test_shape_validation(self):
        t = GridTopology(2, 2)
        with pytest.raises(ValueError):
            MomentModel(t, np.zeros(3), np.zeros((4, 1)))
        with pytest.raises(ValueError):
            MomentModel(t, np.zeros(4), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            MomentModel(t, np.zeros(4), np.zeros((4, 0)))

    def test_non_finite_rejected(self):
        t = GridTopology(2, 2)
        mean = np.zeros(4)
        factor = np.zeros((4, 1))
        factor[0, 0] = np.inf
        with pytest.raises(ValueError):
            MomentModel(t, mean, factor)


# --- sampling -----------------------------------------------------------------

class TestSampleEnsemble:
    def test_zero_factor_reproduces_mean(self):
        t = GridTopology(2, 2)
        mean = np.array([5.0, -1.0, 0.25, 9.0])
        model = MomentModel(t, mean, np.zeros((4, 2)))
        e = sample_ensemble(model, 6, seed=3)
        assert np.array_equal(e.values, np.tile(mean, (6, 1)))

    def test_same_seed_gives_identical_bytes(self):
        model = _random_model()
        b1 = ensemble_bytes(sample_ensemble(model, 5, seed=42))
        b2 = ensemble_bytes(sample_ensemble(model, 5, seed=42))
        assert b1 == b2

    def test_different_seeds_differ(self):
        model = _random_model()
        a = sample_ensemble(model, 5, seed=1).values
        b = sample_ensemble(model, 5, seed=2).values
        assert not np.array_equal(a, b)

    def test_member_depends_only_on_seed_and_index(self):
        # parallel-substream contract: a prefix draw equals the larger draw
        model = _random_model()
        small = sample_ensemble(model, 3, seed=7).values
        large = sample_ensemble(model, 10, seed=7).values
        assert np.array_equal(small, large[:3])
        assert np.array_equal(sample_ensemble(model, 1, seed=7).values, large[:1])

    def test_constant_shift_moves_members_exactly(self):
        model = _random_model()
        shifted = MomentModel(model.topology, model.mean + 0.75, model.factor)
        a = sample_ensemble(model, 4, seed=9).values
        b = sample_ensemble(shifted, 4, seed=9).values
        assert np.allclose(b - a, 0.75, atol=1e-12)

    def test_large_draw_moments_converge(self):
        t = GridTopology(2, 2)
        model = estimate_moments(Ensemble(t, [[0.0] * 4, [2.0] * 4]))
        e = sample_ensemble(model, 100_000, seed=9)
        sigma = np.sqrt(2.0)
        tol = 4.0 * sigma / np.sqrt(e.m)
        assert np.all(np.abs(e.values.mean(axis=0) - model.mean) < tol)
        cov = np.cov(e.values.T, ddof=1)
        target = model.factor @ model.factor.T
        # var of a covariance entry is ~ (cov_pp cov_qq + cov_pq^2) / N
        cov_tol = 4.0 * np.sqrt(
            (np.outer(np.diag(target), np.diag(target)) + target ** 2) / e.m)
        assert np.all(np.abs(cov - target) < cov_tol)

    def test_invalid_inputs(self):
        model = _random_model()
        with pytest.raises(ValueError):
            sample_ensemble(model, 0, seed=1)
        with pytest.raises(ValueError):
            sample_ensemble(model, 3, seed=-1)
        with pytest.raises(ValueError):
            sample_ensemble(model, 3, seed=1 << 64)
        with pytest.raises(ValueError):
            sample_ensemble(model, 3, seed=0.5)

    def test_bool_size_rejected(self):
        # True would otherwise draw a 1-member ensemble.
        with pytest.raises(ValueError, match="m_out must be an integer, got True"):
            sample_ensemble(_random_model(), True)


def box_muller_stream(seed: int, stop: int, r: int) -> np.ndarray:
    """Members 0..stop-1 of stream version 2, read from the stream's start.

    No counter jump and no chunking: the whole Philox stream keyed
    [seed, 0] is drawn, cut into blocks of B = r rounded up to a multiple
    of 4 uniforms, and each block's halves become radii and angles.
    """
    width = -(-r // 4) * 4
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    u = rng.random(stop * width).reshape(stop, width)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, :width // 2]))
    angle = 2.0 * np.pi * u[:, width // 2:]
    return np.hstack([radius * np.cos(angle), radius * np.sin(angle)])[:, :r]


class TestMemberStream:
    """Member k is Box-Muller over uniforms [k*B, (k+1)*B) of Philox [seed, 0]."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 21])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_rows_equal_box_muller_over_one_stream(self, seed, r):
        # Zero mean and the first r identity columns as factor: the drawn
        # members are the normals, padded with zeros.
        t = GridTopology(5, 5)
        model = MomentModel(t, np.zeros(t.n), np.eye(t.n)[:, :r])
        chunk = _member_chunk(t.n)
        start, stop = chunk - 3, chunk + 3
        drawn = _draw_members(model, start, stop, seed)
        expected = box_muller_stream(seed, stop, r)
        assert np.array_equal(drawn[:, :r], expected[start:])
        assert not drawn[:, r:].any()
        assert np.array_equal(
            sample_ensemble(model, stop, seed).values[start:], drawn)

    @pytest.mark.parametrize("a, b, c", [(0, 5, 11), (3, 6, 13), (1, 2, 3), (2, 7, 30)])
    def test_split_draw_equals_whole_draw(self, a, b, c):
        model = _random_model()
        parts = np.vstack([_draw_members(model, a, b, 5), _draw_members(model, b, c, 5)])
        assert np.array_equal(parts, _draw_members(model, a, c, 5))

    def test_normals_pass_kolmogorov_smirnov(self):
        stats = pytest.importorskip("scipy.stats")
        t = GridTopology(5, 4)
        model = MomentModel(t, np.zeros(t.n), np.eye(t.n))
        normals = _draw_members(model, 0, 10_000, 12).ravel()
        assert normals.size == 200_000
        assert stats.kstest(normals, "norm").pvalue > 1e-3


def _random_model(seed: int = 11) -> MomentModel:
    t = GridTopology(3, 3)
    members = np.random.default_rng(seed).normal(size=(4, 9))
    return estimate_moments(Ensemble(t, members))


# --- ground truth -----------------------------------------------------------

class TestGroundTruth:
    def test_zero_factor_interior_maximum(self):
        t = GridTopology(3, 3)
        mean = np.zeros(9)
        mean[t.linear(1, 1)] = 5.0
        model = MomentModel(t, mean, np.zeros((9, 1)))
        table = ground_truth_probabilities(model, 17, seed=0)
        hat = table[:, 0]
        assert table.shape == (3, 3, 9)
        center = t.linear(1, 1)
        assert hat[1, center] == 1.0
        assert hat[0, center] == 0.0
        assert hat[2, center] == 0.0
        # deterministic fields classify identically in every draw
        types = classify_field(mean, t)
        for v in range(t.n):
            assert hat[0, v] == float(types[v] == CriticalType.MINIMUM)
            assert hat[1, v] == float(types[v] == CriticalType.MAXIMUM)
            assert hat[2, v] == float(types[v] == CriticalType.SADDLE)

    def test_large_draw_intervals_are_narrow(self):
        model = _random_model()
        table = ground_truth_probabilities(model, 100_000, seed=1)
        widths = table[:, 2] - table[:, 1]
        assert widths.max() <= 0.02

    def test_same_seed_identical(self):
        model = _random_model()
        s1 = ground_truth_probabilities(model, 500, seed=4)
        s2 = ground_truth_probabilities(model, 500, seed=4)
        assert np.array_equal(s1, s2)

    def test_counts_match_plain_classification(self):
        model = _random_model()
        n_draws = 300
        table = ground_truth_probabilities(model, n_draws, seed=6)
        members = sample_ensemble(model, n_draws, seed=6).values
        t = model.topology
        for v in range(t.n):
            per_member = [classify_field(member, t)[v] for member in members]
            c_min = sum(c == CriticalType.MINIMUM for c in per_member)
            assert table[0, 0, v] == pytest.approx(c_min / n_draws)

    def test_result_independent_of_chunk_size(self, monkeypatch):
        model = _random_model()
        base = ground_truth_probabilities(model, 50, seed=6)
        monkeypatch.setattr("cpci.synth._member_chunk", lambda n: 7)
        chunked = ground_truth_probabilities(model, 50, seed=6)
        assert np.array_equal(chunked, base)

    def test_peak_memory_within_a_few_chunks(self):
        # One chunk's (k, n) float64 values is the floor; the kernel's
        # workspace and the sampler's (k, B) buffers add to it, but no
        # second (k, n) float64 array may.
        t = GridTopology(16, 16)
        members = np.random.default_rng(3).normal(size=(21, t.n))
        model = estimate_moments(Ensemble(t, members))
        assert model.rank_bound == 21
        # Fill the Jeffreys-bound cache first: tracemalloc slows its pure
        # Python quantile search more than tenfold.
        ground_truth_probabilities(model, 20_000, seed=1)
        tracemalloc.start()
        try:
            ground_truth_probabilities(model, 20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk_bytes = _member_chunk(t.n) * t.n * 8
        assert peak <= 2.75 * chunk_bytes, peak / chunk_bytes
        # Absolute, whatever the chunk rule: 2.39 MiB measured (18.13 MiB
        # under the earlier 10^6 member-vertex chunks); bound 3 MiB.
        assert peak <= 3 * 2 ** 20, peak / 2 ** 20

    def test_gamma_passthrough(self):
        model = _random_model()
        level = ConfidenceLevel(0.5)
        table = ground_truth_probabilities(model, 100, seed=2, level=level)
        counts = np.rint(table[:, 0] * 100).astype(int)
        assert np.array_equal(table, summarize(counts, 100, level))
        assert not np.array_equal(table, summarize(counts, 100))

    @pytest.mark.parametrize("nx, ny", [(1, 5), (5, 1)])
    def test_single_row_or_column_rejected(self, nx, ny):
        t = GridTopology(nx, ny)
        model = MomentModel(t, np.zeros(t.n), np.ones((t.n, 1)))
        with pytest.raises(ValueError, match="2x2"):
            ground_truth_probabilities(model, 10, seed=0)

    def test_invalid_draws(self):
        with pytest.raises(ValueError):
            ground_truth_probabilities(_random_model(), 0, seed=1)

    def test_fractional_draws_rejected(self):
        with pytest.raises(ValueError, match="n_draws must be an integer, got 10.5"):
            ground_truth_probabilities(_random_model(), 10.5)

    @pytest.mark.filterwarnings("error")
    def test_draws_that_overflow_rejected(self):
        # Finite factor columns whose sums are not: the draws hold +-inf and
        # NaN, which the classification kernel must never see.  The overflow
        # is the ValueError alone, with no numpy warning before it.
        t = GridTopology(3, 3)
        model = MomentModel(t, np.zeros(t.n), np.tile([1e308, -1e308], (t.n, 1)))
        with pytest.raises(ValueError, match="overflow float64"):
            ground_truth_probabilities(model, 1000, seed=0)
        with pytest.raises(ValueError, match="overflow float64"):
            sample_ensemble(model, 1000, seed=0)


# --- model persistence ---------------------------------------------------------

class TestMomentModelIO:
    def test_roundtrip_is_exact(self):
        model = _random_model()
        sink = io.BytesIO()
        save_moment_model(model, sink)
        back = load_moment_model(io.BytesIO(sink.getvalue()))
        assert back.topology == model.topology
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.factor, model.factor)
        # the sampler's `z @ factor.T` is bit-identical only for this layout
        assert back.factor.flags.c_contiguous

    def test_header_and_magic(self):
        model = _random_model()
        sink = io.BytesIO()
        save_moment_model(model, sink)
        lines = sink.getvalue().decode().splitlines()
        assert lines[0] == "MMF1"
        assert lines[1] == "3 3 4"

    def test_bad_magic_rejected(self):
        with pytest.raises(ParseError, match="magic"):
            load_moment_model(io.BytesIO(b"EGF1\n2 2 1\n0 0\n0 0\n"))

    def test_truncated_factor_block(self):
        data = b"MMF1\n2 2 2\n0 0\n0 0\n1 0\n0 1\n"
        with pytest.raises(ParseError, match="unexpected end"):
            load_moment_model(io.BytesIO(data))

    def test_trailing_content_rejected(self):
        data = b"MMF1\n2 2 1\n0 0\n0 0\n1 0\n0 1\n9 9\n"
        with pytest.raises(ParseError, match="trailing"):
            load_moment_model(io.BytesIO(data))
