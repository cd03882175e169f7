import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from cpci import stats
from cpci.stats import (
    ConfidenceLevel,
    CoverageReport,
    DEFAULT_LEVEL,
    IntervalEstimate,
    beta_quantile,
    coverage_experiment,
    jeffreys_interval,
    point_estimate,
    regularized_incomplete_beta,
    summarize,
)


# --- independent oracle -------------------------------------------------
# Beta CDF by Gauss-Legendre quadrature under the substitution t = sin^2(s),
# which removes the endpoint singularities for shape parameters >= 1/2:
#   integral of t^(a-1) (1-t)^(b-1) dt  ->  2 sin(s)^(2a-1) cos(s)^(2b-1) ds.
# Normalizing by the full-range integral avoids any gamma-function code, so
# the oracle shares nothing with the library kernel.

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(400)


def _quad(lo: float, hi: float, a: float, b: float) -> float:
    s = 0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo)
    f = 2.0 * np.sin(s) ** (2 * a - 1) * np.cos(s) ** (2 * b - 1)
    return 0.5 * (hi - lo) * float(np.dot(_WEIGHTS, f))


def oracle_beta_cdf(x: float, a: float, b: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    phi = math.asin(math.sqrt(x))
    return _quad(0.0, phi, a, b) / _quad(0.0, math.pi / 2, a, b)


def oracle_beta_quantile(q: float, a: float, b: float) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if oracle_beta_cdf(mid, a, b) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_oracle_self_check():
    # uniform distribution and an exact power law validate the oracle itself
    assert oracle_beta_cdf(0.3, 1, 1) == pytest.approx(0.3, abs=1e-13)
    assert oracle_beta_cdf(0.25, 2, 1) == pytest.approx(0.0625, abs=1e-13)
    assert oracle_beta_quantile(0.25, 2, 1) == pytest.approx(0.5, abs=1e-12)


# --- regularized incomplete beta ----------------------------------------

class TestIncompleteBeta:
    def test_uniform_identity(self):
        for x in (0.0, 0.3, 1.0):
            assert regularized_incomplete_beta(x, 1, 1) == pytest.approx(x, abs=1e-14)

    def test_symmetric_midpoint(self):
        for a in (0.5, 5.5, 50.5):
            assert regularized_incomplete_beta(0.5, a, a) == pytest.approx(
                0.5, abs=1e-12)

    def test_power_law(self):
        assert regularized_incomplete_beta(0.25, 2, 1) == pytest.approx(
            0.0625, abs=1e-13)
        for x in (0.1, 0.5, 0.9):
            assert regularized_incomplete_beta(x, 3, 1) == pytest.approx(
                x ** 3, abs=1e-13)

    def test_reflection_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = 10 ** rng.uniform(-1, 3)
            b = 10 ** rng.uniform(-1, 3)
            x = rng.uniform(0, 1)
            left = regularized_incomplete_beta(x, a, b)
            right = 1.0 - regularized_incomplete_beta(1.0 - x, b, a)
            assert left == pytest.approx(right, abs=1e-12)

    def test_matches_quadrature_oracle(self):
        for a in (0.5, 1.5, 2.0, 9.5, 50.5, 100.5):
            for b in (0.5, 1.5, 2.0, 9.5, 50.5, 100.5):
                for x in (0.01, 0.2, 0.5, 0.8, 0.99):
                    assert regularized_incomplete_beta(x, a, b) == pytest.approx(
                        oracle_beta_cdf(x, a, b), abs=1e-12), (x, a, b)

    def test_monotone_in_x(self):
        xs = np.linspace(0, 1, 101)
        values = [regularized_incomplete_beta(x, 2.5, 7.5) for x in xs]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_endpoints(self):
        assert regularized_incomplete_beta(0.0, 3, 4) == 0.0
        assert regularized_incomplete_beta(1.0, 3, 4) == 1.0

    @pytest.mark.parametrize("x,a,b", [(-0.1, 1, 1), (1.1, 1, 1), (0.5, 0, 1),
                                       (0.5, 1, -2), (0.5, math.nan, 1)])
    def test_domain_errors(self, x, a, b):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(x, a, b)


# --- beta quantile --------------------------------------------------------

class TestBetaQuantile:
    def test_uniform_identity(self):
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert beta_quantile(q, 1, 1) == pytest.approx(q, abs=1e-12)

    def test_symmetric_median(self):
        for a in (0.5, 5.5, 50.5):
            assert beta_quantile(0.5, a, a) == pytest.approx(0.5, abs=1e-12)

    def test_power_law_inverse(self):
        assert beta_quantile(0.25, 2, 1) == pytest.approx(0.5, abs=1e-12)

    def test_roundtrip_q_space(self):
        for q in (0.005, 0.025, 0.5, 0.975, 0.995):
            for a in (0.5, 1.5, 9.5, 50.5, 100.5):
                for b in (0.5, 1.5, 9.5, 50.5, 100.5):
                    x = beta_quantile(q, a, b)
                    assert regularized_incomplete_beta(x, a, b) == pytest.approx(
                        q, abs=1e-9), (q, a, b)

    def test_matches_bisection_oracle(self):
        for q in (0.025, 0.5, 0.975):
            for a in (0.5, 2.5, 9.5):
                for b in (0.5, 2.5, 9.5):
                    assert beta_quantile(q, a, b) == pytest.approx(
                        oracle_beta_quantile(q, a, b), abs=1e-9), (q, a, b)

    def test_frozen_boundary_constant(self):
        # upper bound of the zero-count interval at m=9, gamma=0.95;
        # reference value from the quadrature + bisection oracle
        assert beta_quantile(0.975, 0.5, 9.5) == pytest.approx(
            0.23761009863290306, abs=1e-12)

    def test_monotone_in_q(self):
        qs = np.linspace(0.001, 0.999, 97)
        xs = [beta_quantile(q, 3.5, 6.5) for q in qs]
        assert all(x2 >= x1 for x1, x2 in zip(xs, xs[1:]))

    def test_endpoints(self):
        assert beta_quantile(0.0, 2, 3) == 0.0
        assert beta_quantile(1.0, 2, 3) == 1.0

    @pytest.mark.parametrize("q,a,b", [(-0.01, 1, 1), (1.01, 1, 1), (0.5, 0, 1),
                                       (0.5, 1, 0), (math.nan, 1, 1)])
    def test_domain_errors(self, q, a, b):
        with pytest.raises(ValueError):
            beta_quantile(q, a, b)

    def test_residual_below_tolerance_across_domain(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            a = 10 ** rng.uniform(math.log10(0.5), 3)
            b = 10 ** rng.uniform(math.log10(0.5), 3)
            q = rng.uniform(0.005, 0.995)
            x = beta_quantile(q, a, b)
            assert abs(regularized_incomplete_beta(x, a, b) - q) <= 1e-10


# --- levels and estimates -------------------------------------------------

class TestConfidenceLevel:
    def test_alpha(self):
        assert ConfidenceLevel(0.95).alpha == pytest.approx(0.05)
        assert DEFAULT_LEVEL.gamma == 0.95

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_invalid_gamma(self, gamma):
        with pytest.raises(ValueError):
            ConfidenceLevel(gamma)


class TestIntervalEstimate:
    def test_width(self):
        est = IntervalEstimate(0.5, 0.2, 0.9)
        assert est.width == pytest.approx(0.7)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 0.9, 0.2)

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            IntervalEstimate(1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, -0.1, 1.0)

    def test_count_consistency(self):
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 0.2, 0.9, c=10, m=9)


class TestPointEstimate:
    def test_fraction(self):
        assert point_estimate(3, 9) == pytest.approx(1 / 3)
        assert point_estimate(0, 7) == 0.0
        assert point_estimate(7, 7) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            point_estimate(5, 0)
        with pytest.raises(ValueError):
            point_estimate(10, 9)
        with pytest.raises(ValueError):
            point_estimate(-1, 9)
        # Not truncated: a float, even a whole one, or a bool is not a count.
        for c, m in ((2.5, 5), (2.0, 5), (2, 5.0), (True, 5), (1, True)):
            with pytest.raises(ValueError, match="must be an integer"):
                point_estimate(c, m)


# --- Jeffreys intervals -----------------------------------------------------

class TestJeffreysInterval:
    def test_zero_count_pins_lower_to_zero(self):
        est = jeffreys_interval(0, 9)
        assert est.p_lower == 0.0
        assert est.p_hat == 0.0
        assert est.p_upper == pytest.approx(0.23761009863290306, abs=1e-12)

    def test_full_count_pins_upper_to_one(self):
        est = jeffreys_interval(9, 9)
        assert est.p_upper == 1.0
        assert est.p_hat == 1.0
        assert est.p_lower == pytest.approx(
            beta_quantile(0.025, 9.5, 0.5), abs=1e-15)

    def test_frozen_interval_3_of_9(self):
        est = jeffreys_interval(3, 9)
        assert est.p_lower == pytest.approx(0.10421322166077421, abs=1e-12)
        assert est.p_upper == pytest.approx(0.65220820652773410, abs=1e-12)

    def test_central_count_is_symmetric(self):
        for m in (8, 50):
            est = jeffreys_interval(m // 2, m)
            assert est.p_lower == pytest.approx(1.0 - est.p_upper, abs=1e-12)

    def test_matches_oracle_quantiles(self):
        for c, m in ((1, 9), (5, 9), (10, 49)):
            est = jeffreys_interval(c, m)
            assert est.p_lower == pytest.approx(
                oracle_beta_quantile(0.025, c + 0.5, m - c + 0.5), abs=1e-9)
            assert est.p_upper == pytest.approx(
                oracle_beta_quantile(0.975, c + 0.5, m - c + 0.5), abs=1e-9)

    @pytest.mark.parametrize("m", [9, 49, 100])
    def test_equitailed_to_1e9(self, m):
        for c in range(1, m):
            est = jeffreys_interval(c, m)
            a, b = c + 0.5, m - c + 0.5
            assert regularized_incomplete_beta(est.p_lower, a, b) == pytest.approx(
                0.025, abs=1e-9)
            assert regularized_incomplete_beta(est.p_upper, a, b) == pytest.approx(
                0.975, abs=1e-9)

    @pytest.mark.parametrize("m", [9, 49, 100])
    def test_bounds_nondecreasing_in_count(self, m):
        estimates = [jeffreys_interval(c, m) for c in range(m + 1)]
        for e1, e2 in zip(estimates, estimates[1:]):
            assert e2.p_lower >= e1.p_lower
            assert e2.p_upper >= e1.p_upper

    def test_containment_sweep(self):
        for gamma in (0.95, 0.99):
            level = ConfidenceLevel(gamma)
            for m in range(1, 201):
                for c in range(m + 1):
                    est = jeffreys_interval(c, m, level)
                    assert est.p_lower <= c / m <= est.p_upper, (c, m, gamma)

    def test_carries_count_and_size(self):
        est = jeffreys_interval(4, 11)
        assert (est.c, est.m) == (4, 11)

    def test_level_type_checked(self):
        with pytest.raises(ValueError):
            jeffreys_interval(3, 9, level=0.95)

    def test_count_and_size_must_be_integers(self):
        # p_hat used to divide 2.5 / 5 while the bounds were those of c = 2.
        with pytest.raises(ValueError, match="count c must be an integer, got 2.5"):
            jeffreys_interval(2.5, 5)
        with pytest.raises(ValueError, match="ensemble size must be an integer, got 5.0"):
            jeffreys_interval(2, 5.0)
        with pytest.raises(ValueError, match="count c must be an integer, got False"):
            jeffreys_interval(False, 5)
        est, ref = jeffreys_interval(np.int64(2), np.int32(5)), jeffreys_interval(2, 5)
        assert (est.p_hat, est.p_lower, est.p_upper) == (0.4, ref.p_lower, ref.p_upper)


# --- summaries ---------------------------------------------------------------

class TestSummarize:
    def test_all_zero_counts(self):
        table = summarize(np.zeros((3, 1), dtype=int), 5)
        assert table.shape == (3, 3, 1)
        assert (table[:, 0] == 0.0).all()
        assert (table[:, 1] == 0.0).all()

    def test_full_minimum_count(self):
        table = summarize(np.array([[5], [0], [0]]), 5)
        assert table[0, 0, 0] == 1.0
        assert table[0, 2, 0] == 1.0

    def test_components_equal_direct_calls(self):
        table = summarize(np.array([[2], [1], [0]]), 9)
        for row, c in enumerate((2, 1, 0)):
            est = jeffreys_interval(c, 9)
            assert tuple(table[row, :, 0]) == (est.p_hat, est.p_lower, est.p_upper)

    def test_estimates_share_m(self):
        counts = np.array([[1, 0], [2, 9], [3, 0]])
        table = summarize(counts, 9)
        assert np.array_equal(table[:, 0], counts / 9)

    @pytest.mark.parametrize("gamma", [0.5, 0.95, 0.999])
    @pytest.mark.parametrize("m", [1, 9, 50, 100_000])
    def test_every_entry_equals_scalar_interval(self, m, gamma):
        rng = np.random.default_rng([m, int(gamma * 1000)])
        counts = rng.integers(0, m + 1, size=(3, 40))
        counts[:, :2] = [[0, m], [m, 0], [0, 0]]        # both pins at every m
        over = counts.sum(axis=0) > m
        counts[:, over] = counts[:, over] // 3           # keep per-vertex sums <= m
        level = ConfidenceLevel(gamma)
        table = summarize(counts, m, level)
        assert table.dtype == np.float64 and table.shape == (3, 3, 40)
        for row in range(3):
            for v in range(40):
                c = int(counts[row, v])
                est = jeffreys_interval(c, m, level)
                assert table[row, 0, v] == point_estimate(c, m) == est.p_hat
                assert (table[row, 1, v], table[row, 2, v]) == (est.p_lower, est.p_upper)

    def test_rejects_invalid_counts(self):
        summarize(np.array([[1], [2], [3]]), 9)
        with pytest.raises(ValueError, match="ensemble size"):
            summarize(np.array([[0], [0], [0]]), 0)
        with pytest.raises(ValueError, match="c_min=-1 at vertex 0 outside"):
            summarize(np.array([[-1], [0], [0]]), 9)
        with pytest.raises(ValueError, match="c_saddle=10 at vertex 1 outside"):
            summarize(np.array([[0, 0], [0, 0], [0, 10]]), 9)
        with pytest.raises(ValueError, match="exceed ensemble size 9"):
            summarize(np.array([[4], [4], [4]]), 9)
        for m in (2.5, 9.0, True):
            with pytest.raises(ValueError, match="ensemble size must be an integer"):
                summarize(np.array([[1], [0], [0]]), m)
        assert summarize(np.array([[1], [0], [0]]), np.int64(9))[0, 0, 0] == 1 / 9

    def test_rejects_bad_shape_or_level(self):
        with pytest.raises(ValueError, match=r"\(3, n\) integer"):
            summarize(np.zeros((2, 4), dtype=int), 9)
        with pytest.raises(ValueError, match=r"\(3, n\) integer"):
            summarize(np.zeros((3, 4)), 9)
        with pytest.raises(ValueError, match="ConfidenceLevel"):
            summarize(np.zeros((3, 4), dtype=int), 9, 0.95)


# --- coverage experiment -------------------------------------------------------

class TestCoverageExperiment:
    def test_zero_probability_always_covered(self):
        report = coverage_experiment(0.0, 9, reps=500, seed=1)
        assert report.empirical_coverage == 1.0

    def test_deterministic_for_seed(self):
        r1 = coverage_experiment(0.3, 20, reps=1000, seed=5)
        r2 = coverage_experiment(0.3, 20, reps=1000, seed=5)
        assert r1 == r2

    def test_central_case_within_band(self):
        report = coverage_experiment(0.5, 49, reps=10_000, seed=0)
        assert 0.91 <= report.empirical_coverage <= 0.99

    def test_matches_per_replication_recount(self):
        p, m, reps, seed = 0.3, 9, 200, 7
        report = coverage_experiment(p, m, reps=reps, seed=seed)
        rng = np.random.default_rng(seed)
        hits = 0
        width_total = 0.0
        for _ in range(reps):
            c = int(rng.binomial(m, p))
            est = jeffreys_interval(c, m)
            hits += est.p_lower <= p <= est.p_upper
            width_total += est.width
        assert report.hits == hits
        assert report.empirical_coverage == pytest.approx(hits / reps, abs=0)
        assert report.mean_width == pytest.approx(width_total / reps, rel=1e-12)

    @pytest.mark.parametrize("p, m", [(0.05, 9), (0.5, 49), (0.3, 1000)])
    def test_chunked_draw_equals_one_whole_draw(self, p, m):
        # 1000 draws in chunks of 7 end in a short chunk.
        reps, seed = 1000, 11
        with mock.patch.object(stats, "_DRAW_CHUNK", 7):
            report = coverage_experiment(p, m, reps=reps, seed=seed)
        draws = np.random.default_rng(seed).binomial(m, p, size=reps)
        hits, width_total = 0, 0.0
        for c, frequency in enumerate(np.bincount(draws, minlength=m + 1).tolist()):
            if frequency:
                est = jeffreys_interval(c, m)
                hits += frequency * (est.p_lower <= p <= est.p_upper)
                width_total += frequency * est.width
        assert report.hits == hits
        assert report.mean_width == width_total / reps

    def test_memory_does_not_grow_with_reps(self):
        # Four chunks of draws measured 8.7 MiB, about one chunk of int64
        # counts; one whole draw of them would take 32 MiB.
        reps = 4 * stats._DRAW_CHUNK
        tracemalloc.start()
        try:
            coverage_experiment(0.3, 49, reps=reps, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * stats._DRAW_CHUNK

    def test_rejects_level_that_is_not_a_confidence_level(self):
        # The same input error as `summarize` and `jeffreys_interval`.
        with pytest.raises(ValueError, match="level must be a ConfidenceLevel, got 0.95"):
            coverage_experiment(0.3, 9, 0.95)

    def test_reports_inputs(self):
        report = coverage_experiment(0.25, 12, ConfidenceLevel(0.99), reps=100, seed=3)
        assert (report.p_true, report.m, report.gamma, report.reps) == (
            0.25, 12, 0.99, 100)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            coverage_experiment(1.5, 9)
        with pytest.raises(ValueError):
            coverage_experiment(0.5, 0)
        with pytest.raises(ValueError):
            coverage_experiment(0.5, 9, reps=0)
        for m in (9.5, 9.0, True):
            with pytest.raises(ValueError, match="ensemble size must be an integer"):
                coverage_experiment(0.3, m)

    def test_fractional_reps_rejected(self):
        with pytest.raises(ValueError, match="reps must be an integer, got 10.5"):
            coverage_experiment(0.3, 9, reps=10.5)

    def test_bool_reps_rejected(self):
        # True would otherwise run one draw.
        with pytest.raises(ValueError, match="reps must be an integer, got True"):
            coverage_experiment(0.3, 9, reps=True)

    def test_fractional_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            coverage_experiment(0.3, 9, seed=1.5)

    def test_hits_bounded(self):
        with pytest.raises(ValueError):
            CoverageReport(0.5, 9, 0.95, 10, 11, 1.1, 0.1)
