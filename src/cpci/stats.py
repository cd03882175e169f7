"""Binomial point estimates, Jeffreys intervals, and coverage validation.

`jeffreys_interval` is the scalar API for one count; `summarize` turns a
(3, n) array of per-vertex type counts into one (3, 3, n) float table
indexed [type (min, max, sad), stat (hat, lo, hi), vertex], evaluating
the quantiles once per distinct count.

The Beta special-function kernel is self-contained: the regularized
incomplete beta function I_x(a, b) is evaluated with the standard
continued fraction (modified Lentz iteration) behind the symmetry
switch at x = (a+1)/(a+b+2), and the quantile inverts it with
bisection-safeguarded Newton steps converging in q-space.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from statistics import NormalDist

import numpy as np

__all__ = [
    "ConfidenceLevel",
    "IntervalEstimate",
    "CoverageReport",
    "DEFAULT_LEVEL",
    "regularized_incomplete_beta",
    "beta_quantile",
    "point_estimate",
    "jeffreys_interval",
    "summarize",
    "coverage_experiment",
]

_CF_TINY = 1e-300        # Lentz floor for vanishing denominators
_CF_EPS = 1e-15          # continued-fraction relative convergence
_CF_MAX_ITER = 2000      # ample for a, b well beyond 1e4
_Q_TOL = 1e-12           # quantile convergence, measured in q-space
_Q_MAX_ITER = 200
_COUNT_NAMES = ("c_min", "c_max", "c_saddle")
_DRAW_CHUNK = 1 << 20    # coverage counts drawn at a time, so memory is O(m), not O(reps)
_SEED_MAX = 1 << 64


@dataclass(frozen=True)
class ConfidenceLevel:
    """Two-sided confidence level gamma in (0, 1); alpha = 1 - gamma."""

    gamma: float = 0.95

    def __post_init__(self):
        if not (isinstance(self.gamma, (int, float)) and 0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma!r}")

    @property
    def alpha(self) -> float:
        return 1.0 - self.gamma


DEFAULT_LEVEL = ConfidenceLevel(0.95)


@dataclass(frozen=True)
class IntervalEstimate:
    """Point estimate and equitailed interval for one occurrence probability.

    `c` and `m` are the generating count and ensemble size where known.
    """

    p_hat: float
    p_lower: float
    p_upper: float
    c: int | None = None
    m: int | None = None

    def __post_init__(self):
        for name in ("p_hat", "p_lower", "p_upper"):
            p = getattr(self, name)
            if not (math.isfinite(p) and 0.0 <= p <= 1.0):
                raise ValueError(f"{name}={p!r} is not a probability")
        if self.p_lower > self.p_upper:
            raise ValueError(
                f"p_lower={self.p_lower} exceeds p_upper={self.p_upper}")
        if self.m is not None and self.c is not None and not 0 <= self.c <= self.m:
            raise ValueError(f"count c={self.c} outside [0, m={self.m}]")

    @property
    def width(self) -> float:
        return self.p_upper - self.p_lower


@dataclass(frozen=True)
class CoverageReport:
    """Result of one Monte-Carlo coverage experiment."""

    p_true: float
    m: int
    gamma: float
    reps: int
    hits: int
    empirical_coverage: float
    mean_width: float

    def __post_init__(self):
        if not 0 <= self.hits <= self.reps:
            raise ValueError(f"hits={self.hits} outside [0, reps={self.reps}]")


def _check_shape(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"shape parameter {name}={value!r} must be finite and > 0")
    return value


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name}={value!r} must lie in [0, 1]")
    return value


def _check_integer(name: str, value) -> None:
    # A float or bool would be truncated in one place and divided raw in another.
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_seed(seed: int) -> int:
    _check_integer("seed", seed)
    if not 0 <= seed < _SEED_MAX:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return int(seed)


def _check_size(name: str, value) -> None:
    _check_integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _check_level(level) -> None:
    if not isinstance(level, ConfidenceLevel):
        raise ValueError(f"level must be a ConfidenceLevel, got {level!r}")


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for I_x(a, b), by the modified Lentz algorithm.

    The caller multiplies by x^a (1-x)^b / (a B(a, b)); convergence needs
    roughly sqrt(max(a, b)) iterations near the symmetry switch.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for k in range(1, _CF_MAX_ITER + 1):
        k2 = 2 * k
        aa = k * (b - k) * x / ((qam + k2) * (a + k2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + k) * (qab + k) * x / ((a + k2) * (qap + k2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def _ibeta(x: float, a: float, b: float, log_beta: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = a * math.log(x) + b * math.log1p(-x) - log_beta
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        value = front * _beta_cf(a, b, x) / a
    else:
        value = 1.0 - front * _beta_cf(b, a, 1.0 - x) / b
    return min(max(value, 0.0), 1.0)


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b), the Beta(a, b) CDF at x.

    Absolute error is held near 1e-13 for shape parameters up to 1e4.
    """
    x = _check_unit("x", x)
    a = _check_shape("a", a)
    b = _check_shape("b", b)
    return _ibeta(x, a, b, _log_beta(a, b))


def _quantile_start(q: float, a: float, b: float) -> float:
    """Initial guess for the quantile (normal approximation of AS 26.5.22),
    falling back to the mean near the a, b <= 1 parameter edge."""
    if a > 1.0 and b > 1.0:
        z = -NormalDist().inv_cdf(q)
        lam = (z * z - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = (z * math.sqrt(h + lam) / h
             - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0))
             * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h)))
        try:
            x = a / (a + b * math.exp(2.0 * w))
        except OverflowError:
            x = a / (a + b)
    else:
        x = a / (a + b)
    return min(max(x, 1e-15), 1.0 - 1e-15)


def beta_quantile(q: float, a: float, b: float) -> float:
    """Inverse of I_x(a, b): x with |I_x(a, b) - q| held below 1e-10.

    Newton iteration from a normal-approximation start, kept inside an
    always-shrinking bisection bracket; capped at 200 steps.  Where the
    root hugs 0 or 1 so tightly that neighbouring doubles straddle more
    than the tolerance, the nearest representable value is returned.
    """
    q = _check_unit("q", q)
    a = _check_shape("a", a)
    b = _check_shape("b", b)
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    log_beta = _log_beta(a, b)
    lo, hi = 0.0, 1.0
    x = _quantile_start(q, a, b)
    best_x, best_err = x, math.inf
    for _ in range(_Q_MAX_ITER):
        residual = _ibeta(x, a, b, log_beta) - q
        if abs(residual) < best_err:
            best_x, best_err = x, abs(residual)
        if best_err <= _Q_TOL:
            break
        if residual > 0.0:
            hi = x
        else:
            lo = x
        step = None
        if 0.0 < x < 1.0:
            log_pdf = (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_beta
            if log_pdf > -700.0:
                step = x - residual / math.exp(log_pdf)
        if step is None or not lo < step < hi:
            step = 0.5 * (lo + hi)
        if step == x:
            break
        x = step
    return best_x


def point_estimate(c: int, m: int) -> float:
    """Occurrence probability estimate c/m."""
    _check_integer("count c", c)
    _check_size("ensemble size", m)
    if not 0 <= c <= m:
        raise ValueError(f"count c={c} outside [0, m={m}]")
    return c / m


@lru_cache(maxsize=1 << 16)
def _jeffreys_bounds(c: int, m: int, gamma: float) -> tuple[float, float]:
    half_alpha = 0.5 * (1.0 - gamma)
    a1 = c + 0.5
    a2 = m - c + 0.5
    lower = 0.0 if c == 0 else beta_quantile(half_alpha, a1, a2)
    upper = 1.0 if c == m else beta_quantile(1.0 - half_alpha, a1, a2)
    return lower, upper


def _bounds(counts, m: int, gamma: float) -> np.ndarray:
    """(k, 2) Jeffreys (lower, upper) bounds of k counts out of m."""
    return np.reshape([_jeffreys_bounds(c, int(m), gamma) for c in counts.tolist()], (-1, 2))


def jeffreys_interval(
    c: int, m: int, level: ConfidenceLevel = DEFAULT_LEVEL
) -> IntervalEstimate:
    """Equitailed Jeffreys interval for c occurrences out of m members.

    Bounds are the alpha/2 and 1 - alpha/2 quantiles of
    Beta(c + 1/2, m - c + 1/2); the lower bound is pinned to 0 when
    c = 0 and the upper to 1 when c = m (the pinned side skips quantile
    evaluation entirely), avoiding the ill-behaved boundary intervals.
    """
    p_hat = point_estimate(c, m)
    _check_level(level)
    lower, upper = _jeffreys_bounds(int(c), int(m), level.gamma)
    return IntervalEstimate(p_hat=p_hat, p_lower=lower, p_upper=upper, c=c, m=m)


def summarize(counts, m: int, level: ConfidenceLevel = DEFAULT_LEVEL) -> np.ndarray:
    """Point estimates and Jeffreys intervals of every vertex at once.

    `counts` is a (3, n) integer array of (min, max, saddle) counts out
    of m.  Returns a float64 (3, 3, n) table indexed [type, stat
    (hat, lo, hi), vertex], so `table.reshape(9, n).T` is the row order
    of the summary CSV that `grid.save_summary` writes.  Each entry
    equals `jeffreys_interval(c, m, level)`; the bounds are evaluated
    once per distinct count.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != 3 or counts.dtype.kind not in "iu":
        raise ValueError(
            f"counts must be a (3, n) integer array, got {counts.dtype} {counts.shape}")
    _check_size("ensemble size", m)
    _check_level(level)
    outside = (counts < 0) | (counts > m)
    if outside.any():
        row, v = np.argwhere(outside)[0].tolist()
        raise ValueError(
            f"{_COUNT_NAMES[row]}={counts[row, v]} at vertex {v} outside [0, {m}]")
    over = counts.sum(axis=0) > m
    if over.any():
        v = int(np.argmax(over))
        raise ValueError(
            f"type counts {counts[:, v].tolist()} at vertex {v} exceed ensemble size {m}")
    distinct = np.unique(counts)
    lower, upper = _bounds(distinct, m, level.gamma).T
    table = np.empty((3, 3, counts.shape[1]))
    np.divide(counts, m, out=table[:, 0])
    # One type at a time, so neither a (3, n) inverse nor a (3, n, 2)
    # gather of the bounds is built.
    for row, index in enumerate(map(distinct.searchsorted, counts)):
        table[row, 1], table[row, 2] = lower[index], upper[index]
    return table


def coverage_experiment(
    p_true: float,
    m: int,
    level: ConfidenceLevel = DEFAULT_LEVEL,
    reps: int = 10_000,
    seed: int = 0,
) -> CoverageReport:
    """Draw `reps` counts from Bin(m, p_true) and score interval coverage.

    Deterministic for a given seed; each call owns a private generator.
    Intervals depend on the draw only through the count, so each distinct
    count is evaluated once and weighted by its frequency.
    """
    p_true = _check_unit("p_true", p_true)
    _check_size("ensemble size", m)
    _check_size("reps", reps)
    _check_level(level)
    rng = np.random.default_rng(_check_seed(seed))
    frequencies = np.zeros(m + 1, dtype=np.int64)
    # Drawn in chunks, the counts are those of one whole draw.
    for start in range(0, reps, _DRAW_CHUNK):
        size = min(_DRAW_CHUNK, reps - start)
        frequencies += np.bincount(rng.binomial(m, p_true, size=size), minlength=m + 1)
    counts = np.flatnonzero(frequencies)
    lower, upper = _bounds(counts, m, level.gamma).T
    hits = int(frequencies[counts][(lower <= p_true) & (p_true <= upper)].sum())
    # A plain left-to-right sum in count order: numpy's pairwise sum, and the
    # compensated built-in sum of Python 3.12, could move the last bit.
    widths = (frequencies[counts] * (upper - lower)).tolist()
    width_total = reduce(operator.add, widths, 0.0)
    return CoverageReport(
        p_true=p_true,
        m=m,
        gamma=level.gamma,
        reps=reps,
        hits=hits,
        empirical_coverage=hits / reps,
        mean_width=width_total / reps,
    )
