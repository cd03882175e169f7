"""Acceptance gate: nine numbered criteria, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see every line; without
`-s` the lines of failing criteria still appear in the failure report.
Criterion 4 scores interval coverage against exact binomial enumeration:
each (p, m) cell's Monte-Carlo coverage must lie within 4 standard errors
of the exact coverage of the Jeffreys interval, and the p-averaged exact
coverage for each m must lie in [0.91, 0.99]. Per-cell coverage of an
equitailed binomial interval oscillates around the nominal level (0.9916
at m = 9 and 0.8843 at m = 49 for p = 0.05), so the band applies to the
average over p, which is what the method keeps near nominal. One line
per cell (MC coverage, exact coverage, z-score) and one per m (averaged
coverage) are printed.
"""

import math
import re
import time
from pathlib import Path

import numpy as np

from cpci.critical import CriticalType, classify_field, classify_vertex, count_types
from cpci.grid import Ensemble, GridTopology, build_link, load_summary
from cpci.render import GlyphStyle, render_map
from cpci.stats import (
    ConfidenceLevel,
    beta_quantile,
    coverage_experiment,
    jeffreys_interval,
    regularized_incomplete_beta,
    summarize,
)
from cpci.synth import estimate_moments, ground_truth_probabilities, sample_ensemble

from conftest import run_cli

DATA = Path(__file__).parent / "data"


def report(number: int, name: str, ok: bool) -> None:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")


def cyclic_or_path_runs(higher: list[bool], closed: bool) -> int:
    """Independent run counter used as the classification oracle."""
    if closed:
        changes = sum(higher[k] != higher[k - 1] for k in range(len(higher)))
        return max(changes, 1)
    runs = 1
    for a, b in zip(higher, higher[1:]):
        runs += a != b
    return runs


def oracle_type(higher: list[bool], closed: bool) -> CriticalType:
    if all(higher):
        return CriticalType.MINIMUM
    if not any(higher):
        return CriticalType.MAXIMUM
    if cyclic_or_path_runs(higher, closed) > 2:
        return CriticalType.SADDLE
    return CriticalType.REGULAR


def test_criterion_1_classification_oracle():
    start = time.perf_counter()
    topology = GridTopology(3, 3)
    link = build_link(topology, (1, 1))
    assert link.closed and len(link.neighbors) == 6

    mismatches = 0
    for bits in range(64):
        field = np.full(9, 3.0)
        field[topology.linear(1, 1)] = 0.0
        higher = [(bits >> k) & 1 == 1 for k in range(6)]
        for (i, j), up in zip(link.neighbors, higher):
            field[topology.linear(i, j)] = 1.0 if up else -1.0
        got = classify_vertex(field, topology, (1, 1))
        if got != oracle_type(higher, closed=True):
            mismatches += 1

    swap = {
        CriticalType.MINIMUM: CriticalType.MAXIMUM,
        CriticalType.MAXIMUM: CriticalType.MINIMUM,
        CriticalType.SADDLE: CriticalType.SADDLE,
        CriticalType.REGULAR: CriticalType.REGULAR,
    }
    topo88 = GridTopology(8, 8)
    rng = np.random.default_rng(2024)
    duality_bad = invariance_bad = 0
    for _ in range(1000):
        field = rng.normal(size=topo88.n)
        types = classify_field(field, topo88)
        negated = classify_field(-field, topo88)
        if not np.array_equal([swap[t] for t in types], negated):
            duality_bad += 1
        if not np.array_equal(classify_field(2.0 * field + 5.0, topo88), types):
            invariance_bad += 1

    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and duality_bad == 0 and invariance_bad == 0 and elapsed < 5.0
    report(1, "classification matches run-counting oracle", ok)
    assert mismatches == 0, f"{mismatches}/64 interior sign patterns disagree"
    assert duality_bad == 0, f"negation duality broke on {duality_bad}/1000 fields"
    assert invariance_bad == 0, f"monotone invariance broke on {invariance_bad}/1000 fields"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_special_functions():
    start = time.perf_counter()
    xs = [0.001, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999]
    shapes = [0.5, 1.5, 9.5, 50.5, 100.5]
    worst_identity = 0.0
    for x in xs:
        worst_identity = max(
            worst_identity, abs(regularized_incomplete_beta(x, 1.0, 1.0) - x))
        for a in shapes:
            worst_identity = max(
                worst_identity, abs(regularized_incomplete_beta(x, a, 1.0) - x**a))
            for b in shapes:
                reflected = 1.0 - regularized_incomplete_beta(1.0 - x, b, a)
                worst_identity = max(
                    worst_identity,
                    abs(regularized_incomplete_beta(x, a, b) - reflected))
    for a in shapes:
        worst_identity = max(
            worst_identity, abs(regularized_incomplete_beta(0.5, a, a) - 0.5))

    worst_roundtrip = 0.0
    for q in (0.005, 0.025, 0.5, 0.975, 0.995):
        for a in shapes:
            for b in shapes:
                x = beta_quantile(q, a, b)
                worst_roundtrip = max(
                    worst_roundtrip,
                    abs(regularized_incomplete_beta(x, a, b) - q))

    elapsed = time.perf_counter() - start
    ok = worst_identity <= 1e-12 and worst_roundtrip <= 1e-9 and elapsed < 5.0
    report(2, "incomplete-beta identities and quantile roundtrip", ok)
    assert worst_identity <= 1e-12, f"identity error {worst_identity:.3e}"
    assert worst_roundtrip <= 1e-9, f"roundtrip error {worst_roundtrip:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_jeffreys_contract():
    level = ConfidenceLevel(0.95)
    alpha = level.alpha
    worst_tail = 0.0
    for m in (9, 49, 100):
        for c in range(1, m):
            est = jeffreys_interval(c, m, level)
            a, b = c + 0.5, m - c + 0.5
            worst_tail = max(
                worst_tail,
                abs(regularized_incomplete_beta(est.p_lower, a, b) - alpha / 2),
                abs(regularized_incomplete_beta(est.p_upper, a, b) - (1 - alpha / 2)))
        assert jeffreys_interval(0, m, level).p_lower == 0.0
        assert jeffreys_interval(m, m, level).p_upper == 1.0

    containment_bad = []
    for gamma in (0.95, 0.99):
        lvl = ConfidenceLevel(gamma)
        for m in range(1, 201):
            for c in range(m + 1):
                est = jeffreys_interval(c, m, lvl)
                if not est.p_lower <= c / m <= est.p_upper:
                    containment_bad.append((gamma, m, c))

    ok = worst_tail <= 1e-9 and not containment_bad
    report(3, "equitailed bounds, boundary overrides, containment", ok)
    assert worst_tail <= 1e-9, f"tail probability error {worst_tail:.3e}"
    assert containment_bad == [], f"point estimate escaped interval at {containment_bad[:5]}"


def exact_cell_coverage(p: float, m: int, alpha: float) -> float:
    """Exact coverage at `p`, enumerated from the interval's definition.

    Uses binomial weights and the incomplete beta only, not
    `jeffreys_interval` or `beta_quantile`: the lower bound covers p when
    c = 0 or I_p(c + 1/2, m - c + 1/2) >= alpha/2, the upper when c = m or
    that value is <= 1 - alpha/2.
    """
    total = 0.0
    for c in range(m + 1):
        tail = regularized_incomplete_beta(p, c + 0.5, m - c + 0.5)
        if (c == 0 or tail >= alpha / 2) and (c == m or tail <= 1 - alpha / 2):
            total += math.comb(m, c) * p**c * (1 - p) ** (m - c)
    return total


def averaged_coverage(m: int, level: ConfidenceLevel) -> float:
    """Exact coverage of the intervals averaged over p uniform on [0, 1].

    Integrating Bin(c; m, p) over [lo_c, hi_c] gives
    (I_hi(c+1, m-c+1) - I_lo(c+1, m-c+1)) / (m + 1).
    """
    total = 0.0
    for c in range(m + 1):
        est = jeffreys_interval(c, m, level)
        a, b = c + 1.0, m - c + 1.0
        total += (regularized_incomplete_beta(est.p_upper, a, b)
                  - regularized_incomplete_beta(est.p_lower, a, b))
    return total / (m + 1)


def test_criterion_4_coverage_band():
    start = time.perf_counter()
    level = ConfidenceLevel(0.95)
    reps = 10_000
    cell_misses = []
    for p in (0.05, 0.1, 0.3, 0.5, 0.9):
        for m in (9, 49):
            rep = coverage_experiment(p, m, level, reps=reps, seed=0)
            exact = exact_cell_coverage(p, m, level.alpha)
            z = (rep.empirical_coverage - exact) / math.sqrt(exact * (1 - exact) / reps)
            agrees = abs(z) <= 4.0
            print(f"    p={p:<5} m={m:<3} coverage={rep.empirical_coverage:.4f}"
                  f" exact={exact:.4f} z={z:+.2f}"
                  f" {'ok' if agrees else 'MORE THAN 4 SE FROM EXACT'}")
            if not agrees:
                cell_misses.append((p, m, rep.empirical_coverage, exact, z))
    band_misses = []
    for m in (9, 49):
        mean = averaged_coverage(m, level)
        inside = 0.91 <= mean <= 0.99
        print(f"    m={m:<3} p-averaged coverage={mean:.4f}"
              f" {'ok' if inside else 'OUTSIDE [0.91, 0.99]'}")
        if not inside:
            band_misses.append((m, mean))
    elapsed = time.perf_counter() - start
    ok = not cell_misses and not band_misses and elapsed < 60.0
    report(4, "coverage matches exact enumeration; p-averaged within [0.91, 0.99]", ok)
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    assert cell_misses == [], "Monte-Carlo coverage off the exact value at " + ", ".join(
        f"(p={p}, m={m}): {cov:.4f} vs {exact:.4f} (z={z:+.2f})"
        for p, m, cov, exact, z in cell_misses)
    assert band_misses == [], "p-averaged coverage escaped [0.91, 0.99] at " + ", ".join(
        f"m={m}: {mean:.4f}" for m, mean in band_misses)


def test_criterion_5_width_shrinkage():
    level = ConfidenceLevel(0.95)

    def central_width(m: int) -> float:
        central = (m // 2, m // 2 + 1)
        return float(np.mean([jeffreys_interval(c, m, level).width for c in central]))

    ratio = central_width(49) / central_width(9)
    target = (9 / 49) ** 0.5
    ok = abs(ratio - target) <= 0.08
    report(5, f"central width ratio {ratio:.4f} ~ sqrt(9/49)", ok)
    assert ok, f"ratio {ratio:.6f} vs target {target:.6f} +- 0.08"


def smooth_seed_ensemble(topology: GridTopology, m: int, rng) -> Ensemble:
    """Band-limited random surfaces: shared mean plus smooth + white noise."""
    nx, ny = topology.nx, topology.ny
    jj, ii = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")

    def random_surface():
        f = np.zeros((ny, nx))
        for _ in range(4):
            fx, fy = rng.integers(0, 3, size=2)
            phase = rng.uniform(0, 2 * np.pi)
            amp = rng.uniform(0.4, 1.0)
            f += amp * np.cos(2 * np.pi * (fx * ii / nx + fy * jj / ny) + phase)
        return f.ravel()

    mean = random_surface()
    members = np.stack([
        mean + 0.6 * random_surface() + 0.35 * rng.normal(size=nx * ny)
        for _ in range(m)
    ])
    return Ensemble(topology, members)


def test_criterion_6_synthetic_study_false_positive_rate():
    start = time.perf_counter()
    master_seed = 0
    topology = GridTopology(16, 16)
    rng = np.random.default_rng(master_seed)
    model = estimate_moments(smooth_seed_ensemble(topology, 10, rng))
    truth = ground_truth_probabilities(model, 100_000, seed=master_seed * 1000 + 1)

    pairs = false_positives = 0
    ordinal = 0
    for m in (9, 49):
        for _ in range(10):
            ensemble = sample_ensemble(model, m, seed=master_seed * 1000 + 100 + ordinal)
            ordinal += 1
            records = count_types(ensemble)
            table = summarize(
                np.stack((records.c_min, records.c_max, records.c_saddle)), m)
            lower = table[:, 1]
            pairs += int((lower > 0).sum())
            false_positives += int(((lower > 0) & (truth[:, 0] < lower)).sum())

    fraction = false_positives / pairs if pairs else float("nan")
    elapsed = time.perf_counter() - start
    print(f"    non-zero-lower pairs={pairs} false positives={false_positives}"
          f" fraction={fraction:.4f} elapsed={elapsed:.1f}s")
    ok = pairs > 0 and fraction <= 0.05 and elapsed < 120.0
    report(6, "lower bounds rarely exceed ground truth", ok)
    assert pairs > 0
    assert fraction <= 0.05, f"false-positive fraction {fraction:.4f} > 0.05"
    assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_criterion_7_sampler_moments():
    topology = GridTopology(3, 3)
    rng = np.random.default_rng(77)
    values = rng.normal(size=(4, topology.n))
    model = estimate_moments(Ensemble(topology, values))
    implied = model.factor @ model.factor.T
    mean = values.mean(axis=0)
    brute = np.empty((topology.n, topology.n))
    for r in range(topology.n):
        for s in range(topology.n):
            brute[r, s] = np.sum(
                (values[:, r] - mean[r]) * (values[:, s] - mean[s])) / (4 - 1)
    cov_err = float(np.max(np.abs(implied - brute)))

    small = GridTopology(2, 2)
    seed_values = np.random.default_rng(5).normal(size=(3, small.n))
    small_model = estimate_moments(Ensemble(small, seed_values))
    target = small_model.factor @ small_model.factor.T
    n_draws = 150_000
    draws = sample_ensemble(small_model, n_draws, seed=123).values
    mean_err = np.abs(draws.mean(axis=0) - small_model.mean)
    mean_bound = 4.0 * np.sqrt(np.diag(target) / n_draws)
    emp_cov = np.cov(draws, rowvar=False, ddof=1)
    cov_bound = 4.0 * np.sqrt(
        (np.outer(np.diag(target), np.diag(target)) + target**2) / n_draws)
    mean_ok = bool(np.all(mean_err <= mean_bound))
    conv_ok = bool(np.all(np.abs(emp_cov - target) <= cov_bound))

    ok = cov_err <= 1e-12 and mean_ok and conv_ok
    report(7, "factor reproduces sample covariance; draws converge", ok)
    assert cov_err <= 1e-12, f"covariance mismatch {cov_err:.3e}"
    assert mean_ok, "sampled mean outside 4-standard-error band"
    assert conv_ok, "sampled covariance outside 4-standard-error band"


def test_criterion_8_rendering():
    with open(DATA / "summary_4x4.csv", "rb") as source:
        topology, table, _, _ = load_summary(source)
    style = GlyphStyle()
    first = render_map(table, topology, style)
    second = render_map(table, topology, style)
    golden = (DATA / "golden_map_4x4.svg").read_bytes().decode("utf-8")
    stable = first == second == golden

    light = {"max": "#F4B6B6", "min": "#B6CDF4", "sad": "#BCE4BC"}
    dark = {"max": "#C0392B", "min": "#2B5AC0", "sad": "#2E8B40"}
    glyph_re = re.compile(r'<g data-vertex="(\d+),(\d+)"[^>]*>(.*?)</g>', re.S)
    path_re = re.compile(r'<path d="[^"]*?A ([0-9.eE+-]+) [^"]*" fill="([^"]+)"')
    worst_rel = 0.0
    order_ok = True
    checked = 0
    for match in glyph_re.finditer(first):
        i, j, body = int(match.group(1)), int(match.group(2)), match.group(3)
        v = topology.linear(i, j)
        # per sector the emitted order is light fill, dark fill, black arc,
        # sectors in max/min/sad order; compare the whole event sequence
        expected: list[tuple[str, float]] = []
        for code, row in (("max", 1), ("min", 0), ("sad", 2)):
            p_hat, p_lower, p_upper = table[row, :, v]
            if p_upper > 0:
                expected.append((light[code], p_upper))
            if p_lower > 0:
                expected.append((dark[code], p_lower))
            if p_hat > 0:
                expected.append(("none", p_hat))
        got = path_re.findall(body)
        if len(got) != len(expected):
            order_ok = False
            continue
        for (radius_text, fill), (want_fill, p) in zip(got, expected):
            if fill != want_fill:
                order_ok = False
            worst_rel = max(
                worst_rel, abs((float(radius_text) / style.r_max) ** 2 - p) / p)
            checked += 1

    ok = stable and worst_rel <= 1e-6 and order_ok and checked > 0
    report(8, "golden SVG stable, parse-back exact, paint order kept", ok)
    assert stable, "rendered SVG differs between runs or from the golden file"
    assert checked > 0
    assert order_ok, "light fill / dark fill / arc order violated"
    assert worst_rel <= 1e-6, f"parse-back relative error {worst_rel:.3e}"


def test_criterion_9_end_to_end_determinism(tmp_path):
    from conftest import write_egf

    topology = GridTopology(3, 3)
    members = np.random.default_rng(42).normal(size=(5, topology.n))
    seed_egf = tmp_path / "seed.egf"
    model = tmp_path / "model.mmf"
    write_egf(seed_egf, topology, members)
    code, _, _ = run_cli("synth", "fit", "--input", str(seed_egf), "--output", str(model))
    assert code == 0

    outputs = []
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        code, _, _ = run_cli(
            "synth", "sample", "--input", str(model), "--output", str(base),
            "--sizes", "9", "--seed", "7")
        assert code == 0
        sample = base / "sample_m9_00.egf"
        summary = base / "summary.csv"
        figure = base / "map.svg"
        code, _, _ = run_cli(
            "estimate", "--input", str(sample), "--output", str(summary))
        assert code == 0
        code, _, _ = run_cli(
            "render", "--input", str(summary), "--output", str(figure))
        assert code == 0
        outputs.append(
            (sample.read_bytes(), summary.read_bytes(), figure.read_bytes()))

    ok = outputs[0] == outputs[1]
    report(9, "sample -> estimate -> render repeats byte-identically", ok)
    assert outputs[0][0] == outputs[1][0], "sampled EGF differs between runs"
    assert outputs[0][1] == outputs[1][1], "summary CSV differs between runs"
    assert outputs[0][2] == outputs[1][2], "rendered SVG differs between runs"
