"""Output checks for one pass of a workload's pipeline (untimed).

Run by run.py in a child process: `python3 perfbench/check.py SPEC.json`
prints one JSON line `{"results": {command: [errors]}, "counts": {...}}`,
where an empty error list means the command's output passed.

- fit:      mean and covariance factor against the benchmark's own fit.
- truth:    summary invariants, Jeffreys bounds against scipy, and
            p_hat against an independent Monte-Carlo estimate: draws from
            the benchmark's own numpy sampler, classified by count_types
            (whose codes the estimate recount checks).
- sample:   file layout, header, finiteness, and per-vertex mean and
            variance against the model.
- estimate: summary invariants, a recount of seeded vertices across all
            members with the scalar `classify_vertex` oracle, Jeffreys
            bounds against scipy, and the pinned digest for the default
            seed.
- render:   one glyph per vertex in order, the path count each glyph's
            nine values imply, and the pinned digest.

Files are parsed with the benchmark's own readers, never with cpci's.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys

import numpy as np

import inputs
import workloads

_HEADER = "i,j,min_hat,min_lo,min_hi,max_hat,max_lo,max_hi,sad_hat,sad_lo,sad_hi"
_ORACLE_CLASSIFICATIONS = 64_000   # scalar classify_vertex calls per recount
_MC_DRAWS = 4000                   # independent draws for the truth check
_SIGMAS = 6.0


class CheckError(Exception):
    pass


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _data_lines(path: str) -> list[str]:
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8")
    return [s for line in text.splitlines() if (s := line.strip()) and not s.startswith("#")]


def read_grid_text(path: str, magic: str) -> tuple[int, int, np.ndarray]:
    """EGF/MMF body as (nx, ny, blocks) with blocks of shape (k, ny*nx).

    An MMF holds a mean block before its r factor blocks.
    """
    lines = _data_lines(path)
    if not lines or lines[0] != magic:
        raise CheckError(f"{os.path.basename(path)}: missing {magic} magic line")
    nx, ny, k = (int(t) for t in lines[1].split())
    k += magic == "MMF1"
    body = lines[2:]
    if len(body) != k * ny:
        raise CheckError(f"{os.path.basename(path)}: {len(body)} rows, expected {k * ny}")
    values = np.array(" ".join(body).split(), dtype=np.float64)
    if values.size != k * ny * nx or not np.isfinite(values).all():
        raise CheckError(f"{os.path.basename(path)}: wrong value count or non-finite value")
    return nx, ny, values.reshape(k, ny * nx)


def read_summary(path: str, nx: int, ny: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Summary CSV as (table (n, 9), counts (3, n)) after invariant checks."""
    with open(path, "rb") as handle:
        lines = handle.read().decode("utf-8").split("\n")
    if lines[0] != f"# m={m} gamma={workloads.GAMMA:.9g}" or lines[1] != _HEADER:
        raise CheckError(f"summary metadata or header wrong: {lines[:2]!r}")
    if lines[-1] != "" or len(lines) != nx * ny + 3:
        raise CheckError(f"summary has {len(lines) - 3} rows, expected {nx * ny}")
    rows = np.array([line.split(",") for line in lines[2:-1]], dtype=np.float64)
    if rows.shape[1] != 11:
        raise CheckError("summary rows need 11 fields")
    v = np.arange(nx * ny)
    if not (np.array_equal(rows[:, 0], v % nx) and np.array_equal(rows[:, 1], v // nx)):
        raise CheckError("summary rows are not in linear vertex order")
    table = rows[:, 2:]
    hat, lo, hi = table[:, 0::3], table[:, 1::3], table[:, 2::3]
    if not (np.isfinite(table).all() and (table >= 0).all() and (table <= 1).all()):
        raise CheckError("summary value outside [0, 1]")
    if not ((lo <= hat) & (hat <= hi)).all():
        raise CheckError("summary row with p_hat outside [p_lo, p_hi]")
    counts = np.rint(hat * m).astype(np.int64)
    if np.abs(counts / m - hat).max() > 1e-8:
        raise CheckError("p_hat is not a count over m")
    if (counts.sum(axis=1) > m).any():
        raise CheckError("type counts of one vertex exceed m")
    if ((counts == 0) & (lo != 0)).any() or ((counts == m) & (hi != 1)).any():
        raise CheckError("pinned bound missing at c = 0 or c = m")
    return table, counts.T


def check_bounds(table: np.ndarray, counts: np.ndarray, m: int, vertices) -> None:
    """Jeffreys bounds of the given vertices against scipy's beta quantiles."""
    try:
        from scipy.stats import beta
    except ImportError:
        return
    half = 0.5 * (1.0 - workloads.GAMMA)
    c = counts[:, vertices].T.astype(np.float64)          # (k, 3)
    lo = np.where(c == 0, 0.0, beta.ppf(half, c + 0.5, m - c + 0.5))
    hi = np.where(c == m, 1.0, beta.ppf(1.0 - half, c + 0.5, m - c + 0.5))
    got = table[vertices]
    for ref, col in ((lo, got[:, 1::3]), (hi, got[:, 2::3])):
        if (np.abs(col - ref) > 1e-7 + 1e-6 * np.abs(ref)).any():
            raise CheckError("Jeffreys bound differs from scipy's beta quantile")


def oracle_vertices(rng, nx: int, ny: int, m: int) -> np.ndarray:
    """Corners plus a seeded sample, sized to a fixed number of scalar calls."""
    n = nx * ny
    k = max(8, min(n, _ORACLE_CLASSIFICATIONS // m))
    corners = [0, nx - 1, n - nx, n - 1]
    return np.unique(np.concatenate([corners, rng.choice(n, size=k, replace=False)]))


def check_recount(values: np.ndarray, nx: int, ny: int, counts: np.ndarray, vertices) -> None:
    from cpci.critical import CriticalType, classify_vertex
    from cpci.grid import GridTopology, build_link

    topology = GridTopology(nx, ny)
    codes = (CriticalType.MINIMUM, CriticalType.MAXIMUM, CriticalType.SADDLE)
    for v in vertices:
        vertex = (int(v) % nx, int(v) // nx)
        link = build_link(topology, vertex)
        types = [classify_vertex(field, topology, vertex, link) for field in values]
        expected = [sum(t == code for t in types) for code in codes]
        if counts[:, v].tolist() != expected:
            raise CheckError(
                f"vertex {vertex}: counts {counts[:, v].tolist()}, oracle recount {expected}")


def check_fit(path: str, seed_values: np.ndarray, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    fnx, fny, blocks = read_grid_text(path, "MMF1")
    m = seed_values.shape[0]
    if (fnx, fny, blocks.shape[0]) != (nx, ny, m + 1):
        raise CheckError(f"model header {fnx} {fny} {blocks.shape[0] - 1}, expected {nx} {ny} {m}")
    mean = seed_values.mean(axis=0)
    factor = (seed_values - mean).T / math.sqrt(m - 1)
    scale = 1e-12 * (1.0 + np.abs(seed_values).max())
    if np.abs(blocks[0] - mean).max() > scale or np.abs(blocks[1:].T - factor).max() > scale:
        raise CheckError("model mean or factor differs from the sample moments")
    return blocks[0], blocks[1:].T


def _within_mc(p1: np.ndarray, n1: int, p2: np.ndarray, n2: int) -> bool:
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    sd = np.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
    return bool((np.abs(p1 - p2) <= _SIGMAS * sd + 2.0 / min(n1, n2)).all())


def check_truth(path, mean, factor, nx, ny, draws, rng) -> np.ndarray:
    from cpci.critical import count_types
    from cpci.grid import Ensemble, GridTopology

    table, counts = read_summary(path, nx, ny, draws)
    check_bounds(table, counts, draws, np.arange(nx * ny))
    members = mean + rng.standard_normal((_MC_DRAWS, factor.shape[1])) @ factor.T
    independent = np.array([[c.c_min, c.c_max, c.c_saddle] for c in
                            count_types(Ensemble(GridTopology(nx, ny), members))]).T
    if not _within_mc(counts / draws, draws, independent / _MC_DRAWS, _MC_DRAWS):
        raise CheckError("ground truth disagrees with an independent Monte-Carlo estimate")
    return counts


def check_samples(directory, mean, factor, nx, ny, sizes, count) -> dict[int, np.ndarray]:
    expected = {workloads.sample_name(s, k) for s in sizes for k in range(count)}
    found = set(os.listdir(directory))
    if found != expected:
        raise CheckError(f"sample files {sorted(found)}, expected {sorted(expected)}")
    variance = (factor ** 2).sum(axis=1)
    first = {}
    for size in sizes:
        members = []
        for k in range(count):
            snx, sny, values = read_grid_text(
                os.path.join(directory, workloads.sample_name(size, k)), "EGF1")
            if (snx, sny, values.shape[0]) != (nx, ny, size):
                raise CheckError(f"sample header {snx} {sny} {values.shape[0]}")
            members.append(values)
        if count > 1 and any(np.array_equal(members[0], other) for other in members[1:]):
            raise CheckError("repeated sample files are identical")
        pooled = np.concatenate(members)
        total = pooled.shape[0]
        if (np.abs(pooled.mean(axis=0) - mean) > _SIGMAS * np.sqrt(variance / total) + 1e-9).any():
            raise CheckError("sample means disagree with the model mean")
        # The normal approximation to the sample variance needs many members.
        if total >= 200 and (np.abs(pooled.var(axis=0, ddof=1) - variance)
                          > _SIGMAS * variance * math.sqrt(2 / (total - 1)) + 1e-12).any():
            raise CheckError("sample variances disagree with the model")
        first[size] = members[0]
    return first


def check_render(path: str, table: np.ndarray, nx: int, ny: int, vertices) -> None:
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8")
    if not text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ') \
            or not text.endswith("</svg>\n"):
        raise CheckError("SVG prologue or closing tag missing")
    glyphs = text.split('\n<g data-vertex="')[1:]
    if len(glyphs) != nx * ny:
        raise CheckError(f"{len(glyphs)} glyphs, expected {nx * ny}")
    for v in range(0, nx * ny, max(1, nx * ny // 512)):
        if not glyphs[v].startswith(f'{v % nx},{v // nx}"'):
            raise CheckError(f"glyph {v} is out of vertex order")
    for v in vertices:
        body = glyphs[v].split("</g>", 1)[0]
        expected = int((table[v] > 0).sum())
        if body.count("<path ") != expected:
            raise CheckError(f"glyph {v} has {body.count('<path ')} paths, expected {expected}")


def check_pass(spec: dict) -> dict:
    """Check every output of one pipeline pass; errors keyed by command."""
    workload, seed, tiny = spec["workload"], spec["seed"], spec["tiny"]
    w = workloads.spec(workload, tiny)
    out = spec["outputs"]
    rng = np.random.default_rng([seed, 7])
    pinned = workloads.PINNED_SHA256.get(workload, {}) \
        if seed == workloads.DEFAULT_SEED and not tiny else {}
    errors = {name: [] for name in workloads.COMMANDS}
    state = {}
    tallies = []   # (counts, m) of every checked summary
    snx, sny, _ = workloads.SEED_SHAPE
    sizes = [int(s) for s in w["sizes"].split(",")]

    def run(name, func):
        try:
            func()
            if name in pinned and sha256(out[name]) != pinned[name]:
                raise CheckError("digest differs from the pinned SHA-256")
        except KeyError as exc:
            # `state` lacks the result of an upstream check that failed.
            errors[name].append(f"not checked: its {exc.args[0]} input failed its check")
        except (CheckError, OSError, ValueError) as exc:
            errors[name].append(f"{type(exc).__name__}: {exc}")

    def fit():
        state["model"] = check_fit(out["fit"], inputs.seed_values(seed), snx, sny)

    def truth():
        counts = check_truth(out["truth"], *state["model"], snx, sny, w["draws"], rng)
        tallies.append((counts, w["draws"]))

    def sample():
        state["samples"] = check_samples(out["sample"], *state["model"], snx, sny,
                                         sizes, w["count"])

    def estimate():
        main = w["main"]
        if main is None:
            values, nx, ny = state["samples"][sizes[0]], snx, sny
        else:
            values, nx, ny = inputs.main_values(workload, seed, tiny), main["nx"], main["ny"]
        m = values.shape[0]
        table, counts = read_summary(out["estimate"], nx, ny, m)
        vertices = oracle_vertices(rng, nx, ny, m)
        check_recount(values, nx, ny, counts, vertices)
        check_bounds(table, counts, m, vertices)
        tallies.append((counts, m))
        state["estimate"] = (table, nx, ny, vertices)

    def render():
        table, nx, ny, vertices = state["estimate"]
        check_render(out["render"], table, nx, ny, vertices)

    for name, func in (("fit", fit), ("truth", truth), ("sample", sample),
                       ("estimate", estimate), ("render", render)):
        run(name, func)

    pairs, cells, pinned_cells = set(), 0, 0
    for counts, m in tallies:
        pairs.update((int(c), m) for c in np.unique(counts))
        cells += counts.size
        pinned_cells += int(((counts == 0) | (counts == m)).sum())
    return {
        "results": errors,
        "counts": {
            "distinct_pairs": sorted(pairs),
            "distinct_counts": len(pairs),
            "pinned_share": pinned_cells / cells if cells else 0.0,
        },
    }


def main(argv: list[str]) -> int:
    with open(argv[0]) as handle:
        spec = json.load(handle)
    print(json.dumps(check_pass(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
