"""Workload definitions shared by run.py, the generator and the checker.

Every workload runs the pipeline the cpci README calls a typical
end-to-end run: `synth fit` on a 16x16 seed ensemble, `synth truth`,
`synth sample`, `estimate`, then `render` of the estimate's summary.
The sizes decide which layer dominates:

- wide:  estimate + render of a 256x256, m=50 full-precision ensemble;
         per-vertex work (link tables, interval objects, CSV, SVG).
- deep:  estimate + render of a 128x128, m=1000 ensemble quantised to
         steps of 0.25, so about 22% of neighbour pairs tie and the index
         tie-break decides them; EGF parse and the chunked kernel.
- truth: synth truth with 100,000 draws and synth sample of 4 x 1000
         members on the 16x16 model; the sampler, the EGF/MMF writers
         and the quantile kernel (hundreds of distinct counts).

wide and deep run the synth stage at a token size (2,000 draws, one
50-member sample) and truth runs estimate and render on one of its
1000-member samples, so every layer is measured on every workload and
each layer is large on one workload and small on another.

This module is stdlib-only: run.py imports it and must hold no
workload data.
"""

from __future__ import annotations

# Bump when the generator's output for a given seed changes; it keys the
# input cache and invalidates the pinned digests below.
GENERATOR_VERSION = 1

DEFAULT_SEED = 0
GAMMA = 0.95

SEED_SHAPE = (16, 16, 21)  # nx, ny, m of the synth seed ensemble

WORKLOADS = {
    "wide": {
        "main": {"nx": 256, "ny": 256, "m": 50, "noise": 0.3, "step": None},
        "draws": 2000, "sizes": "50", "count": 1,
    },
    "deep": {
        "main": {"nx": 128, "ny": 128, "m": 1000, "noise": 0.15, "step": 0.25},
        "draws": 2000, "sizes": "50", "count": 1,
    },
    "truth": {
        "main": None,
        "draws": 100_000, "sizes": "1000", "count": 4,
    },
}

# Smoke-test sizes: same pipeline and checks, a few seconds in total.
TINY = {
    "wide": {
        "main": {"nx": 24, "ny": 20, "m": 6, "noise": 0.3, "step": None},
        "draws": 200, "sizes": "6", "count": 1,
    },
    "deep": {
        "main": {"nx": 12, "ny": 10, "m": 40, "noise": 0.15, "step": 0.25},
        "draws": 200, "sizes": "6", "count": 1,
    },
    "truth": {
        "main": None,
        "draws": 2000, "sizes": "40", "count": 2,
    },
}

# SHA-256 of outputs whose byte format is a contract, for DEFAULT_SEED at
# full size.  Monte-Carlo outputs are checked by invariants instead.
PINNED_SHA256 = {
    "wide": {
        "estimate": "9cd621c6be1c24ce7704c3de926751a694fd45899ffb65654c8dc67697a59cc6",
        "render": "57a211f1e7dbba11ef8941fa24d2a9b7c7cf639b97a0889103165e65cc880cbe",
    },
    "deep": {
        "estimate": "a74d5096c5bd0aed72e4a17f7cfa60db7adc32ff1c1e2fe96960305f990032fa",
        "render": "a6fe766c37e598582f0ea7d4763a54a69265c18c0cc8d4f8760aae52e0e9cc28",
    },
}

COMMANDS = ("fit", "truth", "sample", "estimate", "render")


def spec(workload: str, tiny: bool = False) -> dict:
    table = TINY if tiny else WORKLOADS
    if workload not in table:
        raise KeyError(workload)
    return table[workload]


def sample_name(size: int, k: int) -> str:
    """File name `cpci synth sample` gives member file k of a size."""
    return f"sample_m{size}_{k:02d}.egf"


def pipeline(workload: str, seed: int, inputs: dict, work: str,
             tiny: bool = False) -> list[tuple[str, list[str], str]]:
    """The workload's commands as (name, cpci argv, main output path)."""
    w = spec(workload, tiny)
    mmf = f"{work}/model.mmf"
    truth = f"{work}/truth.csv"
    samples = f"{work}/samples"
    first_size = int(w["sizes"].split(",")[0])
    estimate_input = inputs.get("main") or f"{samples}/{sample_name(first_size, 0)}"
    summary = f"{work}/summary.csv"
    svg = f"{work}/map.svg"
    return [
        ("fit", ["synth", "fit", "--input", inputs["seed"], "--output", mmf], mmf),
        ("truth", ["synth", "truth", "--input", mmf, "--output", truth,
                   "--draws", str(w["draws"]), "--seed", str(seed)], truth),
        ("sample", ["synth", "sample", "--input", mmf, "--output", samples,
                    "--sizes", w["sizes"], "--count", str(w["count"]),
                    "--seed", str(seed)], samples),
        ("estimate", ["estimate", "--input", estimate_input, "--output", summary],
         summary),
        ("render", ["render", "--input", summary, "--output", svg], svg),
    ]
