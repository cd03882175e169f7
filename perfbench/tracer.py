"""Traced cpci runs and per-layer probes, each in a fresh process.

    python3 perfbench/tracer.py command OUT.json -- <cpci arguments>
    python3 perfbench/tracer.py probe OUT.json SPEC.json

`command` runs `cpci.cli.main(argv)` with the public layer functions
wrapped at the names `cpci.cli` and `cpci.synth` bind them to.  Spans
are kept in memory and written to OUT.json when the command ends; a
function called once per vertex (`summarize`) is folded into one span
per parent with a call count.  The process exits with the command's
exit code.

`probe` measures what the spans cannot: the per-shape set-up cost of
`count_types`, tracemalloc peaks of `load_ensemble` and `count_types`,
uncached `beta_quantile` over the distinct counts, and the sampler's
throughput on a stated prefix of the draws.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc

import numpy as np

import cpci.cli
import cpci.synth
from cpci.critical import count_types
from cpci.grid import Ensemble, GridTopology, load_ensemble
from cpci.stats import beta_quantile
from cpci.synth import load_moment_model, sample_ensemble

import workloads


def _count_attrs(args, result):
    return {"member_vertices": args[0].m * args[0].topology.n}


def _load_attrs(args, result):
    return {"bytes": os.fstat(args[0].fileno()).st_size}


def _render_attrs(args, result):
    return {"glyphs": args[1].n, "chars": len(result)}


# (module, attribute, span name, folded, attribute extractor)
LAYER_FUNCTIONS = (
    (cpci.cli, "load_ensemble", "grid.load_ensemble", False, _load_attrs),
    (cpci.cli, "save_ensemble", "grid.save_ensemble", False, None),
    (cpci.cli, "save_moment_model", "grid.save_moment_model", False, None),
    (cpci.cli, "count_types", "critical.count_types", False, _count_attrs),
    (cpci.cli, "summarize", "stats.summarize", True, None),
    (cpci.synth, "summarize", "stats.summarize", True, None),
    (cpci.cli, "render_map", "render.render_map", False, _render_attrs),
    (cpci.cli, "load_moment_model", "synth.load_moment_model", False, None),
    (cpci.cli, "estimate_moments", "synth.estimate_moments", False, None),
    (cpci.cli, "sample_ensemble", "synth.sample_ensemble", False, None),
    (cpci.cli, "ground_truth_probabilities", "synth.ground_truth", False, None),
)


class Tracer:
    """Nested spans: name, parent index, duration, call count, attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._folded: dict[tuple[str, int | None], int] = {}

    def _new(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "parent": parent, "seconds": 0.0, "calls": 0})
        return len(self.spans) - 1

    def span(self, name, func, *args, attrs=None, **kwargs):
        index = self._new(name)
        self._open.append(index)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            self.spans[index]["seconds"] = time.perf_counter() - start
            self.spans[index]["calls"] = 1
            self._open.pop()
        if attrs is not None:
            self.spans[index].update(attrs(args, result))
        return result

    def folded(self, name, func, *args, **kwargs):
        key = (name, self._open[-1] if self._open else None)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            if key not in self._folded:
                self._folded[key] = self._new(name)
            span = self.spans[self._folded[key]]
            span["seconds"] += elapsed
            span["calls"] += 1

    def wrap(self, module, attribute, name, folded, attrs):
        func = getattr(module, attribute)
        if folded:
            wrapper = lambda *a, **k: self.folded(name, func, *a, **k)  # noqa: E731
        else:
            wrapper = lambda *a, **k: self.span(name, func, *a, attrs=attrs, **k)  # noqa: E731
        setattr(module, attribute, wrapper)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [span["seconds"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["seconds"]
        return own


def run_command(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    for entry in LAYER_FUNCTIONS:
        tracer.wrap(*entry)
    code = tracer.span("cli", cpci.cli.main, argv)
    for span, own in zip(tracer.spans, tracer.self_seconds()):
        span["self_seconds"] = own
    with open(out_path, "w") as handle:
        json.dump({"spans": tracer.spans, "exit": code}, handle)
    return code


def _timed(func, *args):
    start = time.perf_counter()
    result = func(*args)
    return result, time.perf_counter() - start


def run_probe(out_path: str, spec: dict) -> int:
    nx, ny = spec["shape"]
    one = Ensemble(GridTopology(nx, ny), np.random.default_rng(0).random((1, nx * ny)))
    _, cold = _timed(count_types, one)
    _, warm = _timed(count_types, one)

    tracemalloc.start()
    with open(spec["estimate_input"], "rb") as handle:
        ensemble = load_ensemble(handle)
    load_peak = tracemalloc.get_traced_memory()[1]
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    count_types(ensemble)
    count_peak = tracemalloc.get_traced_memory()[1] - held
    tracemalloc.stop()
    del ensemble

    half = 0.5 * (1.0 - workloads.GAMMA)
    start = time.perf_counter()
    for c, m in spec["distinct_pairs"]:
        beta_quantile(half, c + 0.5, m - c + 0.5)
        beta_quantile(1.0 - half, c + 0.5, m - c + 0.5)
    quantile_s = time.perf_counter() - start

    with open(spec["model"], "rb") as handle:
        model = load_moment_model(handle)
    _, sample_s = _timed(sample_ensemble, model, spec["probe_members"], spec["seed"])

    result = {
        "shape_setup_s": cold - warm,
        "load_ensemble_peak_mb": load_peak / 2**20,
        "count_types_peak_mb": count_peak / 2**20,
        "beta_quantile_s": quantile_s,
        "members_per_s": spec["probe_members"] / sample_s,
    }
    with open(out_path, "w") as handle:
        json.dump(result, handle)
    return 0


def main(argv: list[str]) -> int:
    mode, out_path, rest = argv[0], argv[1], argv[2:]
    if mode == "command" and rest[:1] == ["--"]:
        return run_command(out_path, rest[1:])
    if mode == "probe" and len(rest) == 1:
        with open(rest[0]) as handle:
            return run_probe(out_path, json.load(handle))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
