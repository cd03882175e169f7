"""The names the benchmark in `perfbench/` wraps and reads must keep existing.

`perfbench/tracer.py` times layers by replacing module attributes such as
`cpci.cli.summarize`, and `perfbench/check.py` reads count records by
field name; a rename in `cpci` would otherwise surface only when the
benchmark runs.
"""

import importlib
from pathlib import Path

import numpy as np

import cpci.critical
from cpci.grid import Ensemble, GridTopology

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_layer_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.LAYER_FUNCTIONS
    for module, attribute, *_ in tracer.LAYER_FUNCTIONS:
        assert callable(getattr(module, attribute, None)), f"{module.__name__}.{attribute}"


def test_count_records_expose_the_fields_the_checker_reads():
    t = GridTopology(4, 3)
    values = np.random.default_rng(2).normal(size=(5, t.n))
    counts = cpci.critical.count_types(Ensemble(t, values))
    assert len(counts) == t.n
    for row in counts:
        total = row.c_min + row.c_max + row.c_saddle
        assert 0 <= total <= 5
    # check.py's recount input: one (3, n) array built row by row
    stacked = np.array([[c.c_min, c.c_max, c.c_saddle] for c in counts]).T
    assert stacked.shape == (3, t.n) and stacked.dtype.kind == "i"
