"""The package's top-level API: the names `cpci` exports and README's Library flow."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import cpci
from cpci.critical import count_types as module_count_types
from cpci.grid import Ensemble as ModuleEnsemble
from cpci.render import render_map as module_render_map
from cpci.stats import summarize as module_summarize

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "ConfidenceLevel", "CoverageReport", "CriticalType", "DEFAULT_LEVEL", "Ensemble",
    "GlyphStyle", "GridTopology", "IntervalEstimate", "MomentModel", "ParseError",
    "SECTORS", "TYPE_CODES", "VertexLink", "__version__", "beta_quantile", "build_link",
    "classify_field", "classify_vertex", "compare_vertices", "count_types",
    "coverage_experiment", "estimate_moments", "glyph_radius",
    "ground_truth_probabilities", "jeffreys_interval", "load_ensemble",
    "load_moment_model", "load_summary", "point_estimate", "regularized_incomplete_beta",
    "render_map", "sample_ensemble", "save_ensemble", "save_moment_model", "save_summary",
    "summarize",
]


def test_all_lists_the_public_names():
    assert sorted(cpci.__all__) == PUBLIC_NAMES
    assert len(set(cpci.__all__)) == len(cpci.__all__)


def test_every_name_resolves():
    for name in cpci.__all__:
        assert getattr(cpci, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from cpci import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_fresh_import_binds_the_names_and_five_modules():
    # In a new interpreter: this session's imports add `cpci.cli` to the package.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import cpci; print(*(n for n in dir(cpci) if not n.startswith('_')))"],
        capture_output=True, text=True, timeout=60, check=True)
    assert set(proc.stdout.split()) == set(PUBLIC_NAMES) - {"__version__"} | {
        "critical", "grid", "render", "stats", "synth"}


def test_readme_library_flow_uses_top_level_imports(tmp_path, monkeypatch):
    # The first Python block of README's Library section, run as written.
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert re.search(r"^from cpci import \(", code, re.M)
    assert "cpci." not in code
    rng = np.random.default_rng(20)
    values = rng.normal(size=(7, 256))
    monkeypatch.chdir(tmp_path)
    np.save("members.npy", values)
    namespace = {}
    exec(code, namespace)
    # The same pipeline through the modules gives the same table and map.
    topology = namespace["topology"]
    records = module_count_types(ModuleEnsemble(topology, values))
    counts = np.stack((records.c_min, records.c_max, records.c_saddle))
    table = module_summarize(counts, 7)
    assert np.array_equal(namespace["table"], table)
    assert (namespace["p_hat"], namespace["p_lower"], namespace["p_upper"]) == tuple(
        table[1, :, topology.linear(3, 4)])
    assert namespace["svg"] == module_render_map(table, topology)
    # The summary reads back with its metadata and the table to 9 digits.
    assert (namespace["read_topology"], namespace["m"], namespace["gamma"]) == (
        topology, 7, 0.95)
    rounded = np.array([float(f"{x:.9g}") for x in table.ravel().tolist()])
    assert namespace["read_table"].tobytes() == rounded.reshape(table.shape).tobytes()
