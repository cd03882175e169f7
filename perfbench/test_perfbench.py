"""Smoke tests of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q

Run from the root of the checkout; each test launches run.py the way a
user does and reads its last two output lines.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _run(args: list[str], cwd: str = ROOT, code: str | None = None):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args] if code is None \
        else [sys.executable, "-c", code, *args]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    return proc, lines


def _tiny(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace),
            "--tiny"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, lines = _run(_tiny(workload, trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])["context"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(workloads.COMMANDS) * (1 + trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert context["rss_self_check"]["ok"]
    assert context["seed"] == 5 and context["nproc"] >= 1
    if trace:
        # Span self times add up to each command's span.
        assert context["trace_residual_s"] < 1e-6


def test_corrupted_output_is_a_failed_op_and_exits_nonzero():
    corrupt = (
        "import sys; sys.path.insert(0, 'perfbench'); import run\n"
        "def truncate(name, out):\n"
        "    if name == 'estimate':\n"
        "        with open(out, 'r+b') as handle:\n"
        "            handle.truncate(handle.seek(0, 2) - 30)\n"
        "run.after_command = truncate\n"
        "sys.exit(run.main(sys.argv[1:]))\n")
    proc, lines = _run(_tiny("wide", 0), code=corrupt)
    assert proc.returncode == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] == len(workloads.COMMANDS)
    assert "estimate output check failed" in proc.stderr


def test_recount_oracle_rejects_a_wrong_count():
    from cpci.critical import count_types
    from cpci.grid import Ensemble, GridTopology

    rng = np.random.default_rng(0)
    values = np.rint(rng.normal(size=(30, 7 * 5)) * 2) / 2   # many ties
    tallies = count_types(Ensemble(GridTopology(7, 5), values))
    counts = np.array([[t.c_min, t.c_max, t.c_saddle] for t in tallies]).T
    every_vertex = np.arange(35)
    check.check_recount(values, 7, 5, counts, every_vertex)
    counts[2, 17] += 1
    with pytest.raises(check.CheckError):
        check.check_recount(values, 7, 5, counts, every_vertex)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _run(_tiny("truth", 0), cwd=str(tmp_path))
    assert proc.returncode != 0
    assert lines == []
