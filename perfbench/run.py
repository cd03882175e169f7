"""cpci benchmark: seeded workloads through the real CLI, checked and timed.

    python3 perfbench/run.py --workload wide --seed 0 --seconds 20 --trace 0

Run from the root of a cpci checkout.  run.py generates the
workload's inputs from --seed (in a child process, cached between runs),
then runs the workload's pipeline of `python -m cpci` commands, one
after another (a closed loop with one client), until --seconds of
pipeline time have passed.  Every output is checked: the first pass in
full by check.py, later passes by digest against the first.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1
alternates untraced passes with traced ones, in which every command runs
in a fresh tracer.py process, and reports the per-layer metrics.

This process imports only the standard library and holds no workload data,
so the peak RSS of the CLI children it launches is their own; a
self-check compares `cpci --help` launched from here with a clean launch.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the run
context.  The exit code is 0 when every output check passed, 1 when one
failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
HELP_RUNS = 5            # --help launches before the passes ...
HELP_PER_PASS = 2        # ... and after each pass; setup_s is their median
WARMUP_SECONDS = 3.0     # unmeasured --help launches before any timing
RSS_TOLERANCE_MB = 5.0   # allowed gap between our and a clean --help RSS
PROBE_MEMBERS = 5000     # sampler probe: the first draws of the truth stream
MB = 2 ** 20

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

_CLEAN_LAUNCH = """\
import os, sys
devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "cpci", "--help"],
                     os.environ, file_actions=devnull)
print(os.wait4(pid, 0)[2].ru_maxrss)
"""


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Launcher:
    """Starts children from the checkout root with `src` on PYTHONPATH."""

    def __init__(self, root: str, work: str):
        self.root, self.work = root, work
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self._stderr = os.path.join(work, "stderr.txt")

    def launch(self, argv: list[str]) -> dict:
        """Run one child to completion: wall seconds, peak RSS and exit code."""
        with open(self._stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(self._stderr, "rb") as err:
                tail = err.read()[-2000:].decode("utf-8", "replace")
            print(f"perfbench: {' '.join(argv[1:4])} exited {proc.returncode}: {tail}",
                  file=sys.stderr)
        return {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024,
                "exit": proc.returncode}

    def helper(self, script: str, *args: str) -> dict:
        """Run one of the benchmark's numpy helpers; parse its JSON line."""
        proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                              env=self.env, cwd=self.root, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"{script} failed ({proc.returncode}): {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def cli(self, argv: list[str]) -> list[str]:
        return [sys.executable, "-m", "cpci", *argv]


def digest(path: str) -> str | None:
    """SHA-256 of a file, or of a directory's sorted names and contents."""
    if not os.path.exists(path):
        return None
    files = [path] if os.path.isfile(path) else [
        os.path.join(path, name) for name in sorted(os.listdir(path))]
    h = hashlib.sha256()
    for name in files:
        h.update(os.path.basename(name).encode() + b"\0")
        with open(name, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def output_mb(path: str) -> float:
    if os.path.isfile(path):
        return os.path.getsize(path) / MB
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path)) / MB


def clear_outputs(commands) -> None:
    for _, _, out in commands:
        if os.path.isdir(out):
            shutil.rmtree(out)
        elif os.path.exists(out):
            os.unlink(out)


def after_command(name: str, output: str) -> None:
    """Hook between a command and its check; tests replace it to corrupt output."""


def run_pass(launcher: Launcher, commands, traced: bool, pass_index: int) -> list[dict]:
    clear_outputs(commands)
    records = []
    for name, argv, out in commands:
        if traced:
            spans = os.path.join(launcher.work, f"spans-{pass_index}-{name}.json")
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), "command", spans, "--", *argv]
        else:
            cmd = launcher.cli(argv)
        record = launcher.launch(cmd)
        after_command(name, out)
        record.update(name=name, digest=digest(out))
        if traced and record["exit"] == 0:
            with open(spans) as handle:
                record["spans"] = json.load(handle)["spans"]
        records.append(record)
    return records


def rss_self_check(launcher: Launcher, help_runs: list[dict]) -> dict:
    clean = subprocess.run([sys.executable, "-S", "-c", _CLEAN_LAUNCH], env=launcher.env,
                           cwd=launcher.root, capture_output=True, text=True, check=True)
    clean_mb = int(clean.stdout.split()[-1]) / 1024
    launcher_mb = statistics.median(r["rss_mb"] for r in help_runs)
    return {"launcher_mb": launcher_mb, "clean_mb": clean_mb,
            "ok": abs(launcher_mb - clean_mb) <= RSS_TOLERANCE_MB}


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return None


def run_context(root: str, seed: int, inputs: dict) -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    git = {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        if sha.returncode == 0:
            status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                    capture_output=True, text=True, timeout=30)
            git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git": git, "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "caches": caches, "python": platform.python_version(), "numpy": inputs["numpy"],
        "openblas_threads": inputs["blas_threads"],
        "openblas_env": os.environ.get("OPENBLAS_NUM_THREADS"), "seed": seed,
        "inputs": inputs["props"], "inputs_cached": inputs["cached"],
    }


def _span_totals(records: list[dict]) -> dict:
    """Per-layer sums over one traced pass."""
    total: dict = {}
    for record in records:
        for span in record.get("spans", []):
            entry = total.setdefault(span["name"], {})
            for key, value in span.items():
                if key not in ("name", "parent") and isinstance(value, (int, float)):
                    entry[key] = entry.get(key, 0) + value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(untraced: list[list[dict]], traced: list[list[dict]],
                  outputs: dict, counts: dict, probe: dict) -> dict:
    per_pass = []
    for plain, records in zip(untraced, traced):
        t = _span_totals(records)

        def get(name, key="seconds"):
            return t.get(name, {}).get(key, 0)

        values = {
            "grid.load_ensemble_s": get("grid.load_ensemble"),
            "grid.parse_mb_per_s": _ratio(get("grid.load_ensemble", "bytes") / MB,
                                          get("grid.load_ensemble")),
            "grid.save_ensemble_s": get("grid.save_ensemble"),
            "grid.save_moment_model_s": get("grid.save_moment_model"),
            "critical.count_types_s": get("critical.count_types"),
            "critical.member_vertices_per_s": _ratio(
                get("critical.count_types", "member_vertices"), get("critical.count_types")),
            "stats.summarize_s": get("stats.summarize"),
            "stats.summarize_calls": get("stats.summarize", "calls"),
            "render.render_map_s": get("render.render_map"),
            "render.glyphs_per_s": _ratio(get("render.render_map", "glyphs"),
                                          get("render.render_map")),
            "render.svg_mb": get("render.render_map", "chars") / MB,
            "synth.ground_truth_s": get("synth.ground_truth"),
            "synth.sample_ensemble_s": get("synth.sample_ensemble"),
            "synth.load_moment_model_s": get("synth.load_moment_model"),
            "synth.estimate_moments_s": get("synth.estimate_moments"),
            "trace_overhead_s": sum(r["seconds"] for r in records)
            - sum(r["seconds"] for r in plain),
        }
        for record in records:
            root = next(s for s in record.get("spans", []) if s["parent"] is None) \
                if record.get("spans") else None
            values[f"cli.{record['name']}.self_s"] = root["self_seconds"] if root else 0.0
        per_pass.append(values)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    for name, path_mb in outputs.items():
        metrics[f"cli.{name}.output_mb"] = path_mb
    for name in workloads.COMMANDS:
        metrics[f"cli.{name}.wall_s"] = statistics.median(
            r["seconds"] for p in untraced for r in p if r["name"] == name)
    metrics.update({
        "critical.shape_setup_s": probe["shape_setup_s"],
        "critical.count_types_peak_mb": probe["count_types_peak_mb"],
        "grid.load_ensemble_peak_mb": probe["load_ensemble_peak_mb"],
        "stats.beta_quantile_s": probe["beta_quantile_s"],
        "stats.distinct_counts": counts["distinct_counts"],
        "stats.pinned_share": counts["pinned_share"],
        "synth.members_per_s": probe["members_per_s"],
    })
    return metrics


def end_to_end_metrics(help_runs: list[dict], passes: list[list[dict]]) -> dict:
    return {
        "setup_s": statistics.median(r["seconds"] for r in help_runs),
        "wall_s": statistics.median(sum(r["seconds"] for r in p) for p in passes),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p) for p in passes),
    }


def layer_units() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def trace_residual(records: list[dict]) -> float:
    """Largest gap between a command's span and the sum of its spans' self times."""
    worst = 0.0
    for record in records:
        spans = record.get("spans", [])
        if spans:
            root = next(s for s in spans if s["parent"] is None)
            worst = max(worst, abs(sum(s["self_seconds"] for s in spans) - root["seconds"]))
    return worst


def check_outputs(args, launcher: Launcher, outputs: dict) -> dict:
    """Full output check of one pass, in a child; reports failures on stderr."""
    spec_path = os.path.join(launcher.work, "check.json")
    with open(spec_path, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
                   "outputs": outputs}, handle)
    check = launcher.helper("check.py", spec_path)
    for name, errors in check["results"].items():
        for error in errors:
            print(f"perfbench: {name} output check failed: {error}", file=sys.stderr)
    return check


def run_probes(args, launcher: Launcher, commands, distinct_pairs: list) -> dict:
    """Per-layer probes on the last pass's inputs and model, in a fresh process."""
    w = workloads.spec(args.workload, args.tiny)
    main = w["main"]
    estimate = next(argv for name, argv, _ in commands if name == "estimate")
    fit = next(out for name, _, out in commands if name == "fit")
    spec_path = os.path.join(launcher.work, "probe.json")
    with open(spec_path, "w") as handle:
        json.dump({
            "shape": [main["nx"], main["ny"]] if main else list(workloads.SEED_SHAPE[:2]),
            "estimate_input": estimate[estimate.index("--input") + 1],
            "model": fit,
            "distinct_pairs": distinct_pairs,
            "probe_members": min(PROBE_MEMBERS, w["draws"]),
            "seed": args.seed,
        }, handle)
    out_path = os.path.join(launcher.work, "probe-out.json")
    result = launcher.launch([sys.executable, os.path.join(HERE, "tracer.py"), "probe",
                              out_path, spec_path])
    if result["exit"] != 0:
        raise BenchError("tracer.py probe failed")
    with open(out_path) as handle:
        return json.load(handle)


def run(args, launcher: Launcher) -> tuple[dict, dict]:
    inputs = launcher.helper("inputs.py", "--workload", args.workload, "--seed", str(args.seed),
                             "--cache", os.path.join(args.state, "cache"),
                             *(["--tiny"] if args.tiny else []))
    context = run_context(launcher.root, args.seed, inputs)

    # Shared virtual CPUs can run slower for the first seconds after idling;
    # keep them busy with unmeasured launches before timing anything.
    warm_until = time.perf_counter() + (0.0 if args.tiny else WARMUP_SECONDS)
    while time.perf_counter() < warm_until:
        launcher.launch(launcher.cli(["--help"]))
    help_runs = [launcher.launch(launcher.cli(["--help"])) for _ in range(HELP_RUNS)]
    if any(r["exit"] != 0 for r in help_runs):
        raise BenchError("`python -m cpci --help` failed")
    context["rss_self_check"] = rss_self_check(launcher, help_runs)
    if not context["rss_self_check"]["ok"]:
        raise BenchError(f"--help RSS launched from here differs from a clean launch: "
                         f"{context['rss_self_check']}")

    commands = workloads.pipeline(args.workload, args.seed, inputs["paths"], launcher.work,
                                  args.tiny)
    outputs = {name: out for name, _, out in commands}
    attempted = failed = 0
    untraced, traced = [], []
    good_digest: dict = {}
    check = None
    measured = 0.0
    while True:
        kinds = (False, True) if args.trace else (False,)
        for is_traced in kinds:
            records = run_pass(launcher, commands, is_traced, len(untraced) + len(traced))
            measured += sum(r["seconds"] for r in records)
            if check is None:
                check = check_outputs(args, launcher, outputs)
                good_digest = {
                    r["name"]: r["digest"] for r in records
                    if r["exit"] == 0 and not check["results"][r["name"]]}
            for r in records:
                attempted += 1
                if r["exit"] != 0 or r["digest"] is None \
                        or r["digest"] != good_digest.get(r["name"]):
                    failed += 1
            (traced if is_traced else untraced).append(records)
        help_runs += [launcher.launch(launcher.cli(["--help"])) for _ in range(HELP_PER_PASS)]
        if measured >= args.seconds:
            break

    context["passes"] = {"untraced": len(untraced), "traced": len(traced)}
    context["pass_wall_s"] = [sum(r["seconds"] for r in p) for p in untraced]
    context["distinct_counts"] = check["counts"]["distinct_counts"]
    context["pinned_share"] = check["counts"]["pinned_share"]
    if failed and args.trace:
        # Spans of failed commands are incomplete; report no layer metrics.
        return context, {"correct": False, "attempted": attempted, "failed": failed,
                         "metrics": {}}

    if args.trace:
        probe = run_probes(args, launcher, commands, check["counts"]["distinct_pairs"])
        sizes = {name: output_mb(path) for name, path in outputs.items()}
        values = layer_metrics(untraced, traced, sizes, check["counts"], probe)
        context["trace_residual_s"] = max(trace_residual(p) for p in traced)
        units = layer_units()
    else:
        values = end_to_end_metrics(help_runs, untraced)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return context, {"correct": not failed, "attempted": attempted, "failed": failed,
                     "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (no pinned digests)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be a non-negative 64-bit integer")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cpci", "cli.py")):
        print("perfbench: run from the root of a cpci checkout (src/cpci/cli.py not found)",
              file=sys.stderr)
        return 2
    args.state = os.path.join(root, ".perfbench")
    os.makedirs(args.state, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=args.state)
    try:
        context, result = run(args, Launcher(root, work))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
