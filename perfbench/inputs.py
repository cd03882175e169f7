"""Seeded workload inputs, written by the benchmark's own EGF writer.

Inputs never come from `cpci.synth` or `cpci.grid.save_ensemble`, so a
change to the program's sampler or writer cannot change what it is
measured on.  Each generated file is parsed back through
`cpci.grid.load_ensemble` and must reproduce the generated array bit for
bit before it is used.

Generated files are cached under the checkout, keyed by workload, seed
and generator version; only the newest few entries are kept.

Run as a script (by run.py, in a child process) it prints one JSON line
with the input paths and their properties:

    python3 perfbench/inputs.py --workload deep --seed 0 --cache .perfbench/cache
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import numpy as np

import workloads

CACHE_ENTRIES = 4
_ROWS_PER_WRITE = 4096


def _rng(seed: int, role: int) -> np.random.Generator:
    return np.random.default_rng([seed, workloads.GENERATOR_VERSION, role])


def smooth_field(rng: np.random.Generator, nx: int, ny: int) -> np.ndarray:
    """Sum of six random separable sinusoids: many extrema and saddles."""
    y, x = np.mgrid[0:ny, 0:nx] / max(nx, ny)
    base = np.zeros((ny, nx))
    for _ in range(6):
        kx, ky = rng.uniform(1.0, 6.0, 2)
        px, py = rng.uniform(0.0, 2.0 * np.pi, 2)
        amp = rng.uniform(0.5, 1.5)
        base += amp * np.sin(2 * np.pi * kx * x + px) * np.cos(2 * np.pi * ky * y + py)
    return base.ravel()


def ensemble_values(rng, nx, ny, m, noise, step=None) -> np.ndarray:
    """(m, nx*ny) members: one smooth field plus independent normal noise.

    With `step`, values are integer multiples of it (never -0.0), so
    neighbouring vertices tie often.
    """
    values = smooth_field(rng, nx, ny) + noise * rng.standard_normal((m, nx * ny))
    if step is not None:
        values = np.rint(values / step).astype(np.int64) * step
    return values


def seed_values(seed: int) -> np.ndarray:
    """The 16x16, 21-member ensemble every workload's `synth fit` reads."""
    nx, ny, m = workloads.SEED_SHAPE
    return ensemble_values(_rng(seed, 2), nx, ny, m, noise=0.3)


def main_values(workload: str, seed: int, tiny: bool = False) -> np.ndarray | None:
    main = workloads.spec(workload, tiny)["main"]
    if main is None:
        return None
    return ensemble_values(_rng(seed, 1), main["nx"], main["ny"], main["m"],
                           main["noise"], main["step"])


def _row_strings(rows: np.ndarray, step: float | None) -> list[str]:
    if step is None:
        fmt = " ".join(["%.17g"] * rows.shape[1])
        return [fmt % tuple(row) for row in rows.tolist()]
    # Quantised values: format each distinct multiple once.
    k = np.rint(rows / step).astype(np.int64)
    lo = int(k.min())
    table = np.array(["%.17g" % (i * step) for i in range(lo, int(k.max()) + 1)],
                     dtype=object)
    return [" ".join(row) for row in table[k - lo].tolist()]


def write_egf(path: str, values: np.ndarray, nx: int, ny: int,
              step: float | None = None) -> None:
    """EGF text with every value at 17 significant digits (exact roundtrip)."""
    rows = values.reshape(-1, nx)
    with open(path, "wb") as handle:
        handle.write(f"EGF1\n{nx} {ny} {values.shape[0]}\n".encode())
        for start in range(0, rows.shape[0], _ROWS_PER_WRITE):
            block = _row_strings(rows[start:start + _ROWS_PER_WRITE], step)
            handle.write(("\n".join(block) + "\n").encode())


def tie_share(values: np.ndarray, nx: int, ny: int) -> float:
    """Share of triangulation edges (right, up, diagonal) whose ends tie."""
    f = values.reshape(-1, ny, nx)
    ties = ((f[:, :, 1:] == f[:, :, :-1]).sum() + (f[:, 1:, :] == f[:, :-1, :]).sum()
            + (f[:, 1:, 1:] == f[:, :-1, :-1]).sum())
    edges = f.shape[0] * (ny * (nx - 1) + (ny - 1) * nx + (ny - 1) * (nx - 1))
    return float(ties) / edges


def _verify(path: str, values: np.ndarray) -> None:
    from cpci.grid import load_ensemble

    with open(path, "rb") as handle:
        parsed = load_ensemble(handle).values
    if parsed.shape != values.shape or not np.array_equal(
            parsed.view(np.uint64), np.ascontiguousarray(values).view(np.uint64)):
        raise SystemExit(f"{path}: load_ensemble does not reproduce the generated values")


def _generate(workload: str, seed: int, tiny: bool, entry: str) -> dict:
    tmp = f"{entry}.tmp-{os.getpid()}"
    os.makedirs(tmp)
    try:
        props = {}
        nx, ny, _ = workloads.SEED_SHAPE
        files = {"seed": (seed_values(seed), nx, ny, None)}
        main = workloads.spec(workload, tiny)["main"]
        if main is not None:
            files["main"] = (main_values(workload, seed, tiny), main["nx"], main["ny"],
                             main["step"])
        for role, (values, fnx, fny, step) in files.items():
            path = os.path.join(tmp, f"{role}.egf")
            t0 = time.perf_counter()
            write_egf(path, values, fnx, fny, step)
            write_s = time.perf_counter() - t0
            _verify(path, values)
            props[role] = {
                "bytes": os.path.getsize(path), "nx": fnx, "ny": fny,
                "m": int(values.shape[0]), "n": fnx * fny,
                "tie_share": round(tie_share(values, fnx, fny), 6),
                "write_s": round(write_s, 3),
            }
        with open(os.path.join(tmp, "props.json"), "w") as handle:
            json.dump(props, handle)
        os.rename(tmp, entry)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return props


def _evict(cache: str, keep: str) -> None:
    entries = [os.path.join(cache, name) for name in os.listdir(cache)]
    complete = [e for e in entries if os.path.isfile(os.path.join(e, "props.json"))]
    complete.sort(key=os.path.getmtime, reverse=True)
    for old in complete[CACHE_ENTRIES:]:
        if old != keep:
            shutil.rmtree(old, ignore_errors=True)


def prepare(workload: str, seed: int, cache: str, tiny: bool = False) -> dict:
    """Paths of the workload's verified inputs, generating them if needed."""
    os.makedirs(cache, exist_ok=True)
    name = f"{workload}{'-tiny' if tiny else ''}-s{seed}-g{workloads.GENERATOR_VERSION}"
    entry = os.path.join(cache, name)
    props_path = os.path.join(entry, "props.json")
    cached = os.path.isfile(props_path)
    if cached:
        with open(props_path) as handle:
            props = json.load(handle)
        os.utime(entry)
    else:
        props = _generate(workload, seed, tiny, entry)
    _evict(cache, entry)
    paths = {role: os.path.join(entry, f"{role}.egf") for role in props}
    return {"paths": paths, "props": props, "cached": cached}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(dll, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    result = prepare(args.workload, args.seed, args.cache, args.tiny)
    result["numpy"] = np.__version__
    result["blas_threads"] = blas_threads()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
