"""Shared test helpers: in-process CLI runner, small field builders and summary files."""

import contextlib
import io

import numpy as np
import pytest

from cpci.cli import main as cli_main
from cpci.grid import Ensemble, GridTopology, load_summary, save_ensemble, save_summary


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def grid_field(topology: GridTopology, fn) -> np.ndarray:
    """Row-major field with value fn(i, j) at vertex (i, j)."""
    return np.array(
        [fn(i, j) for j in range(topology.ny) for i in range(topology.nx)],
        dtype=np.float64,
    )


def write_egf(path, topology: GridTopology, members) -> None:
    with open(path, "wb") as handle:
        save_ensemble(Ensemble(topology, np.atleast_2d(members)), handle)


def load_summary_file(path):
    """`load_summary` of the file at `path`: (topology, table, m, gamma)."""
    with open(path, "rb") as source:
        return load_summary(source)


def save_summary_file(path, table, topology: GridTopology, m: int, gamma: float) -> None:
    with open(path, "wb") as sink:
        save_summary(table, topology, m, gamma, sink)


@pytest.fixture
def topo33() -> GridTopology:
    return GridTopology(3, 3)
