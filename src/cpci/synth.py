"""Gaussian ensemble synthesis from estimated first and second moments.

The sample covariance of an m-member ensemble has rank at most m - 1,
so it is kept in low-rank factor form: an n x r matrix F with F F^T
equal to the covariance.  Sampling never materializes the n x n matrix.

Members are drawn from counter-based substreams keyed by
(seed, member index), so a member's values depend only on that pair:
sequential and parallel generation produce identical ensembles, and
member k of a size-10 draw equals member k of a size-1000 draw.

Models are stored as MMF text through `grid.read_blocks` and
`grid.write_blocks`: the header states r, and the mean block plus r
factor-column blocks follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .critical import _member_chunk, _tally
from .grid import Ensemble, GridTopology, read_blocks, write_blocks
from .stats import ConfidenceLevel, DEFAULT_LEVEL, summarize

__all__ = [
    "MomentModel",
    "estimate_moments",
    "sample_ensemble",
    "ground_truth_probabilities",
    "save_moment_model",
    "load_moment_model",
]

_SEED_MAX = 1 << 64


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < _SEED_MAX:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return int(seed)


@dataclass(frozen=True, eq=False)
class MomentModel:
    """Mean vector and covariance factor of a Gaussian field model.

    `factor` has one column per source member; `factor @ factor.T` is
    the unbiased sample covariance of the source ensemble.
    """

    topology: GridTopology
    mean: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        factor = np.asarray(self.factor, dtype=np.float64)
        n = self.topology.n
        if mean.shape != (n,):
            raise ValueError(f"mean must have shape ({n},), got {mean.shape}")
        if factor.ndim != 2 or factor.shape[0] != n or factor.shape[1] < 1:
            raise ValueError(
                f"factor must have shape ({n}, r) with r >= 1, got {factor.shape}")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(factor)):
            raise ValueError("moment model contains non-finite values")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "factor", factor)

    @property
    def rank_bound(self) -> int:
        """Number of factor columns r."""
        return self.factor.shape[1]


def estimate_moments(e: Ensemble) -> MomentModel:
    """Fit mean and covariance factor to an ensemble of at least 2 members."""
    if e.m < 2:
        raise ValueError(f"moment estimation needs m >= 2 members, got {e.m}")
    mean = e.values.mean(axis=0)
    factor = (e.values - mean).T / math.sqrt(e.m - 1)
    return MomentModel(topology=e.topology, mean=mean, factor=factor)


def _draw_members(model: MomentModel, start: int, stop: int, seed: int) -> np.ndarray:
    # One generator, re-keyed per member: key [seed, k], counter 0 and an
    # empty buffer, exactly the state of a fresh Philox(key=[seed, k]).
    r = model.factor.shape[1]
    z = np.empty((stop - start, r))
    bit_generator = np.random.Philox(key=np.array([seed, start], dtype=np.uint64))
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    key = state["state"]["key"]
    for k in range(start, stop):
        key[1] = k
        bit_generator.state = state
        rng.standard_normal(out=z[k - start])
    return model.mean + z @ model.factor.T


def sample_ensemble(model: MomentModel, m_out: int, seed: int = 0) -> Ensemble:
    """Draw m_out members from the Gaussian model, deterministically in seed."""
    seed = _check_seed(seed)
    if m_out < 1:
        raise ValueError(f"m_out must be >= 1, got {m_out}")
    return Ensemble(model.topology, _draw_members(model, 0, m_out, seed))


def ground_truth_probabilities(
    model: MomentModel,
    n_draws: int,
    seed: int = 0,
    level: ConfidenceLevel = DEFAULT_LEVEL,
) -> np.ndarray:
    """Monte-Carlo reference probabilities from a large synthetic ensemble.

    Classifies n_draws fresh members and summarizes per-vertex counts
    into the (3, 3, n) table of `stats.summarize`;
    interval widths shrink like 1/sqrt(n_draws), collapsing toward the
    model's true type probabilities.  Members are generated in chunks,
    so memory stays bounded for large n_draws.
    """
    seed = _check_seed(seed)
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    chunk = _member_chunk(model.topology.n)
    counts = _tally(
        (_draw_members(model, start, min(start + chunk, n_draws), seed)
         for start in range(0, n_draws, chunk)),
        model.topology)
    return summarize(counts, n_draws, level)


def save_moment_model(model: MomentModel, sink: IO[bytes]) -> None:
    """Write MMF text: magic, `nx ny r` header, mean block, r factor blocks."""
    write_blocks(sink, "MMF1", model.topology, model.rank_bound,
                 (model.mean, *model.factor.T))


def _mmf_block_name(k: int, r: int) -> str:
    return f"factor block {k} of {r}" if k else "mean block"


def load_moment_model(source: IO[bytes]) -> MomentModel:
    """Parse an MMF stream written by save_moment_model."""
    topology, values = read_blocks(source, "MMF1", "nx ny r", _mmf_block_name, extra=1)
    # Copies, so the model holds no view of the parse buffer; a C-contiguous
    # (n, r) factor keeps `z @ factor.T` bit-identical.
    return MomentModel(topology, values[0].copy(), np.ascontiguousarray(values[1:].T))
