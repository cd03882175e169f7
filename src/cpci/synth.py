"""Gaussian ensemble synthesis from estimated first and second moments.

The sample covariance of an m-member ensemble has rank at most m - 1,
so it is kept in low-rank factor form: an n x r matrix F with F F^T
equal to the covariance.  Sampling never materializes the n x n matrix.

Members are drawn from one counter-based Philox stream per seed (stream
version 2): with r factor columns and B = r rounded up to a multiple of
4, member k is built from uniforms k*B to (k+1)*B - 1 of the stream keyed
[seed, 0], by the Box-Muller transform.  A member's values depend only
on the seed and its index: a chunk of members is one counter jump and
one block draw, chunked and whole draws give identical ensembles, and
member k of a size-10 draw equals member k of a size-1000 draw.

Models are stored as MMF text through `grid.stream_blocks` and
`grid.write_blocks`: the header states r, and the mean block plus r
factor-column blocks follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .critical import _member_chunk, _tally
from .grid import Ensemble, GridTopology, stream_blocks, write_blocks
from .stats import ConfidenceLevel, DEFAULT_LEVEL, _check_integer, _check_seed, summarize

__all__ = [
    "MomentModel",
    "estimate_moments",
    "sample_ensemble",
    "ground_truth_probabilities",
    "save_moment_model",
    "load_moment_model",
]

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
    # Stream version 2: member k owns uniforms [k*B, (k+1)*B) of one Philox
    # stream keyed [seed, 0], with B = r rounded up to a multiple of 4 so a
    # block is whole 4-word counters and `advance` can address it (Random123:
    # Salmon et al., SC'11).  Box-Muller turns the block's first half into
    # radii and its second half into angles; ziggurat draws are rejection-
    # sampled, so their consumption is not fixed and could not be addressed.
    r = model.factor.shape[1]
    width = -(-r // 4) * 4
    half = width // 2
    bit_generator = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    bit_generator.advance(start * width // 4)
    # At least two rows: numpy sends a one-row product to BLAS gemv, whose
    # sums can differ in the last bit from gemm's, which would break the
    # prefix property for a single member.
    u = np.random.Generator(bit_generator).random((max(stop - start, 2), width))
    radius, angle = u[:, :half], u[:, half:]
    # sqrt(-2 log(1 - u)) with u in [0, 1): log1p(-u) is always finite.
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * math.pi
    z = np.empty_like(u)
    np.cos(angle, out=z[:, :half])
    np.sin(angle, out=z[:, half:])
    z[:, :half] *= radius
    z[:, half:] *= radius
    # `mean + z @ factor.T` with one (k, n) array instead of two: IEEE
    # addition is commutative, so the sums are the same.  An overflow is
    # reported by the check below, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        out = z[:, :r] @ model.factor.T
        out += model.mean
    out = out[:stop - start]
    # The `Ensemble` test: min and max propagate NaN and +-inf.
    if not (np.isfinite(out.min()) and np.isfinite(out.max())):
        raise ValueError("the moment model's draws overflow float64")
    return out


def sample_ensemble(model: MomentModel, m_out: int, seed: int = 0) -> Ensemble:
    """Draw m_out members from the Gaussian model, deterministically in seed."""
    seed = _check_seed(seed)
    _check_integer("m_out", m_out)
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
    so memory stays bounded for large n_draws.  A model whose draws
    overflow float64 is a ValueError, as in `sample_ensemble`.
    """
    seed = _check_seed(seed)
    _check_integer("n_draws", n_draws)
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
    topology, _, (values,) = stream_blocks(source, "MMF1", "nx ny r", _mmf_block_name, extra=1)
    # Copies, so the model holds no view of the parse buffer; a C-contiguous
    # (n, r) factor keeps `z @ factor.T` bit-identical.
    return MomentModel(topology, values[0].copy(), np.ascontiguousarray(values[1:].T))
