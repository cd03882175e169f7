"""Confidence intervals for critical points in piecewise-linear field ensembles.

The pipeline: classify each ensemble member's vertices as minimum,
maximum, saddle, or regular on the triangulated grid (`critical`),
count occurrences per vertex into a (3, n) array, turn the counts into
one (3, 3, n) table of point estimates and Jeffreys interval bounds
(`stats`), and render that table as a sunburst glyph map (`render`).
`synth` fits a Gaussian model to a seed ensemble and draws synthetic
ensembles for validation; `cli` wires it all into the `cpci` command.
"""

# Each module's __all__ is its public API; PEP 8 allows star imports to republish it.
from . import critical, grid, render, stats, synth
from .critical import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .render import *  # noqa: F401,F403
from .stats import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*critical.__all__, *grid.__all__, *render.__all__, *stats.__all__,
           *synth.__all__, "__version__"]
