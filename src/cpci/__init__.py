"""Confidence intervals for critical points in piecewise-linear field ensembles.

The pipeline: classify each ensemble member's vertices as minimum,
maximum, saddle, or regular on the triangulated grid (`critical`),
count occurrences per vertex into a (3, n) array, turn the counts into
one (3, 3, n) table of point estimates and Jeffreys interval bounds
(`stats`), and render that table as a sunburst glyph map (`render`).
`synth` fits a Gaussian model to a seed ensemble and draws synthetic
ensembles for validation; `cli` wires it all into the `cpci` command.
"""

from .critical import (
    CriticalType,
    TYPE_CODES,
    classify_field,
    classify_vertex,
    compare_vertices,
    count_types,
)
from .grid import (
    Ensemble,
    GridTopology,
    ParseError,
    VertexLink,
    build_link,
    load_ensemble,
    save_ensemble,
)
from .render import (
    GlyphStyle,
    SECTORS,
    glyph_radius,
    render_map,
)
from .stats import (
    ConfidenceLevel,
    CoverageReport,
    DEFAULT_LEVEL,
    IntervalEstimate,
    beta_quantile,
    coverage_experiment,
    jeffreys_interval,
    point_estimate,
    regularized_incomplete_beta,
    summarize,
)
from .synth import (
    MomentModel,
    estimate_moments,
    ground_truth_probabilities,
    load_moment_model,
    sample_ensemble,
    save_moment_model,
)

__version__ = "0.1.0"

__all__ = [
    "CriticalType",
    "TYPE_CODES",
    "classify_field",
    "classify_vertex",
    "compare_vertices",
    "count_types",
    "Ensemble",
    "GridTopology",
    "ParseError",
    "VertexLink",
    "build_link",
    "load_ensemble",
    "save_ensemble",
    "GlyphStyle",
    "SECTORS",
    "glyph_radius",
    "render_map",
    "ConfidenceLevel",
    "CoverageReport",
    "DEFAULT_LEVEL",
    "IntervalEstimate",
    "beta_quantile",
    "coverage_experiment",
    "jeffreys_interval",
    "point_estimate",
    "regularized_incomplete_beta",
    "summarize",
    "MomentModel",
    "estimate_moments",
    "ground_truth_probabilities",
    "load_moment_model",
    "sample_ensemble",
    "save_moment_model",
    "__version__",
]
