"""Sunburst-glyph SVG rendering of per-vertex probability tables.

Each vertex gets a disk split into three fixed 120-degree sectors,
counterclockwise from the positive x axis: Maximum [90, 210), Minimum
[210, 330), Saddle [330, 450).  Sector radii encode probability as
r_max * sqrt(p), so swept area is proportional to p.  Per sector the
paint order is: light fill out to p_upper, dark fill out to p_lower on
top of it, then a black arc stroked at the point estimate's radius.
Zero probabilities emit no geometry.

`render_map_pieces` reads the (3, 3, n) table of `stats.summarize`,
indexed [type (min, max, sad), stat (hat, lo, hi), vertex].  A glyph
depends only on its vertex's nine values, so vertices are keyed by the
exact bits of those values (`grid.keyed_text`) and each distinct
glyph body is formatted once; within it, a path depends only on its
sector, its role and one probability, so each distinct probability's
path is formatted once too.  The document is the header, then per
vertex its opening tag and the shared body of its key, then the legend,
as pieces made while they are iterated.  A writer encodes them one at a
time, so neither the SVG text nor a list of its pieces is ever held;
`render_map` is their `"".join`.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grid import GridTopology, keyed_text

__all__ = [
    "GlyphStyle",
    "SECTORS",
    "glyph_radius",
    "render_map",
]

SECTORS = (("max", 90.0, 210.0), ("min", 210.0, 330.0), ("sad", 330.0, 450.0))

_TYPE_LABELS = {"max": "Maximum", "min": "Minimum", "sad": "Saddle"}
_TABLE_ROWS = {"min": 0, "max": 1, "sad": 2}   # type axis of the summary table
_REFERENCE_PROBS = (0.25, 0.5, 0.75, 1.0)
_MARGIN = 30.0
_ARC_STROKE = 1.5
_COLORS = {   # (light, dark) fill per type
    "max": ("#F4B6B6", "#C0392B"),
    "min": ("#B6CDF4", "#2B5AC0"),
    "sad": ("#BCE4BC", "#2E8B40"),
}


@dataclass(frozen=True, eq=False)
class GlyphStyle:
    """Glyph radius at p = 1 and grid spacing; r_max <= cell/2 keeps glyphs disjoint."""

    r_max: float = 18.0
    cell: float = 40.0

    def __post_init__(self):
        if not (math.isfinite(self.r_max) and self.r_max > 0):
            raise ValueError(f"r_max must be positive, got {self.r_max!r}")
        if not (math.isfinite(self.cell) and self.cell > 0):
            raise ValueError(f"cell must be positive, got {self.cell!r}")
        if self.r_max > self.cell / 2:
            raise ValueError(
                f"r_max={self.r_max} exceeds cell/2={self.cell / 2}; glyphs would overlap")


def glyph_radius(p: float, r_max: float) -> float:
    """Radius encoding probability p: r_max * sqrt(p), so area tracks p."""
    # numpy scalars are real numbers too; a bool is not a probability.
    real = isinstance(p, (int, float, np.integer, np.floating)) and not isinstance(p, bool)
    if not (real and math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"p={p!r} is not a probability")
    return r_max * math.sqrt(p)


def _fmt(value: float) -> str:
    # 8 significant digits keep parse-back within 1e-6 relative error
    text = format(float(value), ".8g")
    return "0" if text == "-0" else text


def _point(r: float, deg: float) -> tuple[float, float]:
    # SVG y grows downward; negate sin so angles run counterclockwise on screen
    rad = math.radians(deg)
    return r * math.cos(rad), -r * math.sin(rad)


def _arc_path(r: float, start_deg: float, end_deg: float) -> str:
    x1, y1 = _point(r, start_deg)
    x2, y2 = _point(r, end_deg)
    return (
        f"M {_fmt(x1)} {_fmt(y1)} "
        f"A {_fmt(r)} {_fmt(r)} 0 0 0 {_fmt(x2)} {_fmt(y2)}"
    )


def _sector_path(r: float, start_deg: float, end_deg: float) -> str:
    # The arc closed through the centre: a filled sector
    return f"M 0 0 L {_arc_path(r, start_deg, end_deg)[2:]} Z"


def _sector_paths(table: np.ndarray, style: GlyphStyle) -> list[np.ndarray]:
    """Per sector, in paint order (light, dark, arc): the path of every
    column of the (3, 3, k) `table`, "" where the probability is 0.
    Nine (k,) object arrays of strings; `render_map` passes one column
    per distinct glyph, and each distinct probability's path is formatted
    once."""
    arc_paint = f'fill="none" stroke="#000000" stroke-width="{_fmt(_ARC_STROKE)}"'
    pieces = []
    for code, start, end in SECTORS:
        light, dark = _COLORS[code]
        for stat, shape, paint in ((2, _sector_path, f'fill="{light}"'),
                                   (1, _sector_path, f'fill="{dark}"'),
                                   (0, _arc_path, arc_paint)):
            # Called at once by `keyed_text`, so it sees this iteration's values.
            def paths(probs: np.ndarray) -> list[str]:
                radii = [glyph_radius(p, style.r_max) for p in probs.ravel().tolist()]
                return [f'<path d="{shape(r, start, end)}" {paint}/>' if r > 0 else ""
                        for r in radii]
            pieces.append(keyed_text(table[_TABLE_ROWS[code], stat, :, None], paths))
    return pieces


def _legend(style: GlyphStyle, origin_x: float) -> tuple[str, float, float]:
    """Legend fragment plus its (width, height): a three-sector key glyph
    with type labels and reference disks for p in {0.25, 0.5, 0.75, 1}."""
    r = style.r_max
    key_cx = 110.0
    key_cy = _MARGIN + r + 20.0
    parts = [f'<g id="legend" transform="translate({_fmt(origin_x)},0)">']
    key_paths = []
    labels = []
    for code, start, end in SECTORS:
        light, dark = _COLORS[code]
        key_paths.append(
            f'<path d="{_sector_path(r, start, end)}" fill="{light}"'
            f' stroke="{dark}" stroke-width="1"/>')
        mid = 0.5 * (start + end)
        lx, ly = _point(r + 8.0, mid)
        anchor = {"max": "end", "min": "middle", "sad": "start"}[code]
        labels.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" text-anchor="{anchor}"'
            f' dominant-baseline="middle" font-family="sans-serif" font-size="12">'
            f"{_TYPE_LABELS[code]}</text>")
    parts.append(f'<g transform="translate({_fmt(key_cx)},{_fmt(key_cy)})">')
    parts.extend(key_paths)
    parts.extend(labels)
    parts.append("</g>")
    disk_y = key_cy + r + 50.0
    disk_gap = 2.0 * r + 18.0
    for k, p in enumerate(_REFERENCE_PROBS):
        cx = 30.0 + r + k * disk_gap
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(disk_y)}" r="{_fmt(glyph_radius(p, r))}"'
            f' fill="none" stroke="#888888" stroke-width="1"/>')
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(disk_y + r + 16.0)}" text-anchor="middle"'
            f' font-family="sans-serif" font-size="11">p={_fmt(p)}</text>')
    parts.append("</g>")
    width = max(2 * key_cx, 30.0 + r + 3 * disk_gap + r + 30.0)
    height = disk_y + r + 30.0
    return "\n".join(parts), width, height


def render_map(table: np.ndarray, topology: GridTopology,
               style: GlyphStyle = GlyphStyle()) -> str:
    """Full SVG document: the `"".join` of `render_map_pieces`."""
    return "".join(render_map_pieces(table, topology, style))


def render_map_pieces(
    table: np.ndarray,
    topology: GridTopology,
    style: GlyphStyle = GlyphStyle(),
) -> Iterator[str]:
    """SVG document, one glyph per vertex plus the legend, as text pieces.

    `table` is the (3, 3, n) probability table of `stats.summarize`.
    Vertex (i, j) is centered at (margin + i*cell, margin + (ny-1-j)*cell),
    so j increases upward on screen.  Output is byte-stable for fixed
    inputs; glyph groups appear in linear vertex order.  The table and
    canvas are checked, and each distinct glyph body formatted, when this
    is called; the pieces are made as they are iterated.
    """
    nx, ny, n = topology.nx, topology.ny, topology.n
    table = np.asarray(table, dtype=np.float64)
    if table.shape != (3, 3, n):
        raise ValueError(
            f"expected a (3, 3, {n}) table for {nx}x{ny} grid, got shape {table.shape}")
    grid_w = 2 * _MARGIN + (nx - 1) * style.cell
    grid_h = 2 * _MARGIN + (ny - 1) * style.cell
    legend, legend_w, legend_h = _legend(style, grid_w)
    width = grid_w + legend_w
    height = max(grid_h, legend_h)
    if not (math.isfinite(width) and math.isfinite(height)):
        raise ValueError(f"a {nx}x{ny} map at cell={style.cell!r}, r_max={style.r_max!r} "
                         f"overflows the SVG canvas ({width} by {height})")
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
    )
    xs = [_fmt(_MARGIN + i * style.cell) for i in range(nx)]
    ys = [_fmt(_MARGIN + (ny - 1 - j) * style.cell) for j in range(ny)]

    def glyph_rests(distinct: np.ndarray) -> list[str]:
        bodies = ("\n".join(filter(None, paths))
                  for paths in zip(*_sector_paths(distinct.T.reshape(3, 3, -1), style)))
        return [f"\n{body}\n</g>\n" if body else "</g>\n" for body in bodies]
    # Per vertex: its own opening tag, then the shared rest of its glyph.
    rests = keyed_text(table.reshape(9, n).T, glyph_rests)
    opens = (f'<g data-vertex="{i},{j}" transform="translate({xs[i]},{ys[j]})">'
             for j in range(ny) for i in range(nx))
    return itertools.chain([header], itertools.chain.from_iterable(zip(opens, rests)),
                           [legend, "\n</svg>\n"])
