import math
import re
from pathlib import Path

import numpy as np
import pytest

from cpci.grid import GridTopology, load_summary
from cpci.render import (
    _COLORS,
    GlyphStyle,
    SECTORS,
    glyph_radius,
    render_map,
    render_map_pieces,
)

ROW = {"min": 0, "max": 1, "sad": 2}   # type axis of the (3, 3, n) table
ZERO_TABLE = np.zeros((3, 3, 1))

LIGHT = {"max": "#F4B6B6", "min": "#B6CDF4", "sad": "#BCE4BC"}
DARK = {"max": "#C0392B", "min": "#2B5AC0", "sad": "#2E8B40"}

GLYPH_RE = re.compile(r'<g data-vertex="(\d+),(\d+)"[^>]*>(.*?)</g>', re.S)
ARC_RADIUS_RE = re.compile(r'A ([0-9.eE+-]+) ')
LIGHT_PATH_RE = re.compile(
    r'<path d="M 0 0 L (\S+) (\S+) A (\S+) \S+ 0 0 0 (\S+) (\S+) Z" fill="([^"]+)"/>')


def table_from(triples) -> np.ndarray:
    """triples: dict code -> (hat, lo, hi); a one-vertex (3, 3, 1) table."""
    return np.array(
        [triples.get(code, (0, 0, 0)) for code in ("min", "max", "sad")],
        dtype=np.float64)[:, :, None]


def glyph(table, style=GlyphStyle()) -> str:
    """The one glyph group of a 1x1 map."""
    return GLYPH_RE.search(render_map(table, GridTopology(1, 1), style)).group(0)


def _degrees(x: str, y: str) -> float:
    # SVG y grows downward
    return math.degrees(math.atan2(-float(y), float(x))) % 360.0


class TestGlyphRadius:
    def test_square_root_rule(self):
        assert glyph_radius(1.0, 18.0) == 18.0
        assert glyph_radius(0.25, 18.0) == 9.0
        assert glyph_radius(0.0, 18.0) == 0.0

    def test_area_ratio_tracks_probability(self):
        for p, q in ((0.3, 0.6), (0.04, 0.9), (1.0, 0.5)):
            ratio = glyph_radius(p, 18.0) ** 2 / glyph_radius(q, 18.0) ** 2
            assert ratio == pytest.approx(p / q, rel=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            glyph_radius(p, 18.0)

    def test_numpy_scalars_accepted_and_bool_rejected(self):
        assert glyph_radius(np.float32(0.25), 18) == 9.0
        assert glyph_radius(np.int64(1), 18) == 18.0
        with pytest.raises(ValueError, match="p=True is not a probability"):
            glyph_radius(True, 18)


class TestGlyphGeometry:
    def test_sectors_are_fixed_120_degree_slices(self):
        assert list(SECTORS) == [("max", 90.0, 210.0), ("min", 210.0, 330.0),
                                 ("sad", 330.0, 450.0)]
        assert all(end - start == 120.0 for _, start, end in SECTORS)
        full = table_from({code: (1, 1, 1) for code in ("min", "max", "sad")})
        light = {fill: m for *m, fill in LIGHT_PATH_RE.findall(glyph(full))}
        for code, start, end in SECTORS:
            x1, y1, _, x2, y2 = light[LIGHT[code]]
            assert _degrees(x1, y1) == pytest.approx(start % 360.0, abs=1e-5)
            assert _degrees(x2, y2) == pytest.approx(end % 360.0, abs=1e-5)

    def test_radii_follow_estimates(self):
        style = GlyphStyle()
        frag = glyph(table_from({"min": (0.25, 0.04, 0.64)}), style)
        upper, lower, hat = (float(r) for r in ARC_RADIUS_RE.findall(frag))
        assert hat == pytest.approx(9.0)
        assert lower == pytest.approx(0.2 * 18)
        assert upper == pytest.approx(0.8 * 18)
        assert lower <= upper
        assert f'fill="{LIGHT["min"]}"' in frag and f'fill="{DARK["min"]}"' in frag


class TestGlyphStyle:
    def test_defaults(self):
        style = GlyphStyle()
        assert style.r_max == 18.0
        assert style.cell == 40.0
        assert _COLORS["min"] == ("#B6CDF4", "#2B5AC0")

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            GlyphStyle(r_max=25.0, cell=40.0)

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ValueError):
            GlyphStyle(r_max=0)


class TestRenderGlyph:
    def test_all_zero_emits_no_paths(self):
        frag = glyph(ZERO_TABLE)
        assert "<path" not in frag
        assert frag.startswith("<g ")

    def test_certain_minimum_is_single_dark_sector_with_arc(self):
        frag = glyph(table_from({"min": (1, 1, 1)}))
        paths = re.findall(r"<path[^>]*>", frag)
        assert len(paths) == 3
        assert f'fill="{LIGHT["min"]}"' in paths[0]
        assert f'fill="{DARK["min"]}"' in paths[1]
        assert 'stroke="#000000"' in paths[2]
        for path in paths:
            assert "A 18 18" in path

    def test_degenerate_interval_coincides(self):
        frag = glyph(table_from({"sad": (0.25, 0.25, 0.25)}))
        radii = ARC_RADIUS_RE.findall(frag)
        assert radii == ["9", "9", "9"]

    def test_vertex_attribute(self):
        doc = render_map(np.zeros((3, 3, 20)), GridTopology(4, 5))
        assert '<g data-vertex="3,4" transform="translate(150,30)">' in doc
        assert 'data-vertex="0,0"' in glyph(ZERO_TABLE)

    def test_paint_order_light_dark_arc(self):
        frag = glyph(table_from({
            "min": (0.3, 0.1, 0.6), "max": (0.2, 0.05, 0.5), "sad": (0.7, 0.4, 0.9)}))
        for code in ("min", "max", "sad"):
            li = frag.find(f'fill="{LIGHT[code]}"')
            di = frag.find(f'fill="{DARK[code]}"')
            assert 0 < li < di
        arcs = [m.start() for m in re.finditer('stroke="#000000"', frag)]
        assert len(arcs) == 3


def random_table(rng, count) -> np.ndarray:
    """(3, 3, count) table with lo <= hat <= hi in every (type, vertex)."""
    lo_hat_hi = np.sort(rng.uniform(0, 1, size=(count, 3, 3)), axis=-1)
    return lo_hat_hi[:, :, [1, 0, 2]].transpose(1, 2, 0)


class TestRenderMap:
    def test_layout_centers(self):
        t = GridTopology(3, 2)
        doc = render_map(np.zeros((3, 3, 6)), t)
        centers = {
            (int(m.group(1)), int(m.group(2))): m.group(0)
            for m in GLYPH_RE.finditer(doc)
        }
        assert 'translate(30,70)' in centers[(0, 0)]
        assert 'translate(70,70)' in centers[(1, 0)]
        assert 'translate(30,30)' in centers[(0, 1)]

    def test_single_row_grid_renders(self):
        t = GridTopology(2, 1)
        doc = render_map(np.zeros((3, 3, 2)), t)
        glyphs = GLYPH_RE.findall(doc)
        assert len(glyphs) == 2
        assert all(body.strip() == "" for _, _, body in glyphs)
        assert '<g id="legend"' in doc
        assert doc.startswith('<?xml version="1.0"')

    def test_parse_back_recovers_probabilities(self):
        rng = np.random.default_rng(101)
        t = GridTopology(4, 3)
        style = GlyphStyle()
        table = random_table(rng, t.n)
        doc = render_map(table, t, style)
        checked = 0
        for match in GLYPH_RE.finditer(doc):
            i, j, body = int(match.group(1)), int(match.group(2)), match.group(3)
            v = t.linear(i, j)
            for code in ("min", "max", "sad"):
                hat, lo, hi = table[ROW[code], :, v]
                for color, p in ((LIGHT[code], hi), (DARK[code], lo)):
                    path = re.search(
                        r'<path d="[^"]*A ([0-9.eE+-]+) [^"]*" fill="%s"/>' % color,
                        body)
                    if p == 0:
                        assert path is None
                        continue
                    r = float(path.group(1))
                    assert (r / style.r_max) ** 2 == pytest.approx(p, rel=1e-6)
                    checked += 1
        assert checked > 30

    def test_legend_contents(self):
        doc = render_map(ZERO_TABLE, GridTopology(1, 1))
        legend = doc[doc.index('<g id="legend"'):]
        for code in ("min", "max", "sad"):
            assert f'fill="{LIGHT[code]}"' in legend
        circles = re.findall(r'<circle[^>]*r="([0-9.eE+-]+)"', legend)
        expected = [18 * math.sqrt(p) for p in (0.25, 0.5, 0.75, 1.0)]
        assert [float(c) for c in circles] == pytest.approx(expected, rel=1e-6)
        for label in ("Maximum", "Minimum", "Saddle"):
            assert label in legend

    def test_byte_stable(self):
        rng = np.random.default_rng(55)
        t = GridTopology(3, 3)
        table = random_table(rng, t.n)
        assert render_map(table, t) == render_map(table, t)

    def test_wrong_summary_count_rejected(self):
        with pytest.raises(ValueError, match=r"\(3, 3, 4\) table"):
            render_map(np.zeros((3, 3, 3)), GridTopology(2, 2))

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_non_probability_rejected(self, p):
        table = np.zeros((3, 3, 4))
        table[2, 1, 3] = p
        with pytest.raises(ValueError, match="not a probability"):
            render_map(table, GridTopology(2, 2))

    @pytest.mark.parametrize("nx, r_max", [(4, 1.0), (1, 4e307)])
    def test_infinite_canvas_rejected(self, nx, r_max):
        # 4x4: the grid's width overflows; 1x1: only the legend's does.
        style = GlyphStyle(r_max=r_max, cell=1e308)
        message = f"a {nx}x{nx} map at cell=1e+308, r_max={r_max!r} overflows the SVG canvas"
        with pytest.raises(ValueError, match=re.escape(message)):
            render_map(np.zeros((3, 3, nx * nx)), GridTopology(nx, nx), style)

    @pytest.mark.parametrize("shape, value, style, match", [
        ((3, 3, 15), 0.0, GlyphStyle(), r"\(3, 3, 16\) table"),
        ((3, 3, 16), 1.1, GlyphStyle(), "not a probability"),
        ((3, 3, 16), 0.0, GlyphStyle(r_max=1.0, cell=1e308), "overflows the SVG canvas"),
    ])
    def test_rejected_when_called_not_when_iterated(self, shape, value, style, match):
        # The pieces are made as they are iterated; the checks are not.
        with pytest.raises(ValueError, match=match):
            render_map_pieces(np.full(shape, value), GridTopology(4, 4), style)

    def test_large_finite_canvas_renders(self):
        table = table_from({"max": (1.0, 1.0, 1.0)})
        doc = render_map(table, GridTopology(1, 1), GlyphStyle(r_max=4e299, cell=1e300))
        assert not re.search(r"\b(inf|nan)\b", doc)

    def test_glyph_groups_in_linear_order(self):
        t = GridTopology(3, 2)
        doc = render_map(np.zeros((3, 3, 6)), t)
        order = [
            (int(m.group(1)), int(m.group(2))) for m in GLYPH_RE.finditer(doc)]
        assert order == [t.coords(v) for v in range(6)]


DATA = Path(__file__).parent / "data"


class TestGoldenMap:
    def test_fixture_renders_byte_identical(self):
        with open(DATA / "summary_4x4.csv", "rb") as source:
            topo, table, _, _ = load_summary(source)
        doc = render_map(table, topo, GlyphStyle())
        golden = (DATA / "golden_map_4x4.svg").read_bytes().decode("utf-8")
        assert doc == golden
