"""Unit tests for SVG internals (bitmap -> rectangle conversion)."""

import pytest

from repro.decompose import Bitmap
from repro.geometry import Rect
from repro.viz.svg import MASK_STYLES, SvgCanvas, _bitmap_rects


class TestBitmapRects:
    def test_empty_bitmap(self):
        bmp = Bitmap(Rect(0, 0, 100, 100))
        assert _bitmap_rects(bmp) == []

    def test_single_rect_roundtrip_area(self):
        bmp = Bitmap(Rect(0, 0, 100, 100))
        bmp.fill(Rect(10, 20, 60, 40))
        rects = _bitmap_rects(bmp)
        assert sum(r.area for r in rects) == 50 * 20

    def test_runs_are_row_wise_and_disjoint(self):
        bmp = Bitmap(Rect(0, 0, 100, 100))
        bmp.fill(Rect(0, 0, 30, 10))
        bmp.fill(Rect(50, 0, 80, 10))
        rects = _bitmap_rects(bmp)
        for i, a in enumerate(rects):
            assert a.height == bmp.resolution  # one row per rect
            for b in rects[i + 1 :]:
                assert not a.overlaps(b)

    def test_coordinates_respect_window_origin(self):
        bmp = Bitmap(Rect(-100, -100, 0, 0))
        bmp.fill(Rect(-50, -50, -40, -45))
        rects = _bitmap_rects(bmp)
        assert rects[0].xlo == -50
        assert rects[0].ylo == -50


class TestCanvas:
    def test_y_axis_is_flipped(self):
        canvas = SvgCanvas(Rect(0, 0, 100, 100), scale=1.0)
        canvas.add_rect(Rect(0, 90, 10, 100), "#000")  # top of the window
        text = canvas.to_string()
        assert 'y="0.0"' in text  # drawn at the top of the image

    def test_styles_table_well_formed(self):
        for name, (color, opacity) in MASK_STYLES.items():
            assert color.startswith("#") or color == "none"
            assert 0 <= opacity <= 1

    def test_add_layer_uses_style(self):
        canvas = SvgCanvas(Rect(0, 0, 10, 10), scale=1.0)
        canvas.add_layer([Rect(0, 0, 5, 5)], "cut")
        assert MASK_STYLES["cut"][0] in canvas.to_string()

    def test_unknown_style_defaults_to_black(self):
        canvas = SvgCanvas(Rect(0, 0, 10, 10), scale=1.0)
        canvas.add_layer([Rect(0, 0, 5, 5)], "mystery")
        assert "#000000" in canvas.to_string()

