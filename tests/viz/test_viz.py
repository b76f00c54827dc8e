"""Unit tests for ASCII and SVG rendering."""

import pytest

from repro.color import Color
from repro.decompose import TargetPattern, synthesize_masks
from repro.geometry import Point, Rect
from repro.grid import RoutingGrid
from repro.netlist import Net, Netlist, Pin
from repro.router import SadpRouter
from repro.rules import DesignRules
from repro.viz import SvgCanvas, render_layer, render_masks_svg, render_routing_svg


class TestAscii:
    def test_render_layer_glyphs(self):
        grid = RoutingGrid(4, 4)
        grid.occupy(0, Point(0, 0), 1)
        grid.block(0, Rect(3, 3, 4, 4))
        art = render_layer(grid, 0)
        rows = art.splitlines()
        assert rows[-1][0] == "1"  # y=0 at bottom
        assert rows[0][3] == "#"

    def test_render_layer_with_colors(self):
        grid = RoutingGrid(4, 4)
        grid.occupy(0, Point(0, 0), 1)
        grid.occupy(0, Point(1, 0), 2)
        grid.occupy(0, Point(2, 0), 3)
        art = render_layer(
            grid, 0, coloring={1: Color.CORE, 2: Color.SECOND}
        )
        bottom = art.splitlines()[-1]
        assert bottom.startswith("Cs?")


class TestSvg:
    def test_canvas_roundtrip(self, tmp_path):
        canvas = SvgCanvas(Rect(0, 0, 100, 100), scale=1.0)
        canvas.add_rect(Rect(10, 10, 30, 30), "#ff0000", title="hello")
        path = canvas.write(tmp_path / "out.svg")
        text = path.read_text()
        assert text.startswith("<svg")
        assert "hello" in text
        assert text.rstrip().endswith("</svg>")

    def test_render_masks_svg(self, tmp_path):
        rules = DesignRules()
        targets = [
            TargetPattern.wire(0, Rect(0, -10, 200, 10), Color.CORE),
            TargetPattern.wire(1, Rect(0, 30, 200, 50), Color.SECOND),
        ]
        masks = synthesize_masks(targets, rules)
        path = render_masks_svg(masks, tmp_path / "masks.svg")
        text = path.read_text()
        assert "<rect" in text
        assert "net 0" in text

    def test_render_routing_svg(self, tmp_path):
        grid = RoutingGrid(10, 10)
        nets = Netlist([Net(0, "a", Pin.at(1, 2), Pin.at(8, 2))])
        result = SadpRouter(grid, nets).route_all()
        path = render_routing_svg(grid, result.colorings, tmp_path / "route.svg")
        assert path.exists()
        assert "<svg" in path.read_text()
