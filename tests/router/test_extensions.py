"""Tests for preferred-direction routing and the net-ordering extension."""

import pytest

from repro.errors import NetlistError
from repro.geometry import Point, Rect
from repro.grid import RoutingGrid
from repro.netlist import Net, Netlist, Pin
from repro.router import CostParams, SadpRouter
from repro.router.astar import AStarRouter, SearchRequest


class TestWrongWayRouting:
    """There is no wrong-way routing: crossing a layer's lines takes vias."""

    def test_disabled_by_default(self):
        grid = RoutingGrid(20, 20)
        engine = AStarRouter(grid, CostParams())
        # Vertical move on the horizontal layer must use vias.
        found = engine.search(
            SearchRequest(0, [(0, Point(5, 5))], [(0, Point(5, 8))])
        )
        assert found.via_count >= 2


class TestNetOrdering:
    def _nets(self):
        return Netlist(
            [
                Net(0, "long", Pin.at(0, 2), Pin.at(20, 2)),
                Net(1, "short", Pin.at(0, 8), Pin.at(3, 8)),
                Net(2, "mid", Pin.at(0, 14), Pin.at(10, 14)),
            ]
        )

    def test_hpwl_order(self):
        order = [n.name for n in self._nets().ordered_for_routing()]
        assert order == ["short", "mid", "long"]

    def test_router_takes_no_order(self):
        """Nets route shortest first; there is no other order to choose."""
        with pytest.raises(TypeError):
            SadpRouter(RoutingGrid(24, 24), self._nets(), order="hpwl")


class TestDesignFile:
    def test_block_directives(self, tmp_path):
        from repro.netlist import read_design

        path = tmp_path / "design.txt"
        path.write_text(
            "BLOCK * 4,4,8,8\n"
            "BLOCK L1 0,0,2,2\n"
            "n0 L0 0,9 -> L0 12,9\n"
        )
        blockages, nets = read_design(path)
        assert blockages == [(-1, Rect(4, 4, 8, 8)), (1, Rect(0, 0, 2, 2))]
        assert len(nets) == 1

    def test_malformed_block_rejected(self):
        from repro.netlist.io import parse_design

        with pytest.raises(NetlistError):
            parse_design("BLOCK L0 1,2,3\n")

    def test_cli_routes_around_blocks(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "design.txt"
        path.write_text(
            "BLOCK * 10,0,11,18\n"
            "n0 L0 2,5 -> L0 18,5\n"
        )
        rc = main(["route", str(path), "--width", "20", "--height", "20"])
        assert rc == 0
        assert "routed 1/1" in capsys.readouterr().out
