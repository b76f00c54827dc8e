"""Routing on non-default layer stacks (1, 2, 4 layers)."""

import pytest

from repro.grid import Direction, RoutingGrid, default_layer_stack
from repro.netlist import Net, Netlist, Pin
from repro.router import SadpRouter


class TestSingleLayer:
    def test_same_track_nets_route(self):
        grid = RoutingGrid(20, 20, layers=default_layer_stack(1))
        nets = Netlist(
            [
                Net(0, "a", Pin.at(2, 5), Pin.at(9, 5)),
                Net(1, "b", Pin.at(11, 5), Pin.at(18, 5)),
            ]
        )
        result = SadpRouter(grid, nets).route_all()
        assert result.routability == 1.0
        assert result.cut_conflicts == 0

    def test_cross_track_net_fails_without_vias(self):
        grid = RoutingGrid(20, 20, layers=default_layer_stack(1))
        nets = Netlist([Net(0, "a", Pin.at(2, 5), Pin.at(10, 9))])
        result = SadpRouter(grid, nets).route_all()
        assert not result.routes[0].success


class TestTwoLayers:
    def test_hv_stack_routes_diagonal_nets(self):
        grid = RoutingGrid(24, 24, layers=default_layer_stack(2))
        nets = Netlist(
            [
                Net(0, "a", Pin.at(2, 2), Pin.at(20, 18)),
                Net(1, "b", Pin.at(2, 4), Pin.at(18, 20)),
            ]
        )
        result = SadpRouter(grid, nets).route_all()
        assert result.routability == 1.0
        assert result.cut_conflicts == 0
        layers_used = {
            seg.layer for r in result.routes.values() for seg in r.segments
        }
        assert layers_used == {0, 1}


class TestFourLayers:
    def test_stack_directions(self):
        stack = default_layer_stack(4)
        assert [l.direction for l in stack] == [
            Direction.HORIZONTAL,
            Direction.VERTICAL,
            Direction.HORIZONTAL,
            Direction.VERTICAL,
        ]

    def test_dense_bus_uses_extra_capacity(self):
        nets = [
            Net(i, f"n{i}", Pin.at(2, 3 + i), Pin.at(21, 3 + i)) for i in range(12)
        ]
        three = SadpRouter(
            RoutingGrid(24, 24, layers=default_layer_stack(3)), Netlist(nets)
        ).route_all()
        nets4 = [
            Net(i, f"n{i}", Pin.at(2, 3 + i), Pin.at(21, 3 + i)) for i in range(12)
        ]
        four = SadpRouter(
            RoutingGrid(24, 24, layers=default_layer_stack(4)), Netlist(nets4)
        ).route_all()
        assert four.routability >= three.routability
        assert four.cut_conflicts == 0
