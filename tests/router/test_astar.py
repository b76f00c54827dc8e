"""Unit tests for the A* search engine."""

import pytest

from repro.errors import RoutingError
from repro.geometry import Point, Rect
from repro.grid import RoutingGrid
from repro.router import AStarRouter, CostParams, SearchRequest
from repro.router.reference import ReferenceAStarRouter


@pytest.fixture
def grid():
    return RoutingGrid(20, 20)


@pytest.fixture
def engine(grid):
    return AStarRouter(grid, CostParams())


def request(net, src, dst, src_layer=0, dst_layer=0):
    return SearchRequest(
        net_id=net, sources=[(src_layer, src)], targets=[(dst_layer, dst)]
    )


class TestBasicSearch:
    def test_straight_route_same_track(self, engine):
        found = engine.search(request(0, Point(2, 5), Point(10, 5)))
        assert found is not None
        assert found.wirelength == 8
        assert found.via_count == 0
        assert len(found.segments) == 1

    def test_vertical_needs_layer_change(self, engine):
        # Layer 0 is horizontal: reaching a different y takes vias.
        found = engine.search(request(0, Point(5, 2), Point(5, 10)))
        assert found is not None
        assert found.via_count >= 2  # up to V-layer and back
        layers = {seg.layer for seg in found.segments}
        assert 1 in layers

    def test_l_shaped_route(self, engine):
        found = engine.search(request(0, Point(2, 2), Point(10, 10)))
        assert found is not None
        assert found.wirelength == 16  # Manhattan optimal

    def test_source_equals_target(self, engine):
        found = engine.search(request(0, Point(4, 4), Point(4, 4)))
        assert found is not None
        assert found.wirelength == 0

    def test_multi_candidate_picks_best(self, engine):
        req = SearchRequest(
            net_id=0,
            sources=[(0, Point(0, 5)), (0, Point(8, 5))],
            targets=[(0, Point(10, 5)), (0, Point(19, 19))],
        )
        found = engine.search(req)
        assert found is not None
        assert found.wirelength == 2  # (8,5) -> (10,5)


class TestObstacles:
    def test_routes_around_blockage(self, grid, engine):
        grid.block(0, Rect(5, 0, 6, 20))
        grid.block(1, Rect(5, 0, 6, 20))
        grid.block(2, Rect(5, 0, 6, 20))
        found = engine.search(request(0, Point(2, 5), Point(10, 5)), extra_margin=20)
        assert found is None  # full wall across all layers

    def test_routes_over_blockage_via_other_layer(self, grid, engine):
        grid.block(0, Rect(5, 0, 6, 20))  # wall on layer 0 only
        found = engine.search(request(0, Point(2, 5), Point(10, 5)), extra_margin=10)
        assert found is not None
        assert found.via_count >= 2

    def test_own_cells_are_passable(self, grid, engine):
        for x in range(3, 8):
            grid.occupy(0, Point(x, 5), 0)
        found = engine.search(request(0, Point(2, 5), Point(10, 5)))
        assert found is not None
        assert found.wirelength == 8

    def test_other_net_cells_block(self, grid, engine):
        for x in range(0, 20):
            grid.occupy(0, Point(x, 5), 99)
            grid.occupy(1, Point(x, 5), 99)
            grid.occupy(2, Point(x, 5), 99)
        found = engine.search(request(0, Point(2, 5), Point(10, 5)))
        assert found is None  # source itself unavailable

    def test_blocked_target_fails(self, grid, engine):
        grid.occupy(0, Point(10, 5), 99)
        found = engine.search(request(0, Point(2, 5), Point(10, 5)))
        assert found is None


class TestCostShaping:
    def test_penalty_diverts_path(self, grid):
        penalties = {(0, x, 5): 10.0 for x in range(4, 9)}
        engine = AStarRouter(grid, CostParams(), penalty_map=penalties)
        found = engine.search(request(0, Point(2, 5), Point(10, 5)), extra_margin=10)
        assert found is not None
        on_track = [n for n in found.nodes if n[0] == 0 and n[2] == 5 and 4 <= n[1] < 9]
        assert not on_track  # detoured around the penalised stretch

    def test_overlay_cost_steers(self, grid):
        # Generic per-cell callbacks are an oracle-only hook.
        expensive = {(0, 6, 5)}
        engine = ReferenceAStarRouter(
            grid,
            CostParams(),
            overlay_cost=lambda l, p: 50.0 if (l, p.x, p.y) in expensive else 0.0,
        )
        found = engine.search(request(0, Point(2, 5), Point(10, 5)), extra_margin=10)
        assert (0, 6, 5) not in found.nodes

    def test_expansion_budget(self, grid, engine):
        req = request(0, Point(0, 0), Point(19, 19))
        req.max_expansions = 3
        assert engine.search(req) is None


class TestRequestValidation:
    def test_empty_sources_rejected(self):
        with pytest.raises(RoutingError):
            SearchRequest(net_id=0, sources=[], targets=[(0, Point(0, 0))])

    def test_out_of_bounds_candidates_skipped(self, engine):
        req = SearchRequest(
            net_id=0,
            sources=[(0, Point(-5, 0)), (0, Point(2, 5))],
            targets=[(0, Point(10, 5))],
        )
        assert engine.search(req) is not None
