"""Guided vs unguided search equivalence, and the guidance plumbing.

Corridor pruning must be *invisible* to the search result: with
``guidance="on"`` (or ``"auto"``) the search returns the bit-identical
paths, costs, and committed metrics as ``guidance="off"`` while expanding
no more nodes. These tests pin that contract at the engine level (random
occupancy, penalties, overlay terms, multi-pin requests), end-to-end
through ``SadpRouter.route_all`` on seeded Test1/Test6 instances, and on
service-sized designs with the default trigger, plus the
``guidance_builds_total`` dispatch counter (bounded vs full solves). The
differential harness (``tests/router/test_differential.py``) also checks
every guidance mode against the oracles.
"""

import random

import pytest

from repro import obs
from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.geometry import Point
from repro.grid import RoutingGrid
from repro.router import AStarRouter, CostParams, SadpRouter, SearchRequest


def _random_occupancy(grid, rng, fill):
    for layer in range(grid.num_layers):
        for x in range(grid.width):
            for y in range(grid.height):
                if rng.random() < fill:
                    grid.occupy(layer, Point(x, y), rng.randrange(1, 20))


def _assert_same_found(guided, plain):
    if plain is None:
        assert guided is None
        return
    assert guided is not None
    assert guided.nodes == plain.nodes
    assert guided.cost == plain.cost  # bit-exact, not approx
    assert guided.segments == plain.segments
    assert guided.vias == plain.vias
    assert guided.expansions <= plain.expansions


class TestEngineEquivalence:
    @pytest.mark.parametrize("mode", ["on", "auto"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_occupancy_with_overlay_and_penalties(self, seed, mode):
        rng = random.Random(seed)
        grid = RoutingGrid(26, 26)
        _random_occupancy(grid, rng, fill=0.12)
        penalties = {
            (rng.randrange(3), rng.randrange(26), rng.randrange(26)): rng.uniform(1, 9)
            for _ in range(30)
        }
        params = CostParams()
        kwargs = dict(
            penalty_map=penalties,
            overlay_terms=(params.gamma, params.delta_tip),
        )
        plain = AStarRouter(grid, params, guidance="off", **kwargs)
        guided = AStarRouter(grid, params, guidance=mode, **kwargs)
        guided.guidance_trigger = 16  # make "auto" actually trip
        for net_id in (100, 101):
            plain.active_net = guided.active_net = net_id
            for _ in range(6):
                src = Point(rng.randrange(26), rng.randrange(26))
                dst = Point(rng.randrange(26), rng.randrange(26))
                req = SearchRequest(
                    net_id=net_id, sources=[(0, src)], targets=[(0, dst)]
                )
                _assert_same_found(
                    guided.search(req, extra_margin=4),
                    plain.search(req, extra_margin=4),
                )
        assert guided.total_guided_searches > 0
        assert plain.total_guided_searches == 0
        assert guided.total_expansions <= plain.total_expansions

    def test_multi_candidate_pins(self):
        rng = random.Random(7)
        grid = RoutingGrid(24, 24)
        _random_occupancy(grid, rng, fill=0.08)
        params = CostParams()
        plain = AStarRouter(
            grid, params, overlay_terms=(params.gamma, params.delta_tip)
        )
        guided = AStarRouter(
            grid,
            params,
            overlay_terms=(params.gamma, params.delta_tip),
            guidance="on",
        )
        plain.active_net = guided.active_net = 50
        for _ in range(5):
            sources = [
                (0, Point(rng.randrange(24), rng.randrange(24)))
                for _ in range(3)
            ]
            targets = [
                (0, Point(rng.randrange(24), rng.randrange(24)))
                for _ in range(3)
            ]
            req = SearchRequest(net_id=50, sources=sources, targets=targets)
            _assert_same_found(
                guided.search(req, extra_margin=3),
                plain.search(req, extra_margin=3),
            )

    def test_wrong_way_jogs(self):
        grid = RoutingGrid(20, 20)
        params = CostParams(wrong_way_factor=2.0)
        plain = AStarRouter(grid, params)
        guided = AStarRouter(grid, params, guidance="on")
        req = SearchRequest(
            net_id=0, sources=[(0, Point(2, 2))], targets=[(0, Point(12, 9))]
        )
        _assert_same_found(guided.search(req), plain.search(req))

    def test_unreachable_target_fails_fast(self):
        """With no route to the target the map is all-inf, the corridor
        bound collapses, and the guided search drains its heap instead of
        flooding the window."""
        grid = RoutingGrid(30, 30)
        for y in range(30):  # wall across every layer
            for layer in range(grid.num_layers):
                grid.occupy(layer, Point(15, y), 999)
        plain = AStarRouter(grid, CostParams())
        guided = AStarRouter(grid, CostParams(), guidance="on")
        req = SearchRequest(
            net_id=0, sources=[(0, Point(2, 15))], targets=[(0, Point(28, 15))]
        )
        assert plain.search(req) is None
        assert guided.search(req) is None
        assert guided.last_outcome == plain.last_outcome == "failed"
        assert guided.total_expansions < plain.total_expansions

    def test_off_mode_never_builds(self):
        grid = RoutingGrid(16, 16)
        engine = AStarRouter(grid, CostParams(), guidance="off")
        req = SearchRequest(
            net_id=0, sources=[(0, Point(1, 1))], targets=[(0, Point(14, 14))]
        )
        assert engine.search(req) is not None
        assert engine.total_guided_searches == 0

    def test_auto_guides_tiny_windows_once_the_trigger_fires(self):
        """``"auto"`` has no window-size gate: a 3 x 16 x 16 window (768
        cells) guides as soon as the search crosses the trigger, and the
        result stays bit-identical to the unguided search."""
        req = SearchRequest(
            net_id=0, sources=[(0, Point(1, 1))], targets=[(0, Point(14, 14))]
        )
        grid = RoutingGrid(16, 16)
        plain = AStarRouter(grid, CostParams(), guidance="off")
        auto = AStarRouter(grid, CostParams(), guidance="auto")
        auto.guidance_trigger = 8
        _assert_same_found(auto.search(req), plain.search(req))
        assert plain._last_stats[0] > auto.guidance_trigger
        assert auto.total_guided_searches == 1


@pytest.mark.parametrize(
    "circuit,scale",
    [("Test1", 0.12), ("Test6", 0.12)],
    ids=["Test1-fixed-pins", "Test6-multi-candidate"],
)
def test_route_all_equivalence(circuit, scale):
    """Full-flow equivalence: guidance on/auto commits exactly the routes
    guidance off commits — same paths, same overlay, same wirelength —
    while expanding no more nodes."""
    spec = spec_by_name(circuit)
    results = {}
    engines = {}
    for mode in ("off", "auto", "on"):
        grid, nets = generate_benchmark(spec, scale=scale, seed=2014)
        router = SadpRouter(grid, nets, guidance=mode)
        router.engine.guidance_trigger = 32
        results[mode] = router.route_all()
        engines[mode] = router.engine
    base = results["off"]
    for mode in ("auto", "on"):
        res = results[mode]
        assert res.routes.keys() == base.routes.keys()
        for net_id in base.routes:
            a, b = res.routes[net_id], base.routes[net_id]
            assert a.success == b.success, f"net {net_id} success diverged"
            assert a.segments == b.segments, f"net {net_id} path diverged"
            assert a.vias == b.vias, f"net {net_id} vias diverged"
        assert res.overlay_units == base.overlay_units
        assert res.total_wirelength == base.total_wirelength
        assert engines[mode].total_searches == engines["off"].total_searches
        assert engines[mode].total_expansions <= engines["off"].total_expansions
        assert engines[mode].total_guided_searches > 0
    assert engines["off"].total_guided_searches == 0


@pytest.mark.parametrize(
    "circuit,scale,seed",
    [("Test1", 0.15, 2014), ("Test1", 0.15, 201400), ("Test6", 0.12, 2014)],
    ids=["Test1@0.15-2014", "Test1@0.15-201400", "Test6@0.12-2014"],
)
def test_default_auto_guides_small_designs(circuit, scale, seed):
    """With the default trigger and no window-size gate, ``"auto"`` guides
    the searches of a service-sized design and saves expansions, while
    committing exactly what ``"off"`` commits after the same searches."""
    spec = spec_by_name(circuit)
    results = {}
    engines = {}
    for mode in ("off", "auto"):
        grid, nets = generate_benchmark(spec, scale=scale, seed=seed)
        router = SadpRouter(grid, nets, guidance=mode)
        results[mode] = router.route_all()
        engines[mode] = router.engine
    base, res = results["off"], results["auto"]
    assert res.routes.keys() == base.routes.keys()
    for net_id in base.routes:
        a, b = res.routes[net_id], base.routes[net_id]
        assert a.success == b.success, f"net {net_id} success diverged"
        assert a.segments == b.segments, f"net {net_id} path diverged"
        assert a.vias == b.vias, f"net {net_id} vias diverged"
        assert a.ripups == b.ripups, f"net {net_id} ripups diverged"
    assert res.overlay_units == base.overlay_units
    assert res.total_wirelength == base.total_wirelength
    auto, off = engines["auto"], engines["off"]
    assert auto.total_searches == off.total_searches
    assert auto.total_guided_searches > 0
    assert auto.total_expansions < off.total_expansions


class TestBuildCounter:
    """``guidance_builds_total{solve=bounded|full}``: one increment per
    built map, labelled by whether the backward solve stopped at the
    best path already found."""

    def test_route_records_bounded_solves(self):
        spec = spec_by_name("Test1")
        grid, nets = generate_benchmark(spec, scale=0.15, seed=2014)
        with obs.session() as ob:
            router = SadpRouter(grid, nets)
            router.route_all()
            bounded = ob.registry.value("guidance_builds_total", solve="bounded")
            total = ob.registry.total("guidance_builds_total")
        assert bounded > 0
        assert total == router.engine.total_guided_searches

    def test_forced_activation_solves_the_full_window(self):
        """Trigger 0 activates before any target holds a g-score, so
        there is no bound yet and the whole window is solved."""
        grid = RoutingGrid(20, 20)
        engine = AStarRouter(grid, CostParams(), guidance="on")
        req = SearchRequest(
            net_id=0, sources=[(0, Point(1, 1))], targets=[(0, Point(15, 12))]
        )
        with obs.session() as ob:
            assert engine.search(req) is not None
            full = ob.registry.value("guidance_builds_total", solve="full")
            bounded = ob.registry.value("guidance_builds_total", solve="bounded")
        assert (full, bounded) == (1.0, 0.0)


def test_sadp_router_rejects_bad_guidance():
    grid = RoutingGrid(10, 10)
    from repro.netlist import Netlist

    with pytest.raises(ValueError):
        SadpRouter(grid, Netlist(), guidance="sometimes")
