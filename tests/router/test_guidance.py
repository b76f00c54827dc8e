"""Guided vs unguided search equivalence, and the guidance trigger.

Corridor pruning must be *invisible* to the search result: a search that
builds its map (at the default ``guidance_trigger``, or at trigger ``1``,
right after its first expansion) returns the bit-identical paths, costs,
and committed metrics of the unguided search (trigger ``-1``) while
expanding no more nodes. These tests pin that contract at the engine
level (random occupancy, penalties, overlay terms, multi-pin requests),
end-to-end through ``SadpRouter.route_all`` on seeded Test1/Test6
instances, and on service-sized designs with the default trigger, plus
the ``guidance_builds_total`` dispatch counter (bounded vs full solves).
The search, expansion and guided-search counts of default routes are
pinned to recorded values: a weaker map keeps every path but expands
more.
The differential harness (``tests/router/test_differential.py``) also
checks every trigger against the oracles.
"""

import random

import pytest

from repro import obs
from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.geometry import Point
from repro.grid import RoutingGrid
from repro.netlist import Netlist
from repro.router import AStarRouter, CostParams, SadpRouter, SearchRequest


def _engine(grid, params, trigger, **kwargs):
    """An engine whose searches build their map at ``trigger``."""
    engine = AStarRouter(grid, params, **kwargs)
    engine.guidance_trigger = trigger
    return engine


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
    @pytest.mark.parametrize("trigger", [1, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_occupancy_with_overlay_and_penalties(self, seed, trigger):
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
        plain = _engine(grid, params, -1, **kwargs)
        guided = _engine(grid, params, trigger, **kwargs)
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
        overlay_terms = (params.gamma, params.delta_tip)
        plain = _engine(grid, params, -1, overlay_terms=overlay_terms)
        guided = _engine(grid, params, 1, overlay_terms=overlay_terms)
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
        plain = _engine(grid, params, -1)
        guided = _engine(grid, params, 1)
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
        plain = _engine(grid, CostParams(), -1)
        guided = _engine(grid, CostParams(), 1)
        req = SearchRequest(
            net_id=0, sources=[(0, Point(2, 15))], targets=[(0, Point(28, 15))]
        )
        assert plain.search(req) is None
        assert guided.search(req) is None
        assert guided.last_outcome == plain.last_outcome == "failed"
        assert guided.total_expansions < plain.total_expansions

    def test_off_mode_never_builds(self):
        """Trigger ``-1`` is the unguided search: it never builds a map."""
        grid = RoutingGrid(16, 16)
        engine = _engine(grid, CostParams(), -1)
        req = SearchRequest(
            net_id=0, sources=[(0, Point(1, 1))], targets=[(0, Point(14, 14))]
        )
        assert engine.search(req) is not None
        assert engine.total_guided_searches == 0

    def test_auto_guides_tiny_windows_once_the_trigger_fires(self):
        """There is no window-size gate: a 3 x 16 x 16 window (768 cells)
        guides as soon as the search crosses the trigger, and the result
        stays bit-identical to the unguided search."""
        req = SearchRequest(
            net_id=0, sources=[(0, Point(1, 1))], targets=[(0, Point(14, 14))]
        )
        grid = RoutingGrid(16, 16)
        plain = _engine(grid, CostParams(), -1)
        auto = _engine(grid, CostParams(), 8)
        _assert_same_found(auto.search(req), plain.search(req))
        assert plain._last_stats[0] > auto.guidance_trigger
        assert auto.total_guided_searches == 1


@pytest.mark.parametrize(
    "circuit,scale",
    [("Test1", 0.12), ("Test6", 0.12)],
    ids=["Test1-fixed-pins", "Test6-multi-candidate"],
)
def test_route_all_equivalence(circuit, scale):
    """Full-flow equivalence: guided routers (trigger 32, and trigger 1)
    commit exactly the routes the unguided one (trigger -1) commits —
    same paths, same overlay, same wirelength — while expanding no more
    nodes."""
    spec = spec_by_name(circuit)
    results = {}
    engines = {}
    for trigger in (-1, 32, 1):
        grid, nets = generate_benchmark(spec, scale=scale, seed=2014)
        router = SadpRouter(grid, nets)
        router.engine.guidance_trigger = trigger
        results[trigger] = router.route_all()
        engines[trigger] = router.engine
    base = results[-1]
    for trigger in (32, 1):
        res = results[trigger]
        assert res.routes.keys() == base.routes.keys()
        for net_id in base.routes:
            a, b = res.routes[net_id], base.routes[net_id]
            assert a.success == b.success, f"net {net_id} success diverged"
            assert a.segments == b.segments, f"net {net_id} path diverged"
            assert a.vias == b.vias, f"net {net_id} vias diverged"
        assert res.overlay_units == base.overlay_units
        assert res.total_wirelength == base.total_wirelength
        assert engines[trigger].total_searches == engines[-1].total_searches
        assert engines[trigger].total_expansions <= engines[-1].total_expansions
        assert engines[trigger].total_guided_searches > 0
    assert engines[-1].total_guided_searches == 0


@pytest.mark.parametrize(
    "circuit,scale,seed",
    [("Test1", 0.15, 2014), ("Test1", 0.15, 201400), ("Test6", 0.12, 2014)],
    ids=["Test1@0.15-2014", "Test1@0.15-201400", "Test6@0.12-2014"],
)
def test_default_auto_guides_small_designs(circuit, scale, seed):
    """With the default trigger and no window-size gate, the production
    router guides the searches of a service-sized design and saves
    expansions, while committing exactly what the unguided router
    (trigger -1) commits after the same searches."""
    spec = spec_by_name(circuit)
    results = {}
    engines = {}
    for trigger in (-1, None):
        grid, nets = generate_benchmark(spec, scale=scale, seed=seed)
        router = SadpRouter(grid, nets)
        if trigger is not None:
            router.engine.guidance_trigger = trigger
        results[trigger] = router.route_all()
        engines[trigger] = router.engine
    base, res = results[-1], results[None]
    assert res.routes.keys() == base.routes.keys()
    for net_id in base.routes:
        a, b = res.routes[net_id], base.routes[net_id]
        assert a.success == b.success, f"net {net_id} success diverged"
        assert a.segments == b.segments, f"net {net_id} path diverged"
        assert a.vias == b.vias, f"net {net_id} vias diverged"
        assert a.ripups == b.ripups, f"net {net_id} ripups diverged"
    assert res.overlay_units == base.overlay_units
    assert res.total_wirelength == base.total_wirelength
    guided, plain = engines[None], engines[-1]
    assert guided.total_searches == plain.total_searches
    assert guided.total_guided_searches > 0
    assert guided.total_expansions < plain.total_expansions


@pytest.mark.parametrize(
    "circuit,scale,counts",
    [
        ("Test1", 0.15, (50, 3_939, 15)),
        ("Test6", 0.15, (35, 1_808, 1)),
        ("Test1", 0.3, (260, 20_735, 62)),
        ("Test6", 0.3, (154, 13_263, 23)),
    ],
    ids=["Test1@0.15", "Test6@0.15", "Test1@0.3", "Test6@0.3"],
)
def test_default_search_counters_are_pinned(circuit, scale, counts):
    """Searches, expansions and guided searches of a default route
    (design seed 2014). A map input that weakened pruning would keep
    every path and digest; only these counts would move."""
    grid, nets = generate_benchmark(spec_by_name(circuit), scale=scale, seed=2014)
    router = SadpRouter(grid, nets)
    router.route_all()
    engine = router.engine
    assert (
        engine.total_searches,
        engine.total_expansions,
        engine.total_guided_searches,
    ) == counts


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
        """Trigger 1 activates after the first expansion, before any
        target holds a g-score, so there is no bound yet and the whole
        window is solved."""
        grid = RoutingGrid(20, 20)
        engine = _engine(grid, CostParams(), 1)
        req = SearchRequest(
            net_id=0, sources=[(0, Point(1, 1))], targets=[(0, Point(15, 12))]
        )
        with obs.session() as ob:
            assert engine.search(req) is not None
            full = ob.registry.value("guidance_builds_total", solve="full")
            bounded = ob.registry.value("guidance_builds_total", solve="bounded")
        assert (full, bounded) == (1.0, 0.0)


def test_routers_take_no_guidance_parameter():
    """The trigger is the only seam; no constructor selects a mode."""
    grid = RoutingGrid(10, 10)
    with pytest.raises(TypeError):
        SadpRouter(grid, Netlist(), guidance="auto")
    with pytest.raises(TypeError):
        AStarRouter(grid, CostParams(), guidance="on")
