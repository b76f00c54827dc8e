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

import dataclasses
import random

import pytest

from repro import obs
from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.geometry import Point
from repro.grid import CellState, Direction, RoutingGrid
from repro.netlist import Netlist
from repro.router import AStarRouter, CostParams, SadpRouter, SearchRequest
from repro.router.astar import search_window


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


def _random_windows(seed):
    """A random 26 x 26 grid with penalties and overlay terms, and
    twelve random single-pin requests over it (two nets, six each)."""
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
    requests = []
    for net_id in (100, 101):
        for _ in range(6):
            src = Point(rng.randrange(26), rng.randrange(26))
            dst = Point(rng.randrange(26), rng.randrange(26))
            requests.append(
                SearchRequest(net_id=net_id, sources=[(0, src)], targets=[(0, dst)])
            )
    return grid, params, kwargs, requests


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
        grid, params, kwargs, requests = _random_windows(seed)
        plain = _engine(grid, params, -1, **kwargs)
        guided = _engine(grid, params, trigger, **kwargs)
        for req in requests:
            plain.active_net = guided.active_net = req.net_id
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


_MARGIN = 4
_SOLVES = ("full", "bounded", "incumbent")


def _labelled_search(engine, req):
    """Search ``req``; return (nodes, cost, expansions, maps built,
    guidance builds by ``solve`` label)."""
    guided_before = engine.total_guided_searches
    with obs.session() as ob:
        found = engine.search(req, extra_margin=_MARGIN)
        labels = {s: ob.registry.value("guidance_builds_total", solve=s) for s in _SOLVES}
    return (
        found.nodes if found else None,
        found.cost if found else None,
        engine._last_stats[0],
        engine.total_guided_searches - guided_before,
        labels,
    )


def _passable(grid, net_id, layer, x, y):
    return grid.in_bounds(layer, Point(x, y)) and grid.owner(
        layer, Point(x, y)
    ) in (int(CellState.FREE), net_id)


def _horizontal(grid, layer):
    return grid.layer_direction(layer) is Direction.HORIZONTAL


def _bounce(path, wanted):
    """``path`` with an out-and-back move to the first neighbour ``m`` of
    one of its nodes for which ``wanted(node, m)`` holds, or None."""
    for i, (l, x, y) in enumerate(path):
        for m in (
            (l, x - 1, y), (l, x + 1, y), (l, x, y - 1), (l, x, y + 1),
            (l - 1, x, y), (l + 1, x, y),
        ):
            if wanted((l, x, y), m):
                return path[: i + 1] + [m] + path[i:]
    return None


def _walk_out(path, grid, net_id, window):
    """``path`` with a walk along one node's preferred direction to just
    past the window's edge and back, every cell on the die and passable;
    or None."""
    xlo, xhi, ylo, yhi = window
    for i, (l, x, y) in enumerate(path):
        dx, dy = (1, 0) if _horizontal(grid, l) else (0, 1)
        for sign in (1, -1):
            out = []
            cx, cy = x, y
            while xlo <= cx <= xhi and ylo <= cy <= yhi:
                cx, cy = cx + sign * dx, cy + sign * dy
                if not _passable(grid, net_id, l, cx, cy):
                    break
                out.append((l, cx, cy))
            else:
                back = out[-2::-1] + [(l, x, y)]
                return path[: i + 1] + out + back + path[i + 1 :]
    return None


def _incumbent_cases(seed):
    """Over ``_random_windows(seed)``: each request whose search (trigger
    1) builds a full map, with its optimal path, a costlier legal path,
    and walks that break one rule each (``None`` where a rule could not
    be broken alone)."""
    grid, params, kwargs, requests = _random_windows(seed)
    plain = _engine(grid, params, -1, **kwargs)
    guided = _engine(grid, params, 1, **kwargs)
    cases = []
    for req in requests:
        plain.active_net = guided.active_net = req.net_id
        found = plain.search(req, extra_margin=_MARGIN)
        if found is None or len(found.nodes) < 3:
            continue
        base = _labelled_search(guided, req)
        if base[4] != {"full": 1, "bounded": 0, "incumbent": 0}:
            continue
        path = found.nodes
        # A legal, costlier path: the optimum under a toll on its interior.
        toll = dict(kwargs["penalty_map"])
        for node in path[1:-1]:
            toll[node] = toll.get(node, 0.0) + 50.0
        detour = _engine(
            grid, params, -1, penalty_map=toll, overlay_terms=kwargs["overlay_terms"]
        )
        detour.active_net = req.net_id
        costlier = detour.search(req, extra_margin=_MARGIN).nodes
        window = search_window(
            [p for _, p in req.sources] + [p for _, p in req.targets],
            params.search_margin + _MARGIN, grid.width, grid.height,
        )
        xlo, xhi, ylo, yhi = window

        def enterable(m, passable):
            """``m`` lies in the window and is (not) passable."""
            return (
                0 <= m[0] < grid.num_layers
                and xlo <= m[1] <= xhi
                and ylo <= m[2] <= yhi
                and _passable(grid, req.net_id, *m) == passable
            )

        def preferred_or_via(node, m):
            return m[0] != node[0] or (m[1] != node[1]) == _horizontal(grid, node[0])

        mid = len(path) // 2
        broken = {
            "skips a cell": path[:mid] + path[mid + 1 :],
            "steps the wrong way": _bounce(
                path, lambda n, m: not preferred_or_via(n, m) and enterable(m, True)
            ),
            "starts off a source": path[1:],
            "ends off a target": path[:-1],
            "leaves the window": _walk_out(path, grid, req.net_id, window),
            "crosses an impassable cell": _bounce(
                path, lambda n, m: preferred_or_via(n, m) and enterable(m, False)
            ),
        }
        cases.append((guided, req, base, path, costlier, broken))
    return cases


class TestIncumbent:
    """A retry's ``SearchRequest.incumbent`` bounds the guidance solve by
    its own cost and changes nothing else; a walk the search could not
    make is ignored."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_legal_incumbent_bounds_the_solve_and_changes_nothing(self, seed):
        cases = _incumbent_cases(seed)
        assert any(path != costlier for _, _, _, path, costlier, _ in cases)
        for guided, req, base, path, costlier, _ in cases:
            for incumbent in (path, costlier):
                got = _labelled_search(
                    guided, dataclasses.replace(req, incumbent=incumbent)
                )
                assert got[:4] == base[:4]
                assert got[4] == {"full": 0, "bounded": 0, "incumbent": 1}

    def test_illegal_incumbents_are_ignored(self):
        seen = dict.fromkeys(
            ("skips a cell", "steps the wrong way", "starts off a source",
             "ends off a target", "leaves the window",
             "crosses an impassable cell"),
            0,
        )
        for seed in (0, 1, 2):
            for guided, req, base, _, _, broken in _incumbent_cases(seed):
                for rule, walk in broken.items():
                    if walk is None:
                        continue
                    seen[rule] += 1
                    got = _labelled_search(
                        guided, dataclasses.replace(req, incumbent=walk)
                    )
                    assert got == base, rule
        assert all(seen.values()), seen


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
    """``guidance_builds_total{solve=full|bounded|incumbent}``: one
    increment per built map, labelled by what stopped the backward solve:
    nothing, the best path the search already found, or the path a
    retry's previous attempt found."""

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

    def test_route_split_is_pinned(self):
        """Test1@0.3, design seed 2014: 14 retries whose rejected path
        still runs through the new window bound solves that would
        otherwise be full."""
        grid, nets = generate_benchmark(spec_by_name("Test1"), scale=0.3, seed=2014)
        with obs.session() as ob:
            router = SadpRouter(grid, nets)
            router.route_all()
            split = tuple(
                ob.registry.value("guidance_builds_total", solve=s) for s in _SOLVES
            )
            total = ob.registry.total("guidance_builds_total")
        assert split == (16, 32, 14)
        assert total == router.engine.total_guided_searches == 62

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
