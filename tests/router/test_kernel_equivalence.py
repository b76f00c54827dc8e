"""Compiled-kernel vs python fast-path equivalence.

The :mod:`repro.router.kernel` search loop must be *bit-identical* to
``_search_fast`` — same node sequences, same FP-exact costs, same
expansion/push/pop counters, same budget outcomes — whether numba
compiles it or the identity-decorated fallback runs it interpreted.
These tests pin that contract at the engine level (random occupancy,
penalties, budgets), end-to-end through SadpRouter (all guidance modes,
rip-up counters included), and through the worker-subproblem plumbing.
"""

import random

import pytest

from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.geometry import Point
from repro.grid import RoutingGrid
from repro.router import AStarRouter, CostParams, SadpRouter, SearchRequest
from repro.router.kernel import (
    HAVE_NUMBA,
    kernel_backend_name,
    resolve_kernel,
)


def _random_occupancy(grid: RoutingGrid, rng: random.Random, fill: float) -> None:
    for layer in range(grid.num_layers):
        for x in range(grid.width):
            for y in range(grid.height):
                if rng.random() < fill:
                    grid.occupy(layer, Point(x, y), rng.randrange(1, 20))


def _engines(grid, params, **kwargs):
    py = AStarRouter(grid, params, kernel="python", **kwargs)
    kn = AStarRouter(grid, params, kernel="numba", **kwargs)
    return py, kn


def _assert_same(found_py, found_kn, py, kn):
    if found_py is None:
        assert found_kn is None
    else:
        assert found_kn is not None
        assert found_kn.nodes == found_py.nodes
        assert found_kn.cost == found_py.cost  # bit-exact, not approx
        assert found_kn.segments == found_py.segments
        assert found_kn.vias == found_py.vias
        assert found_kn.expansions == found_py.expansions
    assert kn._last_stats == py._last_stats
    assert kn.last_outcome == py.last_outcome


class TestKnobSemantics:
    def test_resolve_kernel(self):
        assert resolve_kernel("python") is False
        assert resolve_kernel("numba") is True
        assert resolve_kernel("auto") is HAVE_NUMBA
        with pytest.raises(ValueError):
            resolve_kernel("jit")

    def test_backend_name(self):
        expected = "numba" if HAVE_NUMBA else "interpreted"
        assert kernel_backend_name() == expected

    def test_sadp_router_rejects_unknown_mode(self):
        grid, nets = generate_benchmark(spec_by_name("Test1"), scale=0.1, seed=1)
        with pytest.raises(ValueError, match="kernel"):
            SadpRouter(grid, nets, kernel="jit")


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_occupancy_with_overlay_and_penalties(self, seed):
        rng = random.Random(seed)
        grid = RoutingGrid(28, 28)
        _random_occupancy(grid, rng, fill=0.12)
        penalties = {
            (rng.randrange(3), rng.randrange(28), rng.randrange(28)): rng.uniform(1, 9)
            for _ in range(40)
        }
        params = CostParams()
        py, kn = _engines(
            grid,
            params,
            penalty_map=penalties,
            overlay_terms=(params.gamma, params.delta_tip),
        )
        for net_id in (100, 101):
            py.active_net = kn.active_net = net_id
            for _ in range(6):
                src = Point(rng.randrange(28), rng.randrange(28))
                dst = Point(rng.randrange(28), rng.randrange(28))
                req = SearchRequest(
                    net_id=net_id, sources=[(0, src)], targets=[(0, dst)]
                )
                _assert_same(
                    py.search(req, extra_margin=4),
                    kn.search(req, extra_margin=4),
                    py,
                    kn,
                )

    @pytest.mark.parametrize("seed", [7, 8])
    def test_multi_candidate_pins(self, seed):
        rng = random.Random(seed)
        grid = RoutingGrid(24, 24)
        _random_occupancy(grid, rng, fill=0.08)
        params = CostParams()
        py, kn = _engines(
            grid, params, overlay_terms=(params.gamma, params.delta_tip)
        )
        py.active_net = kn.active_net = 50
        for _ in range(5):
            sources = [
                (0, Point(rng.randrange(24), rng.randrange(24))) for _ in range(3)
            ]
            targets = [
                (0, Point(rng.randrange(24), rng.randrange(24))) for _ in range(3)
            ]
            req = SearchRequest(net_id=50, sources=sources, targets=targets)
            _assert_same(
                py.search(req, extra_margin=3),
                kn.search(req, extra_margin=3),
                py,
                kn,
            )

    def test_wrong_way_jogs(self):
        grid = RoutingGrid(20, 20)
        params = CostParams(wrong_way_factor=2.0)
        py, kn = _engines(grid, params)
        req = SearchRequest(
            net_id=0, sources=[(0, Point(2, 2))], targets=[(0, Point(12, 9))]
        )
        _assert_same(py.search(req), kn.search(req), py, kn)

    @pytest.mark.parametrize("budget", [1, 3, 17])
    def test_budget_exhaustion_matches(self, budget):
        grid = RoutingGrid(20, 20)
        py, kn = _engines(grid, CostParams())
        req = SearchRequest(
            net_id=0, sources=[(0, Point(0, 0))], targets=[(0, Point(19, 19))]
        )
        req.max_expansions = budget
        assert py.search(req) is None
        assert kn.search(req) is None
        assert py.last_outcome == "budget_exhausted"
        assert kn.last_outcome == "budget_exhausted"
        assert kn._last_stats == py._last_stats

    def test_guidance_trigger_resume(self):
        """The kernel suspends at the guidance trigger, activates the map
        and resumes — the python closure does the same mid-loop; both
        must land on the identical committed path and counters."""
        grid = RoutingGrid(30, 30)
        py, kn = _engines(grid, CostParams(), guidance="auto")
        py.guidance_trigger = kn.guidance_trigger = 4
        req = SearchRequest(
            net_id=0, sources=[(0, Point(1, 1))], targets=[(0, Point(25, 20))]
        )
        _assert_same(py.search(req), kn.search(req), py, kn)
        assert py.total_guided_searches == kn.total_guided_searches == 1


@pytest.mark.parametrize("guidance", ["off", "auto", "on"])
@pytest.mark.parametrize(
    "circuit,scale",
    [("Test1", 0.12), ("Test6", 0.12)],
    ids=["Test1-fixed-pins", "Test6-multi-candidate"],
)
def test_route_all_equivalence(circuit, scale, guidance):
    """Full-flow bit-identity: kernel="numba" commits exactly the routes,
    counters and rip-up outcomes of kernel="python", in every guidance
    mode."""
    spec = spec_by_name(circuit)
    grid_py, nets_py = generate_benchmark(spec, scale=scale, seed=2014)
    grid_kn, nets_kn = generate_benchmark(spec, scale=scale, seed=2014)
    router_py = SadpRouter(grid_py, nets_py, guidance=guidance, kernel="python")
    router_kn = SadpRouter(grid_kn, nets_kn, guidance=guidance, kernel="numba")

    res_py = router_py.route_all()
    res_kn = router_kn.route_all()

    assert res_kn.routes.keys() == res_py.routes.keys()
    for net_id in res_py.routes:
        a, b = res_py.routes[net_id], res_kn.routes[net_id]
        assert a.success == b.success, f"net {net_id} success diverged"
        assert a.segments == b.segments, f"net {net_id} path diverged"
        assert a.vias == b.vias, f"net {net_id} vias diverged"
        assert a.ripups == b.ripups, f"net {net_id} ripups diverged"
    assert res_kn.overlay_units == res_py.overlay_units
    assert res_kn.total_wirelength == res_py.total_wirelength
    assert res_kn.total_ripups == res_py.total_ripups
    # order-sensitive engine counters, not just end-state metrics
    assert router_kn.engine.total_searches == router_py.engine.total_searches
    assert router_kn.engine.total_expansions == router_py.engine.total_expansions
    assert (
        router_kn.engine.total_guided_searches
        == router_py.engine.total_guided_searches
    )
    assert (
        router_kn.engine.total_guidance_builds
        == router_py.engine.total_guidance_builds
    )


@pytest.mark.parametrize("executor", ["thread", "serial"])
def test_worker_subproblems_use_the_kernel(executor):
    """kernel= must survive the SearchSubproblem plumbing: a parallel run
    with kernel="numba" matches a sequential kernel="python" run."""
    spec = spec_by_name("Test1")
    grid_seq, nets_seq = generate_benchmark(spec, scale=0.12, seed=2014)
    grid_par, nets_par = generate_benchmark(spec, scale=0.12, seed=2014)
    seq = SadpRouter(grid_seq, nets_seq, kernel="python")
    par = SadpRouter(
        grid_par, nets_par, workers=2, executor=executor, kernel="numba"
    )
    assert par.engine.kernel == "numba"
    res_seq = seq.route_all()
    res_par = par.route_all()
    assert res_par.overlay_units == res_seq.overlay_units
    assert res_par.total_wirelength == res_seq.total_wirelength
    for net_id in res_seq.routes:
        assert (
            res_par.routes[net_id].segments == res_seq.routes[net_id].segments
        )
    assert par.engine.total_searches == seq.engine.total_searches
    assert par.engine.total_expansions == seq.engine.total_expansions
