"""Integration tests for the full overlay-aware routing flow."""

import pytest

from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.color import Color
from repro.core import ScenarioType
from repro.geometry import Point, Rect
from repro.grid import RoutingGrid
from repro.netlist import Net, Netlist, Pin
from repro.router import CostParams, SadpRouter


def make_router(nets, size=30, **kwargs):
    grid = RoutingGrid(size, size)
    return SadpRouter(grid, Netlist(nets), **kwargs)


class TestBasicFlow:
    def test_single_net(self):
        router = make_router([Net(0, "a", Pin.at(2, 5), Pin.at(20, 5))])
        result = router.route_all()
        assert result.routability == 1.0
        assert result.cut_conflicts == 0
        assert result.overlay_units == 0
        assert result.routes[0].wirelength == 18

    def test_parallel_nets_get_alternating_colors(self):
        nets = [
            Net(i, f"n{i}", Pin.at(2, 5 + i), Pin.at(20, 5 + i)) for i in range(4)
        ]
        result = make_router(nets).route_all()
        assert result.routability == 1.0
        assert result.hard_overlays == 0
        colors = result.colorings[0]
        # Adjacent tracks force alternating colors (type 1-a).
        for i in range(3):
            assert colors[i] != colors[i + 1]

    def test_empty_netlist(self):
        result = make_router([]).route_all()
        assert result.routes == {}
        assert result.overlay_units == 0

    def test_colorings_cover_routed_layers(self):
        nets = [Net(0, "a", Pin.at(2, 2), Pin.at(18, 18))]
        result = make_router(nets).route_all()
        route = result.routes[0]
        for seg in route.segments:
            assert 0 in result.colorings[seg.layer] or not result.colorings[
                seg.layer
            ]


class TestOddCycleDecomposition:
    def test_odd_cycle_solved_by_merge(self):
        """Three mutually adjacent wires: 1-a + 1-a + 1-b is colorable."""
        nets = [
            Net(0, "a", Pin.at(2, 5), Pin.at(12, 5)),
            Net(1, "b", Pin.at(2, 6), Pin.at(12, 6)),
            # Net 2 abuts net 0 tip-to-tip on the same track.
            Net(2, "c", Pin.at(13, 5), Pin.at(22, 5)),
        ]
        result = make_router(nets).route_all()
        assert result.routability == 1.0
        assert result.hard_overlays == 0
        colors = result.colorings[0]
        assert colors[0] != colors[1]
        assert colors[0] == colors[2]  # merged pair shares its color

    def test_pin_reservation_protects_later_nets(self):
        # Net 1's pins sit where net 0's shortest path would run; with
        # reservation, net 0 must route around and net 1 still routes.
        nets = [
            Net(0, "long", Pin.at(0, 10), Pin.at(29, 10)),
            Net(1, "short", Pin.at(15, 10), Pin.at(15, 12)),
        ]
        result = make_router(nets).route_all()
        assert result.routability == 1.0


class TestGuarantees:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_zero_conflicts_randomised(self, seed):
        import random

        rng = random.Random(seed)
        used = set()
        nets = []
        for i in range(25):
            while True:
                a = Point(rng.randrange(30), rng.randrange(30))
                if a not in used:
                    used.add(a)
                    break
            while True:
                b = Point(
                    min(max(a.x + rng.randint(-8, 8), 0), 29),
                    min(max(a.y + rng.randint(-8, 8), 0), 29),
                )
                if b not in used and b != a:
                    used.add(b)
                    break
            nets.append(Net(i, f"n{i}", Pin(candidates=(a,)), Pin(candidates=(b,))))
        result = make_router(nets).route_all()
        assert result.cut_conflicts == 0
        assert result.hard_overlays == 0

    def test_hard_constraints_always_satisfied(self):
        nets = [
            Net(i, f"n{i}", Pin.at(2, 4 + i), Pin.at(24, 4 + i)) for i in range(6)
        ]
        router = make_router(nets)
        result = router.route_all()
        for layer, graph in enumerate(router.graphs):
            ev = graph.evaluate(router.colorings[layer])
            assert ev.hard_violations == 0

    def test_rip_up_net_public_api(self):
        nets = [Net(0, "a", Pin.at(2, 5), Pin.at(20, 5))]
        router = make_router(nets)
        result = router.route_all()
        assert result.routability == 1.0
        router.rip_up_net(0)
        assert list(router.grid.cells_of_net(0)) == [
            (0, Point(2, 5)),
            (0, Point(20, 5)),
        ]  # only the reserved pins remain


class TestCutMemoUpkeep:
    @staticmethod
    def _route(keep_memo):
        grid, nets = generate_benchmark(spec_by_name("Test1"), scale=0.15, seed=2014)
        router = SadpRouter(grid, nets)
        if keep_memo:
            router.checker.forget_scenarios = lambda scenarios: None
        result = router.route_all()
        digest = (
            sorted(
                (nid, r.success, r.ripups, tuple(r.segments))
                for nid, r in result.routes.items()
            ),
            result.colorings,
            result.overlay_units,
            result.cut_conflicts,
            result.color_flips,
        )
        return router, digest

    def test_torn_down_scenarios_leave_the_memo(self):
        """Tearing a net down drops its scenarios' memoised cuts, so the
        memo holds only scenarios the router can still look up; routing
        is the same as with a memo that keeps everything."""
        router, digest = self._route(keep_memo=False)
        kept_router, kept_digest = self._route(keep_memo=True)
        assert digest == kept_digest
        memo = router.checker._cut_memo
        assert len(memo) < len(kept_router.checker._cut_memo)
        live = {
            id(sc) for bucket in router._scenarios_by_net.values() for sc in bucket
        }
        assert all(id(sc) in live for sc, _ in memo.values())

        net_id = next(
            nid for nid in sorted(router._committed)
            if any(sc.net_a == nid for sc in router._scenarios_by_net.get(nid, ()))
        )

        def holds(net):
            return any(net in (sc.net_a, sc.net_b) for sc, _ in memo.values())

        assert holds(net_id)
        router.rip_up_net(net_id)
        assert memo and not holds(net_id)


class TestAblations:
    def test_flipping_disabled_still_feasible(self):
        nets = [
            Net(i, f"n{i}", Pin.at(2, 4 + i), Pin.at(24, 4 + i)) for i in range(5)
        ]
        result = make_router(nets, enable_flipping=False).route_all()
        assert result.hard_overlays == 0
        assert result.color_flips == 0

    def test_t2b_penalty_disabled(self):
        nets = [Net(0, "a", Pin.at(2, 5), Pin.at(20, 5))]
        result = make_router(nets, enable_t2b_penalty=False).route_all()
        assert result.routability == 1.0

    def test_flipping_enabled_counts(self):
        nets = [
            Net(i, f"n{i}", Pin.at(2, 4 + i), Pin.at(24, 4 + i)) for i in range(5)
        ]
        result = make_router(nets).route_all()
        assert result.color_flips >= 1  # at least the final pass


class TestMultiCandidate:
    def test_candidate_choice(self):
        src = Pin.multi((Point(2, 5), Point(2, 15)))
        dst = Pin.multi((Point(20, 15), Point(20, 25)))
        result = make_router([Net(0, "m", src, dst)]).route_all()
        assert result.routability == 1.0
        # Best pairing is (2,15) -> (20,15): a straight 18-step wire.
        assert result.routes[0].wirelength == 18


class TestCoreKnob:
    def test_only_the_vector_core_routes(self):
        """``core`` stays for callers that read it, but production has one
        engine: any other value points at the oracle router."""
        assert make_router([]).core == "vector"
        for core in ("object", "fancy"):
            with pytest.raises(ValueError, match="reference_router"):
                make_router([], core=core)
