"""Behavioural tests of the three baseline routers."""

import pytest

from repro.baselines import CutNoMergeRouter, DuTrimRouter, GaoPanTrimRouter
from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.geometry import Point
from repro.grid import RoutingGrid
from repro.netlist import Net, Netlist, Pin
from repro.router import SadpRouter


def simple_nets(n=4, pitch=1):
    return [
        Net(i, f"n{i}", Pin.at(2, 4 + i * pitch), Pin.at(22, 4 + i * pitch))
        for i in range(n)
    ]


def route(router_cls, nets, size=30, **kw):
    grid = RoutingGrid(size, size)
    return router_cls(grid, Netlist(nets), **kw).route_all()


class TestGaoPan:
    def test_routes_simple_nets(self):
        result = route(GaoPanTrimRouter, simple_nets())
        assert result.routability == 1.0

    def test_second_patterns_overlay_without_assists(self):
        result = route(GaoPanTrimRouter, simple_nets())
        # At least one net is SECOND-colored with exposed flanks.
        assert result.overlay_nm > 0

    def test_frozen_colors_lose_to_sandwiches(self):
        # Three parallel adjacent wires routed in an order that freezes
        # the outer two to different colors leaves the middle stuck: the
        # visible-conflict check rejects it (lower routability), which is
        # the published failure mode.
        nets = [
            Net(0, "top", Pin.at(2, 6), Pin.at(22, 6)),
            Net(1, "bot", Pin.at(2, 4), Pin.at(22, 4)),
            Net(2, "mid", Pin.at(2, 5), Pin.at(22, 5)),
        ]
        ours = route(SadpRouter, nets)
        theirs = route(GaoPanTrimRouter, nets)
        assert ours.routability >= theirs.routability

    def test_conflicts_counted_by_complete_model(self):
        # Tip-abutting same-color wires are invisible to [11]'s model but
        # the evaluation counts them.
        nets = [
            Net(0, "a", Pin.at(2, 5), Pin.at(10, 5)),
            Net(1, "b", Pin.at(11, 5), Pin.at(20, 5)),
        ]
        result = route(GaoPanTrimRouter, nets)
        if result.routability == 1.0:
            # Both colors equal -> hidden 1-b trim conflict surfaces.
            assert result.cut_conflicts >= 0  # evaluated, not crashed


class TestCutNoMerge:
    def test_routes_simple_nets(self):
        result = route(CutNoMergeRouter, simple_nets())
        assert result.routability == 1.0

    def test_tip_abutment_rejected(self):
        # [16] cannot merge: a net whose only route abuts another net's
        # tip is ripped up / fails rather than committed cleanly.
        nets = [
            Net(0, "a", Pin.at(2, 5), Pin.at(10, 5)),
            Net(1, "b", Pin.at(11, 5), Pin.at(20, 5)),
        ]
        result = route(CutNoMergeRouter, nets)
        # Either net 1 detoured (extra wirelength/vias) or failed.
        route1 = result.routes[1]
        if route1.success:
            assert route1.wirelength > 9 or route1.via_count > 0

    def test_ours_beats_it_on_overlay(self):
        nets = simple_nets(6)
        ours = route(SadpRouter, nets)
        theirs = route(CutNoMergeRouter, nets)
        assert ours.overlay_units <= theirs.overlay_units
        assert ours.cut_conflicts == 0


class TestDuTrim:
    def test_multi_candidate_selection(self):
        src = Pin.multi((Point(2, 5), Point(2, 15)))
        dst = Pin.multi((Point(20, 15), Point(20, 25)))
        result = route(DuTrimRouter, [Net(0, "m", src, dst)])
        assert result.routability == 1.0
        assert result.routes[0].wirelength == 18  # picked the aligned pair

    def test_time_budget_aborts(self):
        nets = [
            Net(
                i,
                f"n{i}",
                Pin.multi((Point(2, 3 + 2 * i), Point(3, 3 + 2 * i))),
                Pin.multi((Point(22, 3 + 2 * i), Point(23, 3 + 2 * i))),
            )
            for i in range(8)
        ]
        result = route(DuTrimRouter, nets, time_budget_s=0.0)
        assert result.routability == 0.0  # budget exhausted immediately

    def test_slower_than_ours_per_candidate_blowup(self):
        nets = [
            Net(
                i,
                f"n{i}",
                Pin.multi((Point(2, 3 + 2 * i), Point(3, 3 + 2 * i), Point(4, 3 + 2 * i))),
                Pin.multi((Point(22, 3 + 2 * i), Point(23, 3 + 2 * i), Point(24, 3 + 2 * i))),
            )
            for i in range(6)
        ]
        ours = route(SadpRouter, nets)
        theirs = route(DuTrimRouter, nets)
        assert theirs.cpu_seconds > ours.cpu_seconds


def _digest(result):
    return (
        sorted(
            (nid, r.success, r.ripups, tuple(r.segments), tuple(r.vias))
            for nid, r in result.routes.items()
        ),
        result.colorings,
        result.overlay_units,
        result.overlay_nm,
        result.hard_overlays,
        result.cut_conflicts,
    )


@pytest.mark.parametrize(
    "router_cls", [GaoPanTrimRouter, CutNoMergeRouter, DuTrimRouter]
)
@pytest.mark.parametrize("circuit,scale", [("Test1", 0.2), ("Test6", 0.15)])
def test_guided_search_routes_like_unguided(router_cls, circuit, scale):
    """The baselines share the production A*, guided past the default
    trigger: they must commit exactly what the unguided search commits."""
    runs = {}
    for trigger in (-1, None):
        grid, nets = generate_benchmark(spec_by_name(circuit), scale=scale, seed=2014)
        router = router_cls(grid, nets)
        if trigger is not None:
            router.engine.guidance_trigger = trigger
        runs[trigger] = (_digest(router.route_all()), router.engine)
    (plain, plain_engine), (guided, guided_engine) = runs[-1], runs[None]
    assert guided == plain
    assert guided_engine.total_searches == plain_engine.total_searches
    assert guided_engine.total_guided_searches > 0
    assert plain_engine.total_guided_searches == 0
