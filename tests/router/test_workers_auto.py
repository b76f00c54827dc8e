"""``workers="auto"``: the scheduler dry-run and the serial fallback.

Auto mode predicts the batched-net fraction by dry-running the batch
scheduler over the ordered queue, then routes in parallel only when
enough nets would actually land in >=2-net batches. These tests pin the
prediction itself (spread-out vs piled-up netlists), the decision
recording in ``ParallelStats``, and that both outcomes commit the exact
sequential result.
"""

import os

import pytest

from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.geometry import Point
from repro.grid import RoutingGrid
from repro.netlist import Net, Netlist, Pin
from repro.router import BatchScheduler, SadpRouter
from repro.router.parallel import (
    AUTO_MIN_BATCHED_FRACTION,
    predict_batched_fraction,
)


def _netlist(pairs):
    nets = Netlist()
    for i, (sx, sy, tx, ty) in enumerate(pairs):
        nets.add(
            Net(
                net_id=i,
                name=f"n{i}",
                source=Pin.at(sx, sy),
                target=Pin.at(tx, ty),
            )
        )
    return nets


def _scheduler(router, workers=2):
    return BatchScheduler(
        router.params,
        router.grid.rules,
        router.grid.width,
        router.grid.height,
        max_batch=max(2 * workers, 2),
        lookahead=max(8 * workers, 16),
    )


class TestPrediction:
    def test_spread_nets_predict_batched(self):
        grid = RoutingGrid(120, 120)
        nets = _netlist(
            [(5 + 30 * i, 5, 5 + 30 * i, 20) for i in range(4)]
        )
        router = SadpRouter(grid, nets)
        fraction = predict_batched_fraction(
            _scheduler(router), list(nets)
        )
        assert fraction >= AUTO_MIN_BATCHED_FRACTION

    def test_piled_up_nets_predict_serial(self):
        grid = RoutingGrid(40, 40)
        # every window overlaps every other: nothing can batch
        nets = _netlist([(10, 10 + i, 25, 10 + i) for i in range(4)])
        router = SadpRouter(grid, nets)
        fraction = predict_batched_fraction(
            _scheduler(router), list(nets)
        )
        assert fraction == 0.0

    def test_empty_queue(self):
        grid = RoutingGrid(20, 20)
        router = SadpRouter(grid, Netlist())
        assert predict_batched_fraction(_scheduler(router), []) == 0.0

    def test_prediction_matches_live_batching(self):
        """The dry run is the same pick/consume loop the live router
        uses, so on a static queue its batched count matches the batch
        sizes the parallel run actually forms."""
        grid, nets = generate_benchmark(
            spec_by_name("Test1"), scale=0.12, seed=2014
        )
        router = SadpRouter(grid, nets, workers=2, executor="thread")
        ordered = list(router.netlist.ordered_for_routing(router.order))
        fraction = predict_batched_fraction(_scheduler(router), ordered)
        assert 0.0 <= fraction <= 1.0


class TestAutoResolution:
    def test_explicit_workers_bypass_auto(self):
        grid = RoutingGrid(20, 20)
        router = SadpRouter(grid, Netlist(), workers=3)
        assert router._resolve_workers([]) == (3, "batch", None)

    def test_auto_serial_on_tiny_netlist(self):
        grid = RoutingGrid(20, 20)
        nets = _netlist([(2, 2, 15, 15)])
        router = SadpRouter(grid, nets, workers="auto")
        workers, mode, decision = router._resolve_workers(list(nets))
        assert workers == 1
        assert mode == "batch"
        assert decision == ("serial", 0.0)

    def test_auto_parallel_on_spread_netlist(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        grid = RoutingGrid(120, 120)
        nets = _netlist(
            [(5 + 30 * i, 5, 5 + 30 * i, 20) for i in range(4)]
        )
        router = SadpRouter(grid, nets, workers="auto")
        workers, mode, decision = router._resolve_workers(list(nets))
        assert workers >= 2
        assert mode == "batch"  # 4 nets can never clear the shard bar
        assert decision[0] == "parallel"
        assert decision[1] >= AUTO_MIN_BATCHED_FRACTION

    def test_auto_serial_on_congested_netlist(self):
        grid = RoutingGrid(40, 40)
        nets = _netlist([(10, 10 + i, 25, 10 + i) for i in range(4)])
        router = SadpRouter(grid, nets, workers="auto")
        workers, mode, decision = router._resolve_workers(list(nets))
        assert workers == 1
        assert decision[0] == "serial"

    def test_explicit_workers_shard_on_forces_sharded_mode(self):
        grid, nets = generate_benchmark(
            spec_by_name("Test1"), scale=0.2, seed=2014
        )
        router = SadpRouter(grid, nets, workers=2, shard="on")
        ordered = list(router.netlist.ordered_for_routing(router.order))
        workers, mode, decision = router._resolve_workers(ordered)
        assert (workers, mode, decision) == (2, "sharded", None)
        assert router._shard_plan is not None
        assert router._shard_plan.grid is not None

    def test_shard_off_keeps_batch_mode(self):
        grid, nets = generate_benchmark(
            spec_by_name("Test1"), scale=0.2, seed=2014
        )
        router = SadpRouter(grid, nets, workers=2, shard="off")
        ordered = list(router.netlist.ordered_for_routing(router.order))
        assert router._resolve_workers(ordered) == (2, "batch", None)


class TestEndToEnd:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_auto_records_decision_and_matches_sequential(self, cpus, monkeypatch):
        # Pin the CPU count so the single-core early return (1) and the
        # shard/batch dry-runs (2) both run on every host.
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        spec = spec_by_name("Test1")
        grid_a, nets_a = generate_benchmark(spec, scale=0.12, seed=2014)
        grid_s, nets_s = generate_benchmark(spec, scale=0.12, seed=2014)
        auto = SadpRouter(grid_a, nets_a, workers="auto", executor="thread")
        seq = SadpRouter(grid_s, nets_s)
        res_auto = auto.route_all()
        res_seq = seq.route_all()
        # identical committed result either way the decision went
        assert res_auto.routes.keys() == res_seq.routes.keys()
        for net_id in res_seq.routes:
            a, b = res_auto.routes[net_id], res_seq.routes[net_id]
            assert (a.success, a.segments, a.vias) == (
                b.success,
                b.segments,
                b.vias,
            )
        assert res_auto.overlay_units == res_seq.overlay_units
        # the decision is always recorded, serial fallback included
        stats = auto.parallel_stats
        assert stats is not None
        assert stats.auto_decision in ("serial", "parallel", "sharded")
        payload = stats.to_dict()
        assert payload["auto_decision"] == stats.auto_decision
        if stats.auto_decision in ("serial", "parallel"):
            assert 0.0 <= stats.predicted_batched_fraction <= 1.0
            # to_dict rounds the fraction to 3 places
            assert payload["predicted_batched_fraction"] == round(
                stats.predicted_batched_fraction, 3
            )
        if stats.auto_decision == "serial":
            assert stats.workers == 1
        else:
            assert stats.workers >= 2
        reason = stats.decision_trace["reason"]
        assert (reason == "single-core host") == (cpus == 1)

    def test_explicit_workers_leave_auto_fields_unset(self):
        grid, nets = generate_benchmark(
            spec_by_name("Test1"), scale=0.1, seed=2014
        )
        router = SadpRouter(grid, nets, workers=2, executor="thread")
        router.route_all()
        stats = router.parallel_stats
        assert stats is not None
        assert stats.auto_decision == ""
        assert "auto_decision" not in stats.to_dict()
