"""Integration: a real route_all run emits the documented span tree and
metric names, and the no-op default leaves instrumented code silent."""

import pytest

from repro import obs
from repro.bench import FIXED_PIN_BENCHMARKS, run_proposed
from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.grid import RoutingGrid
from repro.netlist import Net, Netlist, Pin
from repro.obs.export import export_run_jsonl, validate_run_jsonl
from repro.router import SadpRouter


def _small_problem():
    grid = RoutingGrid(26, 26)
    nets = Netlist(
        [
            Net(0, "a", Pin.at(2, 5), Pin.at(20, 5)),
            Net(1, "b", Pin.at(2, 6), Pin.at(20, 6)),
            Net(2, "c", Pin.at(4, 10), Pin.at(18, 16)),
        ]
    )
    return grid, nets


class TestInstrumentedRun:
    @pytest.fixture
    def run(self):
        with obs.session() as ob:
            grid, nets = _small_problem()
            result = SadpRouter(grid, nets).route_all()
            yield ob, result

    def test_expected_span_tree(self, run):
        ob, result = run
        by_name = {sp.name: sp for sp in ob.tracer.finished}
        assert "route_all" in by_name
        assert by_name["route_all"].parent_id is None
        # every route_net hangs under route_all (or under another
        # route_net, for chained evictions)
        root_id = by_name["route_all"].span_id
        route_nets = ob.tracer.spans_named("route_net")
        assert len(route_nets) >= len(result.routes)
        route_net_ids = {sp.span_id for sp in route_nets}
        assert all(
            sp.parent_id == root_id or sp.parent_id in route_net_ids
            for sp in route_nets
        )
        # every search hangs under some route_net
        searches = ob.tracer.spans_named("astar_search")
        assert searches
        assert all(sp.parent_id in route_net_ids for sp in searches)
        # graph updates and coloring happened inside route_net spans too
        for name in ("ocg_update", "pseudo_color"):
            assert ob.tracer.spans_named(name), f"missing {name} spans"

    def test_expected_metric_names(self, run):
        ob, _ = run
        names = set(ob.registry.names())
        assert {
            "astar_searches_total",
            "astar_nodes_expanded_total",
            "astar_heap_pushes_total",
            "astar_heap_pops_total",
            "nets_routed_total",
            "ocg_edges_added_total",
            "uf_find_ops_total",
            "uf_union_ops_total",
            "route_net_seconds",
        } <= names

    def test_heap_accounting_consistent(self, run):
        ob, _ = run
        pushes = ob.registry.total("astar_heap_pushes_total")
        pops = ob.registry.total("astar_heap_pops_total")
        expanded = ob.registry.total("astar_nodes_expanded_total")
        assert 0 < pops <= pushes
        assert 0 < expanded <= pops

    def test_route_all_duration_covers_phases(self, run):
        ob, result = run
        totals = ob.tracer.totals_by_name()
        assert totals["route_all"] == pytest.approx(result.cpu_seconds, rel=1e-6)
        children = (
            totals.get("astar_search", 0.0)
            + totals.get("ocg_update", 0.0)
            + totals.get("pseudo_color", 0.0)
        )
        assert children <= totals["route_all"]

    def test_run_log_round_trip(self, run, tmp_path):
        ob, _ = run
        path = export_run_jsonl(tmp_path / "run.jsonl", observability=ob)
        assert validate_run_jsonl(path) == []


class TestUnionFindBranches:
    def test_rejected_commits_roll_back(self):
        """Undoing a rejected commit restores the hard-parity union-find
        from its undo point; only older-net removals force a rebuild."""
        with obs.session() as ob:
            grid, nets = generate_benchmark(
                spec_by_name("Test1"), scale=0.15, seed=2014
            )
            SadpRouter(grid, nets).route_all()
            rollbacks = ob.registry.total("ocg_uf_rollbacks_total")
        assert rollbacks > 0


class TestDisabledRun:
    def test_no_events_and_result_unchanged(self):
        obs.disable()
        grid, nets = _small_problem()
        result = SadpRouter(grid, nets).route_all()
        assert result.cpu_seconds > 0.0
        assert obs.get_active() is None
        # enabling *after* the run shows an empty backend: nothing leaked
        ob = obs.enable()
        assert ob.tracer.finished == []
        assert len(ob.registry) == 0
        obs.disable()

    def test_results_identical_with_and_without_obs(self):
        obs.disable()
        grid, nets = _small_problem()
        plain = SadpRouter(grid, nets).route_all()
        with obs.session():
            grid2, nets2 = _small_problem()
            observed = SadpRouter(grid2, nets2).route_all()
        assert plain.routability == observed.routability
        assert plain.total_wirelength == observed.total_wirelength
        assert plain.overlay_units == observed.overlay_units


class TestBenchPhases:
    def test_bench_row_gains_phase_columns(self):
        from repro.bench.runner import rows_to_table

        with obs.session():
            row = run_proposed(FIXED_PIN_BENCHMARKS[0], scale=0.1)
        assert row.has_phases
        assert row.search_s > 0.0
        assert row.graph_s > 0.0
        table = rows_to_table([row])
        assert "search(s)" in table and "graph(s)" in table and "flip(s)" in table

    def test_bench_row_without_obs_keeps_plain_table(self):
        from repro.bench.runner import rows_to_table

        obs.disable()
        row = run_proposed(FIXED_PIN_BENCHMARKS[0], scale=0.1)
        assert not row.has_phases
        assert "search(s)" not in rows_to_table([row])
