"""Worker observability digests: parallel telemetry must match sequential.

Process-pool workers route in a child process whose observability backend
(if any) is discarded; ``solve_subproblem`` therefore ships a picklable
digest of its search spans/counters back with the result, and
``ParallelRouter._accept`` folds it into the parent backend. These tests
pin the equivalence: same span counts, same counter totals, regardless of
executor kind.
"""

import numpy as np
import pytest

from repro import obs
from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.geometry import Point
from repro.router import SadpRouter
from repro.router.astar import SearchSubproblem, solve_subproblem
from repro.router.cost import CostParams

_COUNTERS = (
    "astar_searches_total",
    "astar_nodes_expanded_total",
    "astar_heap_pushes_total",
    "astar_heap_pops_total",
    "guidance_builds_total",
)


def _route_and_snapshot(workers, executor):
    spec = spec_by_name("Test1")
    with obs.session() as ob:
        grid, nets = generate_benchmark(spec, scale=0.12, seed=2014)
        router = SadpRouter(grid, nets, workers=workers, executor=executor)
        result = router.route_all()
        spans = dict(ob.tracer.counts_by_name())
        counters = {name: ob.registry.total(name) for name in _COUNTERS}
        stats = router.parallel_stats
    return result, spans, counters, stats


class TestDigestEquivalence:
    @pytest.mark.parametrize("executor", ["process", "thread", "serial"])
    def test_span_and_counter_totals_match_sequential(self, executor):
        seq_result, seq_spans, seq_counters, _ = _route_and_snapshot(1, "process")
        par_result, par_spans, par_counters, stats = _route_and_snapshot(
            2, executor
        )
        assert par_result.overlay_units == seq_result.overlay_units
        assert par_counters == seq_counters
        assert par_spans.get("astar_search") == seq_spans.get("astar_search")
        # the run exercised the batch path at least once, or the
        # equivalence above would be vacuous
        assert stats is not None and stats.batched_nets >= 2

    def test_digest_attached_to_results(self):
        sub = SearchSubproblem(
            net_id=0,
            sources=[(0, Point(1, 2))],
            targets=[(0, Point(8, 2))],
            taps=[],
            bounds=(0, 11, 0, 5),
            occ=np.zeros((3, 12, 6), dtype=np.int32),
            die_width=12,
            die_height=6,
            horizontal=[True, False, True],
            params=CostParams(),
            overlay_terms=None,
        )
        res = solve_subproblem(sub)
        assert res.obs_digest is not None
        spans = dict(
            (name, (count, total_s))
            for name, count, total_s in res.obs_digest["spans"]
        )
        assert spans["astar_search"][0] >= 1
        assert spans["astar_search"][1] > 0.0
        counters = {name: amount for name, _, amount in res.obs_digest["counters"]}
        assert counters["astar_nodes_expanded_total"] > 0

    def test_digest_carries_guidance_builds(self):
        """A worker's map builds reach the parent only through the
        digest, labelled like the live counter."""
        sub = SearchSubproblem(
            net_id=0,
            sources=[(0, Point(1, 2))],
            targets=[(0, Point(8, 2))],
            taps=[],
            bounds=(0, 11, 0, 5),
            occ=np.zeros((3, 12, 6), dtype=np.int32),
            die_width=12,
            die_height=6,
            horizontal=[True, False, True],
            params=CostParams(),
            overlay_terms=None,
            guidance="on",
        )
        res = solve_subproblem(sub)
        builds = {
            dict(labels)["solve"]: amount
            for name, labels, amount in res.obs_digest["counters"]
            if name == "guidance_builds_total"
        }
        assert builds == {"bounded": 0.0, "full": 1.0}

    def test_external_spans_marked_and_backdated(self):
        """Folded worker spans are synthetic: flagged ``external`` so no
        one mistakes them for live measurements, and back-dated so their
        duration still aggregates into the search phase."""
        _, _, _, _ = _route_and_snapshot(1, "process")  # warm caches
        with obs.session() as ob:
            grid, nets = generate_benchmark(
                spec_by_name("Test1"), scale=0.12, seed=2014
            )
            router = SadpRouter(grid, nets, workers=2, executor="process")
            router.route_all()
            external = [
                sp
                for sp in ob.tracer.finished
                if sp.attrs.get("external")
            ]
            if router.parallel_stats.hits:
                assert external, "process-pool hits must fold external spans"
                for sp in external:
                    assert sp.name == "astar_search"
                    assert sp.end_s >= sp.start_s >= 0.0

    def test_thread_executor_does_not_double_count(self):
        """Thread workers record live into the shared backend; folding
        their digest on top would double every search. Guard the guard:
        totals for thread executors equal sequential, not 2x."""
        _, seq_spans, _, _ = _route_and_snapshot(1, "process")
        _, thr_spans, _, stats = _route_and_snapshot(2, "thread")
        assert stats.hits > 0
        assert thr_spans.get("astar_search") == seq_spans.get("astar_search")
