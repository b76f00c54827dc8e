"""Names the benchmark harness in ``perfbench/`` reads from the package.

``perfbench/run.py`` and ``perfbench/tracing.py`` are outside the tier-1
suite, so a cleanup that drops or renames one of these would otherwise
only fail when the benchmark runs.
"""

import inspect

from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.pipeline import PipelineConfig
from repro.router import SadpRouter


def test_names_read_by_the_benchmark_harness():
    from repro.router.kernel import kernel_backend_name

    assert kernel_backend_name() == "python"
    grid, nets = generate_benchmark(spec_by_name("Test1"), scale=0.05, seed=2014)
    router = SadpRouter(grid, nets)
    router.route_all()
    assert router.parallel_stats is None
    assert PipelineConfig(circuit="Test1").workers == 1
    assert inspect.signature(SadpRouter).parameters["core"].default == "vector"
    assert router.core == "vector"
    # the route workloads' facts and the tracer's A* counters
    engine = router.engine
    assert engine.total_searches > 0
    assert engine.total_expansions > 0
    assert isinstance(engine.total_guided_searches, int)


def test_names_wrapped_for_the_service_workload(monkeypatch, tmp_path):
    """The tracer also wraps the search, the grid, the cut checker, the
    on-disk store, every pipeline stage and mask synthesis/verify; a
    pipeline run through an ``ArtifactStore`` must reach each wrapper
    through the attribute the tracer replaces. It wraps four methods of
    the ``OverlayCostCache`` stub too, which nothing constructs: they
    must exist, and nothing reaches them."""
    from repro import decompose
    from repro.core import CutConflictChecker
    from repro.grid import RoutingGrid
    from repro.pipeline import ArtifactStore, Pipeline, stages
    from repro.router.astar import AStarRouter
    from repro.router.overlay_cache import OverlayCostCache

    calls = {}
    returns = {}

    def wrap(owner, attr, name):
        original = getattr(owner, attr)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            out = original(*args, **kwargs)
            returns.setdefault(name, out)
            return out

        monkeypatch.setattr(owner, attr, counted)

    wrap(AStarRouter, "search", "astar.search")
    wrap(RoutingGrid, "release_net", "grid.release_net")
    stub = ("grid_for", "on_cells_changed", "on_grid_reset", "invalidate_net")
    for attr in stub:
        wrap(OverlayCostCache, attr, f"overlay_cache.{attr}")
    wrap(CutConflictChecker, "conflicts_with", "cut_conflict.conflicts_with")
    wrap(CutConflictChecker, "register_net", "cut_conflict.register_net")
    wrap(ArtifactStore, "publish", "store.publish")
    wrap(ArtifactStore, "load", "store.load")
    for stage in stages.default_stages():
        wrap(type(stage), "run", f"pipeline.stage.{stage.name}")
    wrap(decompose, "synthesize_masks", "decompose.synthesize_masks")
    wrap(decompose, "verify_decomposition", "decompose.verify")

    config = PipelineConfig(circuit="Test1", scale=0.15, cache_dir=str(tmp_path))
    Pipeline(config).run()
    Pipeline(config).run()  # all cached: the store loads every artifact

    unreached = {n for n, c in calls.items() if not c}
    assert unreached == {f"overlay_cache.{attr}" for attr in stub}
    nbytes, published = returns["store.publish"]
    assert isinstance(nbytes, int) and isinstance(published, bool)


def test_layers_wrapped_by_the_tracer(monkeypatch):
    """``perfbench/tracing.py`` wraps these by name; the router must reach
    ``flip_colors``/``pseudo_color`` through the module globals."""
    from repro.core import SoAOverlayConstraintGraph, VectorScenarioDetector
    from repro.grid import RoutingGrid
    from repro.router import sadp_router

    for name in ("add_scenarios", "remove_net", "has_hard_odd_cycle"):
        assert callable(getattr(SoAOverlayConstraintGraph, name))
    assert callable(VectorScenarioDetector.add_net)
    assert callable(RoutingGrid.occupy_many)
    calls = {"flip_colors": 0, "pseudo_color": 0}
    for name in calls:
        original = getattr(sadp_router, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(sadp_router, name, counted)
    grid, nets = generate_benchmark(spec_by_name("Test1"), scale=0.05, seed=2014)
    router = SadpRouter(grid, nets)
    assert isinstance(router.detector, VectorScenarioDetector)
    assert all(isinstance(g, SoAOverlayConstraintGraph) for g in router.graphs)
    router.route_all()
    assert calls["flip_colors"] > 0 and calls["pseudo_color"] > 0


def test_service_surface_read_by_the_benchmark_harness(tmp_path):
    """service-mix starts an inline-worker service, drives it with
    closed-loop clients (submit, stream to the end, snapshot, fetch) and
    reads these snapshot keys."""
    from repro.service import RoutingService, ServiceClient

    svc = RoutingService(
        workers=0,
        cache_dir=str(tmp_path / "store"),
        spool_dir=str(tmp_path / "spool"),
        ledger=False,
        ledger_dir=str(tmp_path / "ledger"),
    ).start_background()
    try:
        client = ServiceClient(svc.url, timeout_s=60.0, tenant="client0")
        job = client.submit({"circuit": "Test1", "scale": 0.05, "seed": 2014})
        events = client.events(job["job_id"], wait=True)
        snap = client.job(job["job_id"])
        report = client.artifact(job["job_id"], "report")
    finally:
        svc.stop()
    assert events[-1]["event"] == "job_done"
    assert snap["status"] == "done" and snap["tenant"] == "client0"
    assert snap["created_unix"] <= snap["started_unix"] <= snap["finished_unix"]
    route = [s for s in snap["stages"] if s["stage"] == "route"]
    assert route[0]["status"] == "run" and route[0]["seconds"] > 0
    assert snap["counters"]["astar_searches_total"] > 0
    assert report["kind"] == "report"
