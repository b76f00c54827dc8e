"""Names the benchmark harness in ``perfbench/`` reads from the package.

``perfbench/run.py`` is outside the tier-1 suite, so a cleanup that drops
one of these would otherwise only fail when the benchmark runs.
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
