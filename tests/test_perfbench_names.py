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
