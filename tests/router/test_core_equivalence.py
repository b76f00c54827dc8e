"""Production core vs object core, end to end.

Production routes on the vector scenario detector and the SoA
constraint graph; the object :class:`~repro.core.reference.ScenarioDetector`
and :class:`~repro.core.constraint_graph.OverlayConstraintGraph` they
replace stay as oracles. The swap is a pure representation change, so
the full route_all flow — ripups, colorings, overlay accounting,
cut-conflict elimination — must be bit-identical between the two on
every seeded instance, with the core the only part swapped.
"""

import pytest

from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.core.constraint_graph import OverlayConstraintGraph
from repro.core.reference import ScenarioDetector
from repro.router import SadpRouter


def _route(circuit: str, scale: float, seed: int, object_core: bool):
    spec = spec_by_name(circuit)
    grid, nets = generate_benchmark(spec, scale=scale, seed=seed)
    router = SadpRouter(grid, nets)
    if object_core:
        router.detector = ScenarioDetector(grid.num_layers)
        router.graphs = [OverlayConstraintGraph() for _ in range(grid.num_layers)]
    return router.route_all()


def _route_signature(result):
    return sorted(
        (
            net_id,
            route.success,
            route.ripups,
            tuple(route.segments),
            tuple(route.vias),
        )
        for net_id, route in result.routes.items()
    )


class TestCoreEquivalenceEndToEnd:
    @pytest.mark.parametrize(
        "circuit,scale",
        [("Test1", 0.15), ("Test6", 0.15)],
    )
    @pytest.mark.parametrize("seed", [2014, 7])
    def test_route_all_bit_identical(self, circuit, scale, seed):
        obj = _route(circuit, scale, seed, object_core=True)
        vec = _route(circuit, scale, seed, object_core=False)
        assert _route_signature(vec) == _route_signature(obj)
        assert vec.colorings == obj.colorings
        assert vec.overlay_units == obj.overlay_units
        assert vec.overlay_nm == obj.overlay_nm
        assert vec.hard_overlays == obj.hard_overlays
        assert vec.cut_conflicts == obj.cut_conflicts
        assert vec.total_ripups == obj.total_ripups
        assert vec.color_flips == obj.color_flips
