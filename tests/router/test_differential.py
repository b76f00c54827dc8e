"""Differential harness: every router configuration against the oracles.

One routing result, many ways to compute it. Each random small design is
routed by the production :class:`SadpRouter` at the default guidance
trigger, at trigger 1 (a whole-window map after the first expansion) and
at trigger -1 (unguided), and by
:func:`~repro.router.reference.reference_router` — the dict A*, the
object scenario detector and the object constraint graph — and all four
must agree on a canonical digest of the result: per net success,
rip-ups, segments and vias; the colorings; overlay units and nm, hard
overlays and cut conflicts; total rip-ups, color flips and searches.

Guidance only prunes, so the unguided production search must expand
exactly what the oracle expands and a guided one never more.

The seeded designs of the per-feature end-to-end suites (core, A* and
guidance equivalence) are examples here too. Test1@0.2 and Test6@0.2
(seed 2014) grow constraint-graph components of more than 32 nets, so
the flip-time contraction is pinned against the object oracle on a wide
component as well.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.router import SadpRouter
from repro.router.reference import reference_router

#: Designs whose largest constraint-graph component must exceed 32 nets.
WIDE = {("Test1", 0.2, 2014), ("Test6", 0.2, 2014)}

#: Guidance triggers the production router runs at: unguided, the
#: default (None: as constructed), and a whole-window map after the
#: first expansion.
TRIGGERS = (-1, None, 1)


def _route(build, circuit, scale, seed, trigger=None):
    grid, nets = generate_benchmark(spec_by_name(circuit), scale=scale, seed=seed)
    router = build(grid, nets)
    if trigger is not None:
        router.engine.guidance_trigger = trigger
    return router, router.route_all()


def _digest(router, result):
    return {
        "routes": sorted(
            (nid, r.success, r.ripups, tuple(r.segments), tuple(r.vias))
            for nid, r in result.routes.items()
        ),
        "colorings": result.colorings,
        "overlay": (
            result.overlay_units,
            result.overlay_nm,
            result.hard_overlays,
            result.cut_conflicts,
        ),
        "totals": (
            result.total_ripups,
            result.color_flips,
            router.engine.total_searches,
        ),
    }


@settings(max_examples=6, deadline=None)
@given(
    st.sampled_from(["Test1", "Test6"]),
    st.integers(min_value=5, max_value=15).map(lambda pct: pct / 100),
    st.integers(min_value=0, max_value=10**6),
)
# the per-feature end-to-end suites' seeded designs
@example("Test1", 0.15, 2014)
@example("Test6", 0.15, 2014)
@example("Test1", 0.15, 7)
@example("Test6", 0.15, 7)
@example("Test1", 0.12, 2014)
@example("Test6", 0.12, 2014)
# designs with a constraint-graph component of more than 32 nets
@example("Test1", 0.2, 2014)
@example("Test6", 0.2, 2014)
def test_every_configuration_routes_like_the_oracles(circuit, scale, seed):
    ref_router, ref = _route(reference_router, circuit, scale, seed)
    want = _digest(ref_router, ref)
    engines = {}
    for trigger in TRIGGERS:
        router, result = _route(SadpRouter, circuit, scale, seed, trigger)
        assert _digest(router, result) == want, f"trigger {trigger} diverged"
        engines[trigger] = router.engine
        if trigger == -1 and (circuit, scale, seed) in WIDE:
            largest = max(
                len(comp) for graph in router.graphs for comp in graph.components()
            )
            assert largest > 32
    assert engines[-1].total_expansions == ref_router.engine.total_expansions
    for trigger in TRIGGERS[1:]:
        assert engines[trigger].total_expansions <= engines[-1].total_expansions
    assert engines[-1].total_guided_searches == 0
    if engines[1].total_searches:
        assert engines[1].total_guided_searches > 0
