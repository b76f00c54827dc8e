"""Cross-checks of the optimised algorithms against reference oracles."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstraintEdge,
    OverlayConstraintGraph,
    ScenarioType,
    VectorScenarioDetector,
)
from repro.core.reference import (
    reference_dependent_pairs,
    reference_hard_feasible,
)
from repro.geometry import Point, Segment

coord = st.integers(min_value=0, max_value=30)
run = st.integers(min_value=0, max_value=8)


@st.composite
def seg(draw):
    x, y = draw(coord), draw(coord)
    r = draw(run)
    if draw(st.booleans()):
        return Segment(0, Point(x, y), Point(x + r, y))
    return Segment(0, Point(x, y), Point(x, y + r))


class TestDetectorVsBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(seg(), min_size=2, max_size=6, unique_by=lambda s: (s.a, s.b)))
    def test_incremental_matches_quadratic(self, segs):
        nets = {i: [s] for i, s in enumerate(segs)}
        oracle = Counter(reference_dependent_pairs(nets))

        det = VectorScenarioDetector(num_layers=1)
        mine = Counter()
        for net_id, net_segs in nets.items():
            for sc in det.add_net(net_id, net_segs):
                lo, hi = min(sc.net_a, sc.net_b), max(sc.net_a, sc.net_b)
                mine[(lo, hi, sc.scenario)] += 1
        assert mine == oracle


NODES = list(range(7))
hard_types = st.sampled_from([ScenarioType.T1A, ScenarioType.T1B])
hard_edges = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), hard_types).filter(
        lambda e: e[0] != e[1]
    ),
    max_size=12,
)


class TestHardFeasibilityVsNetworkx:
    @settings(max_examples=80, deadline=None)
    @given(hard_edges)
    def test_incremental_union_find_matches_bipartiteness(self, raw):
        edges = [ConstraintEdge.from_scenario(u, v, t) for u, v, t in raw]
        graph = OverlayConstraintGraph()
        offenders = graph.add_edges(edges)
        assert (not offenders) == reference_hard_feasible(edges)
