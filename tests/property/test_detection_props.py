"""Property-based tests on scenario detection and relations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import classify_relation, scenario_for_relation
from repro.core.reference import ScenarioDetector
from repro.core.scenarios import SCENARIO_RULES
from repro.geometry import Point, Rect, Segment

coord = st.integers(min_value=0, max_value=40)
length = st.integers(min_value=0, max_value=12)
offset = st.integers(min_value=-30, max_value=30)


@st.composite
def hsegments(draw):
    x = draw(coord)
    y = draw(coord)
    run = draw(length)
    return Segment(0, Point(x, y), Point(x + run, y))


@st.composite
def segments(draw):
    x = draw(coord)
    y = draw(coord)
    run = draw(length)
    if draw(st.booleans()):
        return Segment(0, Point(x, y), Point(x + run, y))
    return Segment(0, Point(x, y), Point(x, y + run))


class TestRelationProperties:
    @settings(max_examples=120)
    @given(segments(), segments())
    def test_scenario_agreement_under_swap(self, a, b):
        """Swapping the pair changes orientation bookkeeping, never the
        scenario type."""
        rel_ab = classify_relation(a.to_rect(), a.horizontal, b.to_rect(), b.horizontal)
        rel_ba = classify_relation(b.to_rect(), b.horizontal, a.to_rect(), a.horizontal)
        assert (rel_ab is None) == (rel_ba is None)
        if rel_ab is not None:
            assert scenario_for_relation(rel_ab) == scenario_for_relation(rel_ba)

    @settings(max_examples=120)
    @given(segments(), segments(), offset, offset)
    def test_translation_invariance(self, a, b, dx, dy):
        ta = Segment(a.layer, a.a.translated(dx, dy), a.b.translated(dx, dy))
        tb = Segment(b.layer, b.a.translated(dx, dy), b.b.translated(dx, dy))
        rel = classify_relation(a.to_rect(), a.horizontal, b.to_rect(), b.horizontal)
        trel = classify_relation(ta.to_rect(), ta.horizontal, tb.to_rect(), tb.horizontal)
        assert (rel is None) == (trel is None)
        if rel is not None:
            assert (rel.along, rel.across, rel.direction) == (
                trel.along,
                trel.across,
                trel.direction,
            )

    @settings(max_examples=120)
    @given(segments(), segments())
    def test_dependent_relations_map_to_scenarios(self, a, b):
        """Every dependent relation falls into the 11-scenario taxonomy
        (the completeness claim of Theorem 2)."""
        rel = classify_relation(a.to_rect(), a.horizontal, b.to_rect(), b.horizontal)
        if rel is not None:
            stype = scenario_for_relation(rel)
            assert stype is not None
            assert stype in SCENARIO_RULES


class TestDetectorProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(hsegments(), min_size=2, max_size=6, unique_by=lambda s: (s.a, s.b)))
    def test_detection_is_order_independent_as_a_set(self, segs):
        """The multiset of (pair, scenario) instances does not depend on
        the order nets are added in."""

        def run(order):
            det = ScenarioDetector(num_layers=1)
            found = []
            for i in order:
                for sc in det.add_net(i, [segs[i]]):
                    key = (frozenset((sc.net_a, sc.net_b)), sc.scenario)
                    found.append(key)
            return sorted(found, key=repr)

        forward = run(range(len(segs)))
        backward = run(range(len(segs) - 1, -1, -1))
        assert forward == backward

    @settings(max_examples=60, deadline=None)
    @given(st.lists(hsegments(), min_size=1, max_size=5, unique_by=lambda s: (s.a, s.b)))
    def test_add_remove_is_identity(self, segs):
        det = ScenarioDetector(num_layers=1)
        for i, seg in enumerate(segs):
            det.add_net(i, [seg])
        baseline = det.probe_segments(99, [Segment(0, Point(0, 20), Point(5, 20))])
        det.add_net(50, [Segment(0, Point(10, 25), Point(15, 25))])
        det.remove_net(50)
        after = det.probe_segments(99, [Segment(0, Point(0, 20), Point(5, 20))])
        assert len(baseline) == len(after)
