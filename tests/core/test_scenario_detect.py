"""Unit tests for incremental scenario detection."""

import pytest

from repro.core import ScenarioType
from repro.core.reference import ScenarioDetector
from repro.geometry import Point, Segment


def hseg(layer, x0, x1, y):
    return Segment(layer, Point(x0, y), Point(x1, y))


def vseg(layer, y0, y1, x):
    return Segment(layer, Point(x, y0), Point(x, y1))


class TestDetection:
    def test_first_net_sees_nothing(self):
        det = ScenarioDetector(num_layers=1)
        assert det.add_net(0, [hseg(0, 0, 9, 5)]) == []

    def test_adjacent_parallel_wires_type_1a(self):
        det = ScenarioDetector(num_layers=1)
        det.add_net(0, [hseg(0, 0, 9, 5)])
        found = det.add_net(1, [hseg(0, 0, 9, 6)])
        assert len(found) == 1
        sc = found[0]
        assert sc.scenario is ScenarioType.T1A
        assert (sc.net_a, sc.net_b) == (1, 0)
        assert sc.overlap == 10

    def test_tip_to_tip_type_1b(self):
        det = ScenarioDetector(num_layers=1)
        det.add_net(0, [hseg(0, 0, 4, 5)])
        found = det.add_net(1, [hseg(0, 5, 9, 5)])
        assert [sc.scenario for sc in found] == [ScenarioType.T1B]

    def test_trivial_scenarios_filtered_by_default(self):
        det = ScenarioDetector(num_layers=1)
        det.add_net(0, [hseg(0, 0, 4, 5)])
        # Vertical wire whose flank faces the tip at track diff 1: type 2-c.
        found = det.add_net(1, [vseg(0, 2, 8, 5)])
        assert found == []

    def test_trivial_scenarios_included_on_request(self):
        det = ScenarioDetector(num_layers=1, include_trivial=True)
        det.add_net(0, [hseg(0, 0, 4, 5)])
        found = det.add_net(1, [vseg(0, 2, 8, 5)])
        assert [sc.scenario for sc in found] == [ScenarioType.T2C]

    def test_same_net_fragments_ignored(self):
        det = ScenarioDetector(num_layers=1)
        det.add_net(0, [hseg(0, 0, 4, 5)])
        assert det.add_net(0, [hseg(0, 0, 4, 6)]) == []

    def test_layers_are_independent(self):
        det = ScenarioDetector(num_layers=2)
        det.add_net(0, [hseg(0, 0, 9, 5)])
        assert det.add_net(1, [hseg(1, 0, 9, 6)]) == []

    def test_far_wires_ignored(self):
        det = ScenarioDetector(num_layers=1)
        det.add_net(0, [hseg(0, 0, 9, 5)])
        assert det.add_net(1, [hseg(0, 0, 9, 9)]) == []

    def test_multiple_scenarios_from_one_net(self):
        det = ScenarioDetector(num_layers=1)
        det.add_net(0, [hseg(0, 0, 9, 4)])
        det.add_net(1, [hseg(0, 0, 9, 8)])
        found = det.add_net(2, [hseg(0, 0, 9, 6)])
        partners = sorted(sc.net_b for sc in found)
        assert partners == [0, 1]


class TestMutation:
    def test_remove_net(self):
        det = ScenarioDetector(num_layers=1)
        det.add_net(0, [hseg(0, 0, 9, 5)])
        assert det.remove_net(0) == 1
        assert det.add_net(1, [hseg(0, 0, 9, 6)]) == []

    def test_remove_unknown_net(self):
        det = ScenarioDetector(num_layers=1)
        assert det.remove_net(9) == 0

    def test_shapes_of(self):
        det = ScenarioDetector(num_layers=1)
        det.add_net(0, [hseg(0, 0, 9, 5), vseg(0, 6, 9, 2)])
        assert len(det.shapes_of(0)) == 2
        assert det.shapes_of(1) == []

    def test_probe_does_not_register(self):
        det = ScenarioDetector(num_layers=1)
        det.add_net(0, [hseg(0, 0, 9, 5)])
        probed = det.probe_segments(1, [hseg(0, 0, 9, 6)])
        assert len(probed) == 1
        # Probing must not have registered net 1's shapes.
        assert det.shapes_of(1) == []
        again = det.probe_segments(2, [hseg(0, 0, 9, 6)])
        partners = {sc.net_b for sc in again}
        assert partners == {0}
