"""Unit tests for the overlay constraint graph."""

import pytest

from repro.color import Color
from repro.core import ConstraintEdge, OverlayConstraintGraph, ScenarioType


def edge(u, v, stype, **kw):
    return ConstraintEdge.from_scenario(u, v, stype, **kw)


class TestStructure:
    def test_add_edges_reports_consistency(self):
        g = OverlayConstraintGraph()
        assert g.add_edges([edge(0, 1, ScenarioType.T1A)]) == []
        assert g.num_edges() == 1
        assert g.vertices == {0, 1}

    def test_multi_edges_allowed(self):
        g = OverlayConstraintGraph()
        g.add_edges(
            [edge(0, 1, ScenarioType.T1A), edge(0, 1, ScenarioType.T2A)]
        )
        assert g.num_edges() == 2
        assert len(g.edges_of(0)) == 2

    def test_isolated_vertex(self):
        g = OverlayConstraintGraph()
        g.add_vertex(9)
        assert 9 in g.vertices
        assert 9 in g and 8 not in g and len(g) == 1
        assert g.components() == [{9}]

    def test_odd_cycle_detected_incrementally(self):
        g = OverlayConstraintGraph()
        assert g.add_edges([edge(0, 1, ScenarioType.T1A)]) == []
        assert g.add_edges([edge(1, 2, ScenarioType.T1A)]) == []
        offenders = g.add_edges([edge(2, 0, ScenarioType.T1A)])
        assert len(offenders) == 1
        assert g.has_hard_odd_cycle()

    def test_merge_cut_resolves_odd_cycle(self):
        # The paper's flagship case: a 3-cycle where one edge is 1-b
        # (same-color, merge+cut) is two-colorable.
        g = OverlayConstraintGraph()
        assert g.add_edges([edge(0, 1, ScenarioType.T1A)]) == []
        assert g.add_edges([edge(1, 2, ScenarioType.T1A)]) == []
        assert g.add_edges([edge(2, 0, ScenarioType.T1B)]) == []
        assert not g.has_hard_odd_cycle()

    def test_remove_net_restores_consistency(self):
        g = OverlayConstraintGraph()
        g.add_edges([edge(0, 1, ScenarioType.T1A), edge(1, 2, ScenarioType.T1A)])
        g.add_edges([edge(2, 0, ScenarioType.T1A)])  # odd cycle
        assert g.has_hard_odd_cycle()
        removed = g.remove_net(2)
        assert removed == 2
        assert not g.has_hard_odd_cycle()
        assert g.vertices == {0, 1}
        assert 2 not in g and len(g) == 2

    def test_remove_unknown_net(self):
        g = OverlayConstraintGraph()
        assert g.remove_net(42) == 0


class TestEvaluation:
    def test_evaluate_counts_overlay_and_hard(self):
        g = OverlayConstraintGraph()
        g.add_edges([edge(0, 1, ScenarioType.T1A), edge(1, 2, ScenarioType.T2B)])
        good = {0: Color.CORE, 1: Color.SECOND, 2: Color.SECOND}
        ev = g.evaluate(good)
        assert ev.hard_violations == 0
        assert ev.overlay_units == 1  # 2-b SS base cost
        bad = {0: Color.CORE, 1: Color.CORE, 2: Color.CORE}
        ev_bad = g.evaluate(bad)
        assert ev_bad.hard_violations == 1
        assert not ev_bad.feasible

    def test_evaluate_counts_cut_risks(self):
        g = OverlayConstraintGraph()
        g.add_edges([edge(0, 1, ScenarioType.T2A)])
        ev = g.evaluate({0: Color.CORE, 1: Color.SECOND})
        assert ev.cut_risks == 1

    def test_missing_color_defaults_to_core(self):
        g = OverlayConstraintGraph()
        g.add_edges([edge(0, 1, ScenarioType.T3A)])
        ev = g.evaluate({})
        assert ev.overlay_units == 1  # CC costs one unit in 3-a

    def test_net_cost(self):
        g = OverlayConstraintGraph()
        g.add_edges([edge(0, 1, ScenarioType.T3A), edge(1, 2, ScenarioType.T3A)])
        coloring = {0: Color.CORE, 1: Color.CORE, 2: Color.CORE}
        assert g.net_cost(1, coloring) == 2
        assert g.net_cost(0, coloring) == 1


class TestComponents:
    def test_components_split(self):
        g = OverlayConstraintGraph()
        g.add_edges([edge(0, 1, ScenarioType.T2A), edge(2, 3, ScenarioType.T2A)])
        comps = g.components()
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3]]

    def test_component_of(self):
        g = OverlayConstraintGraph()
        g.add_edges([edge(0, 1, ScenarioType.T2A), edge(1, 2, ScenarioType.T3A)])
        assert g.component_of(0) == {0, 1, 2}

    def test_edges_within(self):
        g = OverlayConstraintGraph()
        e1 = edge(0, 1, ScenarioType.T2A)
        e2 = edge(1, 2, ScenarioType.T2A)
        g.add_edges([e1, e2])
        inside = g.edges_within({0, 1})
        assert len(inside) == 1
        assert inside[0].u == 0
