"""Unit tests for greedy pseudo-coloring."""

from repro.color import Color
from repro.core import ConstraintEdge, OverlayConstraintGraph, ScenarioType
from repro.core.pseudo_coloring import pseudo_color


def edge(u, v, stype, **kw):
    return ConstraintEdge.from_scenario(u, v, stype, **kw)


class TestPseudoColor:
    def test_isolated_net_defaults_core(self):
        g = OverlayConstraintGraph()
        g.add_vertex(0)
        coloring = {}
        assert pseudo_color(g, 0, coloring) is Color.CORE
        assert coloring[0] is Color.CORE

    def test_respects_hard_diff_neighbour(self):
        g = OverlayConstraintGraph()
        g.add_edges([edge(1, 0, ScenarioType.T1A)])
        coloring = {0: Color.CORE}
        assert pseudo_color(g, 1, coloring) is Color.SECOND

    def test_respects_hard_same_neighbour(self):
        g = OverlayConstraintGraph()
        g.add_edges([edge(1, 0, ScenarioType.T1B)])
        coloring = {0: Color.SECOND}
        assert pseudo_color(g, 1, coloring) is Color.SECOND

    def test_avoids_cut_risk(self):
        # 2-a with neighbour CORE: choosing SECOND would be a vetoed CS.
        g = OverlayConstraintGraph()
        g.add_edges([edge(1, 0, ScenarioType.T2A)])
        coloring = {0: Color.CORE}
        assert pseudo_color(g, 1, coloring) is Color.CORE

    def test_weighs_multiple_neighbours(self):
        # Net 2 between a CORE 3-a neighbour (CC costs 1) and a CORE 2-a
        # neighbour (CS is vetoed): CORE wins overall.
        g = OverlayConstraintGraph()
        g.add_edges([edge(2, 0, ScenarioType.T3A), edge(2, 1, ScenarioType.T2A)])
        coloring = {0: Color.CORE, 1: Color.CORE}
        assert pseudo_color(g, 2, coloring) is Color.CORE

    def test_orientation_respected(self):
        # 3-c tabulated with A = tip owner, penalising CS. Edge (1, 0) with
        # net 1 as A: if 0 is SECOND, CORE for 1 is penalised -> SECOND.
        g = OverlayConstraintGraph()
        g.add_edges([edge(1, 0, ScenarioType.T3C)])
        coloring = {0: Color.SECOND}
        assert pseudo_color(g, 1, coloring) is Color.SECOND
