"""Unit tests for the overlay constraint graph."""

import pytest

from repro import obs
from repro.color import Color
from repro.core import (
    ConstraintEdge,
    OverlayConstraintGraph,
    ScenarioType,
    SoAOverlayConstraintGraph,
)
from repro.core.scenario_detect import DetectedScenario
from repro.geometry import Rect


def edge(u, v, stype, **kw):
    return ConstraintEdge.from_scenario(u, v, stype, **kw)


_UNIT = Rect(0, 0, 1, 1)


def batch(net, others, stype=ScenarioType.T1A):
    """One commit's scenarios: ``net`` against each of ``others``."""
    return [DetectedScenario(0, net, o, stype, True, 1, _UNIT, _UNIT) for o in others]


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

    @pytest.mark.parametrize("kind", ["object", "soa"])
    def test_component_of_stops_past_the_cap(self, kind):
        """Within the cap the walk is the uncapped one, order included;
        past it, the walk returns as soon as it holds more than ``cap``
        nets."""
        if kind == "object":
            g = OverlayConstraintGraph()
        else:
            g = SoAOverlayConstraintGraph()
        spokes = {0: [1, 2, 3], 3: [4, 5], 5: [6]}
        for net, others in spokes.items():
            if kind == "object":
                g.add_edges([edge(net, o, ScenarioType.T2A) for o in others])
            else:
                g.add_scenarios(batch(net, others, ScenarioType.T2A))
        whole = g.component_of(0)
        assert whole == set(range(7))
        for cap in (7, 8, 100):
            assert list(g.component_of(0, cap)) == list(whole)
        for cap in (1, 3, 6):
            part = g.component_of(0, cap)
            assert cap < len(part) <= len(whole)
            assert part <= whole

    def test_edges_within(self):
        g = OverlayConstraintGraph()
        e1 = edge(0, 1, ScenarioType.T2A)
        e2 = edge(1, 2, ScenarioType.T2A)
        g.add_edges([e1, e2])
        inside = g.edges_within({0, 1})
        assert len(inside) == 1
        assert inside[0].u == 0


class TestSoAHardParityRepair:
    def test_removal_repairs_only_its_hard_component(self):
        """Removing a net re-derives the union-find entries of its own hard
        component and leaves every other component's entries alone."""
        g = SoAOverlayConstraintGraph()
        # Hard component A: the chain 0-1-2-3. Hard component B: 10-11-12-13,
        # tied to A by a soft edge only.
        for net, other in ((1, 0), (2, 1), (3, 2), (11, 10), (13, 12), (13, 11)):
            assert g.add_scenarios(batch(net, [other])) == []
        g.add_scenarios(batch(12, [3], ScenarioType.T2A))
        uf = g._hard_uf

        def entries(nets):
            return {n: (uf._parent[n], uf._rank[n], uf._parity[n]) for n in nets}

        b_before = entries((10, 11, 12, 13))
        with obs.session() as ob:
            g.remove_net(1)  # an older net: no undo point to take back
            assert g._repair_seeds == {0, 1, 2}
            assert g.add_scenarios(batch(21, [20])) == []  # triggers the repair
            rebuilds = ob.registry.total("ocg_uf_rebuilds_total")
            rows = ob.registry.total("ocg_uf_repair_rows_total")
        assert g._hard_uf is uf
        assert entries((10, 11, 12, 13)) == b_before
        assert rebuilds == 1
        assert rows == 1  # A's one live hard row, 2-3
        assert 0 not in uf and 1 not in uf
        assert uf.relation(2, 3) == 1
        assert not g._repair_seeds
        assert not g.has_hard_odd_cycle()

    def test_undoing_the_newest_batch_takes_back_its_unions(self):
        """Removing the newest batch's net (the router undoing a rejected
        commit) undoes that batch's journal: the union-find is exactly as
        it was before the batch, and no repair is pending."""
        g = SoAOverlayConstraintGraph()
        g.add_scenarios(batch(1, [0]))
        g.add_scenarios(batch(2, [1]))
        uf = g._hard_uf
        before = (dict(uf._parent), dict(uf._rank), dict(uf._parity))
        offenders = g.add_scenarios(batch(3, [0, 1, 2]))
        assert len(offenders) == 1  # 3 opposite to 0, 1 and 2: an odd cycle
        with obs.session() as ob:
            g.remove_net(3)
            assert ob.registry.total("ocg_uf_rollbacks_total") == 1
        assert (uf._parent, uf._rank, uf._parity) == before
        assert not g._repair_seeds
