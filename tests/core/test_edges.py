"""Unit tests for constraint edges."""

import pytest

from repro.color import Color
from repro.core import ConstraintEdge, EdgeKind, HARD, ScenarioType
from repro.core.edges import CUT_VETO


class TestEdgeKinds:
    def test_kind_mapping_fig11(self):
        cases = {
            ScenarioType.T1A: EdgeKind.HARD_DIFF,
            ScenarioType.T1B: EdgeKind.HARD_SAME,
            ScenarioType.T3A: EdgeKind.SOFT_DIFF,
            ScenarioType.T2A: EdgeKind.SOFT_SAME,
            ScenarioType.T2B: EdgeKind.SOFT_SAME,
            ScenarioType.T3D: EdgeKind.SOFT_SAME,
            ScenarioType.T3B: EdgeKind.BOTH_SECOND,
            ScenarioType.T3C: EdgeKind.FORBID_CS,
        }
        for stype, kind in cases.items():
            edge = ConstraintEdge.from_scenario(0, 1, stype)
            assert edge.kind is kind

    def test_hardness(self):
        assert EdgeKind.HARD_DIFF.is_hard
        assert EdgeKind.HARD_SAME.is_hard
        assert not EdgeKind.SOFT_SAME.is_hard


class TestCosts:
    def test_pair_cost_1a(self):
        edge = ConstraintEdge.from_scenario(0, 1, ScenarioType.T1A)
        assert edge.pair_cost(Color.CORE, Color.CORE) == HARD
        assert edge.pair_cost(Color.CORE, Color.SECOND) == 0

    def test_overlap_scaling(self):
        edge = ConstraintEdge.from_scenario(0, 1, ScenarioType.T2A, overlap=4)
        assert edge.pair_cost(Color.CORE, Color.SECOND) == 8

    def test_dp_cost_applies_veto(self):
        edge = ConstraintEdge.from_scenario(0, 1, ScenarioType.T2A)
        physical = edge.pair_cost(Color.CORE, Color.SECOND)
        dp = edge.dp_cost(Color.CORE, Color.SECOND)
        assert dp == physical + CUT_VETO
        assert edge.dp_cost(Color.CORE, Color.CORE) == 0

    def test_dp_cost_hard_stays_hard(self):
        edge = ConstraintEdge.from_scenario(0, 1, ScenarioType.T1B)
        assert edge.dp_cost(Color.CORE, Color.SECOND) == HARD

    def test_has_cut_risk(self):
        edge = ConstraintEdge.from_scenario(0, 1, ScenarioType.T2B)
        assert edge.has_cut_risk(Color.CORE, Color.SECOND)
        assert not edge.has_cut_risk(Color.SECOND, Color.CORE)

    def test_tip_owner_orientation_folded_in(self):
        edge = ConstraintEdge.from_scenario(
            0, 1, ScenarioType.T3C, a_is_tip_owner=False
        )
        # With B as tip owner the penalised pair becomes SC in (u, v) terms.
        assert edge.pair_cost(Color.SECOND, Color.CORE) == 1
        assert edge.pair_cost(Color.CORE, Color.SECOND) == 0
        assert edge.has_cut_risk(Color.SECOND, Color.CORE)


class TestStructure:
    def test_parity(self):
        assert ConstraintEdge.from_scenario(0, 1, ScenarioType.T1A).parity == 1
        assert ConstraintEdge.from_scenario(0, 1, ScenarioType.T1B).parity == 0
        with pytest.raises(ValueError):
            ConstraintEdge.from_scenario(0, 1, ScenarioType.T2A).parity

    def test_other(self):
        edge = ConstraintEdge.from_scenario(3, 7, ScenarioType.T2A)
        assert edge.other(3) == 7
        assert edge.other(7) == 3
        with pytest.raises(ValueError):
            edge.other(5)
