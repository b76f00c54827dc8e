"""Constraint-graph edges (the six edge kinds of Fig. 11).

Every detected potential overlay scenario between two routed nets becomes
one :class:`ConstraintEdge`. The edge carries the full color-cost vector of
its scenario (already oriented and scaled for the concrete instance), so
the coloring machinery never needs to re-inspect geometry.

Edge kinds map onto the paper's Fig. 11 legend:

=================  =========================  ======================
Kind               Fig. 11                    Scenario types
=================  =========================  ======================
HARD_DIFF          (a) bold straight line     1-a
HARD_SAME          (b) bold line w/ dummy     1-b
SOFT_DIFF          (c) dashed straight line   3-a
SOFT_SAME          (d) dashed line w/ dummy   2-a, 2-b, 3-d
BOTH_SECOND        (e) double-arrow line      3-b
FORBID_CS          (f) single-arrow line      3-c
=================  =========================  ======================

The dummy vertices of Fig. 11(b)/(d) are not materialised: a same-color
edge is parity-0 in the union-find, which is exactly equivalent to a dummy
vertex joined by two different-color edges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from ..color import ALL_PAIRS, Color, ColorPair
from .scenarios import HARD, SCENARIO_RULES, ScenarioRule, ScenarioType, oriented_cost

#: Finite-but-dominating cost charged (in the coloring DP only) to color
#: pairs that would create a type A cut conflict. Large enough to outweigh
#: any realistic sum of side-overlay units while keeping arithmetic finite.
CUT_VETO: float = 1.0e6

_PAIR_INDEX: Dict[ColorPair, int] = {p: i for i, p in enumerate(ALL_PAIRS)}


class EdgeKind(enum.Enum):
    HARD_DIFF = "hard-diff"
    HARD_SAME = "hard-same"
    SOFT_DIFF = "soft-diff"
    SOFT_SAME = "soft-same"
    BOTH_SECOND = "both-second"
    FORBID_CS = "forbid-cs"

    @property
    def is_hard(self) -> bool:
        return self in (EdgeKind.HARD_DIFF, EdgeKind.HARD_SAME)


_KIND_BY_SCENARIO: Dict[ScenarioType, EdgeKind] = {
    ScenarioType.T1A: EdgeKind.HARD_DIFF,
    ScenarioType.T1B: EdgeKind.HARD_SAME,
    ScenarioType.T3A: EdgeKind.SOFT_DIFF,
    ScenarioType.T2A: EdgeKind.SOFT_SAME,
    ScenarioType.T2B: EdgeKind.SOFT_SAME,
    ScenarioType.T3D: EdgeKind.SOFT_SAME,
    ScenarioType.T3B: EdgeKind.BOTH_SECOND,
    ScenarioType.T3C: EdgeKind.FORBID_CS,
    # Trivial scenarios never become constraint edges in the routing flow
    # (the detector filters them); the mapping exists so that explicitly
    # constructed edges — e.g. in enumeration tools — are still valid.
    ScenarioType.T2C: EdgeKind.SOFT_SAME,
    ScenarioType.T2D: EdgeKind.SOFT_SAME,
    ScenarioType.T3E: EdgeKind.SOFT_SAME,
}


@dataclass(frozen=True)
class ConstraintEdge:
    """One scenario instance between nets ``u`` and ``v`` (u = pattern A).

    ``cost`` holds *physical* side-overlay units per color pair in
    (color(u), color(v)) order — :data:`HARD` marks forbidden hard-overlay
    assignments. ``cut_risk`` flags pairs that would create a type A cut
    conflict; the coloring DP charges those :data:`CUT_VETO` on top.
    """

    u: int
    v: int
    scenario: ScenarioType
    kind: EdgeKind
    cost: Tuple[float, float, float, float]  # indexed in ALL_PAIRS order
    cut_risk: Tuple[bool, bool, bool, bool]
    overlap: int = 1

    @classmethod
    def from_scenario(
        cls,
        u: int,
        v: int,
        scenario: ScenarioType,
        a_is_tip_owner: bool = True,
        overlap: int = 1,
    ) -> "ConstraintEdge":
        """Build an edge from a detected scenario instance.

        Folds tip-owner orientation and overlap scaling into the stored
        vectors so they are expressed directly in (color(u), color(v)).
        """
        rule: ScenarioRule = SCENARIO_RULES[scenario]
        costs = []
        risks = []
        for pair in ALL_PAIRS:
            effective = pair if a_is_tip_owner else pair.swapped
            costs.append(oriented_cost(rule, pair, a_is_tip_owner, overlap))
            risks.append(effective in rule.cut_risk)
        return cls(
            u=u,
            v=v,
            scenario=scenario,
            kind=_KIND_BY_SCENARIO[scenario],
            cost=tuple(costs),
            cut_risk=tuple(risks),
            overlap=overlap,
        )

    # ------------------------------------------------------------------ #
    # Cost queries
    # ------------------------------------------------------------------ #

    def pair_cost(self, color_u: Color, color_v: Color) -> float:
        """Physical side-overlay units of an assignment (HARD if forbidden)."""
        return self.cost[_PAIR_INDEX[ColorPair.of(color_u, color_v)]]

    def dp_cost(self, color_u: Color, color_v: Color) -> float:
        """Cost used by the coloring machinery: physical + cut-conflict veto."""
        idx = _PAIR_INDEX[ColorPair.of(color_u, color_v)]
        base = self.cost[idx]
        if base == HARD:
            return HARD
        return base + (CUT_VETO if self.cut_risk[idx] else 0.0)

    def has_cut_risk(self, color_u: Color, color_v: Color) -> bool:
        return self.cut_risk[_PAIR_INDEX[ColorPair.of(color_u, color_v)]]

    @property
    def parity(self) -> int:
        """For hard edges: required color parity (1 = different, 0 = same)."""
        if self.kind is EdgeKind.HARD_DIFF:
            return 1
        if self.kind is EdgeKind.HARD_SAME:
            return 0
        raise ValueError(f"{self.kind} edges carry no parity")

    def other(self, net_id: int) -> int:
        if net_id == self.u:
            return self.v
        if net_id == self.v:
            return self.u
        raise ValueError(f"net {net_id} not on edge ({self.u}, {self.v})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Edge({self.u}-{self.v} {self.scenario.value} {self.kind.value})"
