"""The cut-process baseline [16], without the merge technique.

Published behaviour we reproduce:

* cut process with assist core patterns, so second patterns are normally
  spacer-protected — but when an assist core must merge with a core
  pattern, severe side overlays result (the paper's Fig. 22), which is
  exactly the CS/SC pricing of scenarios 2-a / 2-b / 3-d;
* **no merge technique for odd cycles**: abutting tips (type 1-b) cannot
  be merged-and-cut, so *any* coloring of a 1-b pair is a conflict
  (same colors would need a merge, different colors are hard overlays);
* colors are frozen when the net is routed; no color flipping.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..color import Color
from ..core.edges import ConstraintEdge
from ..core.scenario_detect import DetectedScenario
from ..core.scenarios import HARD, ScenarioType
from ..geometry import Segment
from ..router.result import RoutingResult
from .common import BaselineRouterBase


class CutNoMergeRouter(BaselineRouterBase):
    """The [16] baseline (fixed-pin benchmarks, Table III)."""

    #: Side-overlay units charged for a committed hard overlay (a hard
    #: overlay is by definition longer than one unit).
    HARD_OVERLAY_UNITS = 2.0

    def __init__(self, grid, netlist, params=None) -> None:
        super().__init__(grid, netlist, params)
        self._edges_by_net: Dict[int, List[Tuple[int, ConstraintEdge]]] = {}
        self._all_edges: List[Tuple[int, ConstraintEdge]] = []

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #

    def choose_colors(
        self,
        net_id: int,
        segments: Sequence[Segment],
        scenarios: Sequence[DetectedScenario],
    ) -> int:
        entries = [
            (
                sc.layer,
                ConstraintEdge.from_scenario(
                    sc.net_a, sc.net_b, sc.scenario, sc.a_is_tip_owner, sc.overlap
                ),
            )
            for sc in scenarios
        ]
        for layer, edge in entries:
            self._edges_by_net.setdefault(edge.u, []).append((layer, edge))
            self._edges_by_net.setdefault(edge.v, []).append((layer, edge))
        self._all_edges.extend(entries)

        total_conflicts = 0
        for seg_layer in self.net_layers(segments):
            best_key = None
            best_color = Color.CORE
            for color in (Color.CORE, Color.SECOND):
                self.colorings[seg_layer][net_id] = color
                conflicts, _overlay = self._price_net(net_id, seg_layer)
                # [16]'s coloring is conflict-driven only; the overlay of
                # core/assist mergers is accepted, not optimised — that is
                # precisely the paper's criticism (Fig. 22).
                key = (conflicts,)
                if best_key is None or key < best_key:
                    best_key = key
                    best_color = color
            self.colorings[seg_layer][net_id] = best_color
            total_conflicts += best_key[0]
        return total_conflicts

    def _price_net(self, net_id: int, layer: int) -> Tuple[int, float]:
        """(conflicts, overlay units) of the net's edges on one layer."""
        conflicts = 0
        overlay = 0.0
        coloring = self.colorings[layer]
        for edge_layer, edge in self._edges_by_net.get(net_id, ()):
            if edge_layer != layer:
                continue
            conflict, units = self._price_edge(edge, coloring)
            conflicts += conflict
            overlay += units
        return conflicts, overlay

    def _price_edge(
        self, edge: ConstraintEdge, coloring: Dict[int, Color]
    ) -> Tuple[int, float]:
        cu = coloring.get(edge.u, Color.CORE)
        cv = coloring.get(edge.v, Color.CORE)
        if edge.scenario is ScenarioType.T1B:
            # No merge technique: every abutting-tip pair is a conflict.
            return 1, 0.0
        cost = edge.pair_cost(cu, cv)
        if cost == HARD:
            return 1, self.HARD_OVERLAY_UNITS * max(edge.overlap, 1)
        return 0, cost

    def on_undo(self, net_id: int) -> None:
        entries = self._edges_by_net.pop(net_id, [])
        doomed = {id(edge) for _, edge in entries}
        if not doomed:
            return
        self._all_edges = [
            (layer, e) for layer, e in self._all_edges if id(e) not in doomed
        ]
        for other in list(self._edges_by_net):
            self._edges_by_net[other] = [
                (layer, e)
                for layer, e in self._edges_by_net[other]
                if id(e) not in doomed
            ]

    def collect_metrics(self, result: RoutingResult) -> None:
        """Complete-model evaluation of the committed layout.

        On top of the conflicts [16] itself sees, the complete model
        charges the type A cut conflicts of the committed color choices —
        the scenarios' ``cut_risk`` combos, which [16] does not model.
        """
        overlay_units = 0.0
        conflicts = 0
        for layer, edge in self._all_edges:
            coloring = self.colorings[layer]
            conflict, units = self._price_edge(edge, coloring)
            conflicts += conflict
            overlay_units += units
            cu = coloring.get(edge.u, Color.CORE)
            cv = coloring.get(edge.v, Color.CORE)
            if edge.scenario is not ScenarioType.T1B and edge.has_cut_risk(cu, cv):
                conflicts += 1
        result.overlay_units = overlay_units
        result.overlay_nm = overlay_units * self.grid.rules.overlay_unit_nm
        result.cut_conflicts = conflicts
