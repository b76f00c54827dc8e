"""Gao & Pan [11]: simultaneous trim-process routing and decomposition.

Published behaviour we reproduce:

* trim process, **no assist core patterns** — every second-pattern flank
  not facing an adjacent-track core is trim-defined and overlays ("both
  studies do not consider assistant core patterns during routing,
  resulting in significant overlays");
* the color of a net is **fixed when it is routed** (no flipping);
* trim conflicts arise from same-color sub-rule proximity and parallel
  line ends; the router retries a few times, then commits.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..color import Color
from ..core.scenario_detect import DetectedScenario
from ..geometry import Segment
from ..router.result import RoutingResult
from .common import BaselineRouterBase
from .trim_model import TrimAccounting


class GaoPanTrimRouter(BaselineRouterBase):
    """The [11] baseline (fixed-pin benchmarks, Table III)."""

    def __init__(self, grid, netlist, params=None) -> None:
        super().__init__(grid, netlist, params)
        self.accounting = TrimAccounting(grid.rules, grid.num_layers)

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #

    def choose_colors(
        self,
        net_id: int,
        segments: Sequence[Segment],
        scenarios: Sequence[DetectedScenario],
    ) -> int:
        """Freeze the cheaper of the two colors, independently per layer.

        Pricing is trim semantics: conflicts dominate, then the overlay a
        SECOND assignment would add on unprotected flanks.
        """
        records = self.records_of(net_id, segments)
        self.accounting.add_net(net_id, records, scenarios)
        total_visible = 0
        for layer in self.net_layers(segments):
            best: Tuple[int, float] = None  # (visible conflicts, overlay)
            best_color = Color.CORE
            for color in (Color.CORE, Color.SECOND):
                self.colorings[layer][net_id] = color
                visible = self._visible_layer_conflicts(net_id, layer)
                overlay = sum(
                    self.accounting.fragment_overlay_nm(r, self.colorings[layer])
                    for r in records
                    if r.layer == layer
                )
                key = (visible, overlay)
                if best is None or key < best:
                    best = key
                    best_color = color
            self.colorings[layer][net_id] = best_color
            total_visible += best[0]
        return total_visible

    def _visible_layer_conflicts(self, net_id: int, layer: int) -> int:
        coloring = self.colorings[layer]
        total = 0
        for sc in self.accounting.scenarios_of(net_id):
            if sc.layer != layer:
                continue
            ca = coloring.get(sc.net_a, Color.CORE)
            cb = coloring.get(sc.net_b, Color.CORE)
            total += self.accounting.visible_pair_conflicts(sc, ca, cb)
        return total

    def on_undo(self, net_id: int) -> None:
        self.accounting.remove_net(net_id)

    def collect_metrics(self, result: RoutingResult) -> None:
        evaluation = self.accounting.evaluate(self.colorings)
        result.overlay_nm = evaluation.overlay_nm
        result.overlay_units = evaluation.overlay_nm / self.grid.rules.overlay_unit_nm
        result.cut_conflicts = evaluation.conflicts
