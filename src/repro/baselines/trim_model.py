"""Overlay and conflict accounting for the SADP *trim* process.

The trim baselines ([10], [11]) do not use assist cores, so the rules
differ fundamentally from the cut process:

* a SECOND pattern's flank is protected only where a CORE pattern runs on
  the directly adjacent track (the core's spacer lands on that flank);
  every other flank section is defined by the trim mask -> side overlay;
* same-color patterns below the mask spacing rule conflict outright —
  the trim process cannot merge-and-cut: adjacent-track same-color pairs
  (1-a geometry) and abutting tips (1-b geometry) of the same color are
  *trim conflicts* / core-spacing conflicts;
* diagonal same-core pairs (3-a geometry) violate ``d_core`` as well.

:class:`TrimAccounting` consumes the same scenario stream as the cut
router's constraint graph but prices it with trim semantics, and adds the
per-fragment base overlay of unprotected second-pattern flanks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from ..color import Color, ColorPair
from ..core.scenario_detect import DetectedScenario, ShapeRecord
from ..core.scenarios import ScenarioType
from ..geometry import Interval, IntervalSet
from ..rules import DesignRules

#: Scenario/color combinations that are conflicts under the trim process.
#: (scenario, same_color?, colors that conflict)
_CONFLICT_TABLE: Dict[ScenarioType, Tuple[ColorPair, ...]] = {
    # Adjacent tracks, same color: not mergeable in trim -> conflict.
    ScenarioType.T1A: (ColorPair.CC, ColorPair.SS),
    # Abutting tips: CC violates d_core; SS puts two trim line ends at a
    # sub-rule distance (the paper's "parallel line ends").
    ScenarioType.T1B: (ColorPair.CC, ColorPair.SS),
    # Diagonal corners at sqrt(2)*(pitch - w_line) < d_core.
    ScenarioType.T3A: (ColorPair.CC,),
    ScenarioType.T3B: (ColorPair.CC,),
}


@dataclass
class TrimEvaluation:
    """Aggregate trim-process metrics for a committed layout."""

    overlay_nm: int
    conflicts: int


class TrimAccounting:
    """Layer-by-layer trim-process bookkeeping for the baseline routers.

    Tracks, per layer, the committed wire fragments of every net and the
    scenario instances between them; prices any color assignment with trim
    semantics.
    """

    def __init__(self, rules: DesignRules, num_layers: int) -> None:
        self.rules = rules
        self.num_layers = num_layers
        self._fragments: Dict[int, List[ShapeRecord]] = {}
        self._scenarios: List[DetectedScenario] = []
        self._scenarios_by_net: Dict[int, List[DetectedScenario]] = {}

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_net(
        self, net_id: int, records: Iterable[ShapeRecord], scenarios: Iterable[DetectedScenario]
    ) -> None:
        self._fragments.setdefault(net_id, []).extend(records)
        for sc in scenarios:
            self._scenarios.append(sc)
            self._scenarios_by_net.setdefault(sc.net_a, []).append(sc)
            self._scenarios_by_net.setdefault(sc.net_b, []).append(sc)

    def remove_net(self, net_id: int) -> None:
        self._fragments.pop(net_id, None)
        doomed = {
            id(sc) for sc in self._scenarios_by_net.pop(net_id, [])
        }
        if doomed:
            self._scenarios = [sc for sc in self._scenarios if id(sc) not in doomed]
            for bucket in self._scenarios_by_net.values():
                bucket[:] = [sc for sc in bucket if id(sc) not in doomed]

    # ------------------------------------------------------------------ #
    # Pricing
    # ------------------------------------------------------------------ #

    def pair_conflicts(
        self, scenario: DetectedScenario, color_a: Color, color_b: Color
    ) -> int:
        """1 when the scenario's colors conflict under trim rules."""
        table = _CONFLICT_TABLE.get(scenario.scenario)
        if table is None:
            return 0
        return 1 if ColorPair.of(color_a, color_b) in table else 0

    def visible_pair_conflicts(
        self, scenario: DetectedScenario, color_a: Color, color_b: Color
    ) -> int:
        """The *partial* conflict view of the published trim routers.

        [10] and [11] model the aligned rules — parallel adjacent tracks
        (1-a) and abutting tips (1-b), both basic trim-process spacing —
        but not the diagonal scenarios ("published routers can handle
        only partial overlay scenarios"). They avoid what they see and
        silently commit the rest — which is where their reported conflict
        counts come from when the complete model re-evaluates the result.
        """
        if scenario.scenario not in (ScenarioType.T1A, ScenarioType.T1B):
            return 0
        return self.pair_conflicts(scenario, color_a, color_b)

    def scenarios_of(self, net_id: int) -> List[DetectedScenario]:
        """All scenario instances a net participates in."""
        return list(self._scenarios_by_net.get(net_id, ()))

    def fragment_overlay_nm(
        self, record: ShapeRecord, coloring: Dict[int, Color]
    ) -> int:
        """Side overlay of one SECOND fragment: unprotected flank length.

        Each flank starts fully exposed; sections facing a CORE fragment
        on the directly adjacent track (the 1-a geometry) are protected by
        that core's spacer. CORE fragments have no side overlay (their
        boundary is core-mask defined).
        """
        if coloring.get(record.net_id, Color.CORE) is Color.CORE:
            return 0
        pitch = self.rules.pitch
        rect = record.rect
        if record.horizontal:
            flank_span = Interval(rect.xlo, rect.xhi)
            tracks = (rect.ylo - 1, rect.ylo + 1)  # one-track offsets
        else:
            flank_span = Interval(rect.ylo, rect.yhi)
            tracks = (rect.xlo - 1, rect.xlo + 1)

        total_px = 0
        for track in tracks:
            protected: List[Interval] = []
            for sc in self._scenarios_by_net.get(record.net_id, ()):
                if sc.scenario is not ScenarioType.T1A or sc.layer != record.layer:
                    continue
                mine = sc.rect_a if sc.net_a == record.net_id else sc.rect_b
                if mine != rect:
                    continue
                other_net = sc.net_b if sc.net_a == record.net_id else sc.net_a
                if coloring.get(other_net, Color.CORE) is not Color.CORE:
                    continue
                other_rect = sc.rect_b if sc.net_a == record.net_id else sc.rect_a
                if record.horizontal:
                    if other_rect.ylo != track:
                        continue
                    cover = Interval(other_rect.xlo, other_rect.xhi).intersection(
                        flank_span
                    )
                else:
                    if other_rect.xlo != track:
                        continue
                    cover = Interval(other_rect.ylo, other_rect.yhi).intersection(
                        flank_span
                    )
                if cover is not None:
                    protected.append(cover)
            exposed = IntervalSet([flank_span]).subtract(IntervalSet(protected))
            total_px += exposed.total_length
        return total_px * pitch  # track cells -> nm of flank length

    def evaluate(self, colorings: List[Dict[int, Color]]) -> TrimEvaluation:
        """Price the committed layout: total overlay nm + conflicts."""
        overlay = 0
        conflicts = 0
        for sc in self._scenarios:
            ca = colorings[sc.layer].get(sc.net_a, Color.CORE)
            cb = colorings[sc.layer].get(sc.net_b, Color.CORE)
            conflicts += self.pair_conflicts(sc, ca, cb)
        for net_id, records in self._fragments.items():
            for record in records:
                overlay += self.fragment_overlay_nm(
                    record, colorings[record.layer]
                )
        return TrimEvaluation(overlay_nm=overlay, conflicts=conflicts)
