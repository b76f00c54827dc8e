"""Cut-conflict analysis (Section III-D).

A **cut conflict** is a cut-mask MRC violation *over a target pattern*:
either a cut narrower than ``w_cut`` or two cuts closer than ``d_cut``
whose violation region touches a printed feature. Violations over spacers
are harmless (Ma et al. [12]) and ignored.

Type A conflicts (induced by one pattern pair) are already vetoed on the
constraint graph through the per-scenario ``cut_risk`` flags. This module
handles **type B** conflicts (three or more patterns): it synthesises the
*critical cut patterns* — cuts that directly define target-pattern edges —
implied by each detected scenario under a given coloring, and checks the
new cuts of a freshly routed net against all existing ones. All cuts this
library generates are at least ``w_cut`` wide, so only distance conflicts
can occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..color import Color, ColorPair
from ..geometry import GridIndex, Rect
from ..rules import DesignRules
from .scenario_detect import DetectedScenario
from .scenarios import ScenarioType

#: Every (color of A, color of B) a ``critical_cuts`` memo key can hold.
_COLOR_PAIRS = tuple((pair.a, pair.b) for pair in ColorPair)


def _cut_shape(stype: ScenarioType, pair: ColorPair) -> Optional[str]:
    """Which critical cut a scenario needs under a color pair, if any."""
    if stype is ScenarioType.T1B and pair.same:
        return "tip_gap"  # merge + cut: the cut separates the merged tips
    if stype is ScenarioType.T2B:
        return "tip_gap"  # the middle of the two-track tip gap, always
    if stype is ScenarioType.T2A and not pair.same:
        return "flank"  # assist-core merge re-opened along the core flank
    if stype is ScenarioType.T3A and pair is ColorPair.CC:
        return "corner"
    if stype is ScenarioType.T3B and pair in (ColorPair.CC, ColorPair.SC):
        return "corner"
    if stype is ScenarioType.T3C and pair is ColorPair.CS:
        return "corner"
    if stype is ScenarioType.T3D and not pair.same:
        return "corner"
    return None


#: ``_cut_shape`` of every (scenario type, color of A, color of B),
#: built once: most memo misses need no cut and stop at this lookup.
_CUT_SHAPE: Dict[Tuple[ScenarioType, Color, Color], Optional[str]] = {
    (stype, pair.a, pair.b): _cut_shape(stype, pair)
    for stype in ScenarioType
    for pair in ColorPair
}


@dataclass(frozen=True)
class CriticalCut:
    """A cut pattern that directly defines a target-pattern boundary."""

    rect: Rect  # nm coordinates
    layer: int
    nets: Tuple[int, int]  # the pattern pair that requires this cut
    scenario: ScenarioType


def _between_region(a: Rect, b: Rect) -> Optional[Rect]:
    """The band strictly between two disjoint rectangles.

    A min-distance violation only distorts a feature when the feature sits
    *between* the two printed cuts; the band is the middle rectangle of
    the 3x3 tiling induced by the two rects. ``None`` when the rects are
    diagonal with no facing span (corner clusters — the printed cuts
    merge around the corner harmlessly).
    """
    # Facing in x: projections overlap in x, gap in y.
    x_overlap_lo, x_overlap_hi = max(a.xlo, b.xlo), min(a.xhi, b.xhi)
    y_overlap_lo, y_overlap_hi = max(a.ylo, b.ylo), min(a.yhi, b.yhi)
    gap_x = a.gap_x(b)
    gap_y = a.gap_y(b)
    if x_overlap_lo < x_overlap_hi and gap_y > 0:
        ylo = min(a.yhi, b.yhi)
        return Rect(x_overlap_lo, ylo, x_overlap_hi, ylo + gap_y)
    if y_overlap_lo < y_overlap_hi and gap_x > 0:
        xlo = min(a.xhi, b.xhi)
        return Rect(xlo, y_overlap_lo, xlo + gap_x, y_overlap_hi)
    return None


@dataclass(frozen=True)
class CutConflict:
    """Two critical cuts violating ``d_cut`` over a target pattern."""

    first: CriticalCut
    second: CriticalCut
    gap_nm: float
    over_net: int


class CutConflictChecker:
    """Synthesises critical cuts and finds type B min-distance conflicts."""

    def __init__(self, rules: DesignRules, num_layers: int) -> None:
        self.rules = rules
        self._cut_index: List[GridIndex[CriticalCut]] = [
            GridIndex(bucket_size=max(rules.pitch * 4, 1)) for _ in range(num_layers)
        ]
        self._wire_index: List[GridIndex[int]] = [
            GridIndex(bucket_size=max(rules.pitch * 4, 1)) for _ in range(num_layers)
        ]
        self._cuts_by_net: Dict[int, List[CriticalCut]] = {}
        self._wires_by_net: Dict[int, List[Tuple[int, Rect]]] = {}
        #: ``critical_cuts`` is pure in (scenario, colors) and both are
        #: frozen, so cut synthesis for a re-colored scenario is a memo
        #: lookup. Values keep a strong reference to the scenario so an
        #: ``id()`` can never be recycled under a live key.
        self._cut_memo: Dict[
            Tuple[int, Color, Color], Tuple[DetectedScenario, List[CriticalCut]]
        ] = {}

    # ------------------------------------------------------------------ #
    # Track -> nm lowering
    # ------------------------------------------------------------------ #

    def wire_rect_nm(self, cell_rect: Rect) -> Rect:
        """Physical wire rectangle of a grid-cell footprint."""
        pitch = self.rules.pitch
        half = self.rules.w_line // 2
        return Rect(
            cell_rect.xlo * pitch - half,
            cell_rect.ylo * pitch - half,
            (cell_rect.xhi - 1) * pitch + half,
            (cell_rect.yhi - 1) * pitch + half,
        )

    # ------------------------------------------------------------------ #
    # Critical cut synthesis
    # ------------------------------------------------------------------ #

    def critical_cuts(
        self, scenario: DetectedScenario, color_a: Color, color_b: Color
    ) -> List[CriticalCut]:
        """Cuts that the scenario requires under the given colors.

        Only scenarios whose chosen assignment defines a target boundary
        with the cut mask produce critical cuts; spacer-protected
        assignments produce none, and for them a memo miss costs one
        :data:`_CUT_SHAPE` lookup.
        """
        key = (id(scenario), color_a, color_b)
        hit = self._cut_memo.get(key)
        if hit is not None and hit[0] is scenario:
            return hit[1]
        stype = scenario.scenario
        shape = _CUT_SHAPE[(stype, color_a, color_b)]
        if shape is None:
            none: List[CriticalCut] = []
            self._cut_memo[key] = (scenario, none)
            return none
        a_nm = self.wire_rect_nm(scenario.rect_a)
        b_nm = self.wire_rect_nm(scenario.rect_b)
        if shape == "tip_gap":
            rect = self._tip_gap_cut(a_nm, b_nm)
        elif shape == "flank":
            # Assist-core merge: the cut re-opens the core pattern's flank.
            if color_a is Color.CORE:
                rect = self._flank_cut(a_nm, b_nm)
            else:
                rect = self._flank_cut(b_nm, a_nm)
        else:
            rect = self._corner_cut(a_nm, b_nm)
        result = [
            CriticalCut(
                rect=rect,
                layer=scenario.layer,
                nets=(scenario.net_a, scenario.net_b),
                scenario=stype,
            )
        ]
        self._cut_memo[key] = (scenario, result)
        return result

    def forget_scenarios(self, scenarios: Iterable[DetectedScenario]) -> None:
        """Drop the memoised cuts of scenarios that left the layout.

        The router calls this when it tears a net down: nothing looks
        those scenarios up again, and the memo would otherwise keep every
        scenario ever detected alive.
        """
        memo = self._cut_memo
        for scenario in scenarios:
            key = id(scenario)
            for color_a, color_b in _COLOR_PAIRS:
                memo.pop((key, color_a, color_b), None)

    def _tip_gap_cut(self, a_nm: Rect, b_nm: Rect) -> Rect:
        """Cut in the gap between two collinear tips, d_overlap into spacers."""
        rules = self.rules
        horizontal_gap = a_nm.gap_x(b_nm) > 0
        if horizontal_gap:
            lo = min(a_nm.xhi, b_nm.xhi)
            hi = max(a_nm.xlo, b_nm.xlo)
            mid_lo, mid_hi = self._cut_span(lo, hi)
            ylo = min(a_nm.ylo, b_nm.ylo) - rules.d_overlap
            yhi = max(a_nm.yhi, b_nm.yhi) + rules.d_overlap
            return Rect(mid_lo, ylo, mid_hi, yhi)
        lo = min(a_nm.yhi, b_nm.yhi)
        hi = max(a_nm.ylo, b_nm.ylo)
        mid_lo, mid_hi = self._cut_span(lo, hi)
        xlo = min(a_nm.xlo, b_nm.xlo) - rules.d_overlap
        xhi = max(a_nm.xhi, b_nm.xhi) + rules.d_overlap
        return Rect(xlo, mid_lo, xhi, mid_hi)

    def _cut_span(self, gap_lo: int, gap_hi: int) -> Tuple[int, int]:
        """Centre a >= w_cut cut in the [gap_lo, gap_hi) gap."""
        width = max(self.rules.w_cut, gap_hi - gap_lo - 2 * self.rules.w_spacer)
        width = max(width, self.rules.w_cut)
        center = (gap_lo + gap_hi) // 2
        return center - width // 2, center - width // 2 + width

    def _flank_cut(self, core_nm: Rect, second_nm: Rect) -> Rect:
        """Cut along the core pattern's side facing the second pattern."""
        rules = self.rules
        if core_nm.gap_y(second_nm) > 0:  # vertical separation, horizontal wires
            xlo = max(core_nm.xlo, second_nm.xlo)
            xhi = min(core_nm.xhi, second_nm.xhi)
            if xlo >= xhi:
                xlo, xhi = core_nm.xlo, core_nm.xhi
            if second_nm.ylo >= core_nm.yhi:  # second above core
                return Rect(xlo, core_nm.yhi - rules.d_overlap, xhi,
                            core_nm.yhi - rules.d_overlap + rules.w_cut)
            return Rect(xlo, core_nm.ylo + rules.d_overlap - rules.w_cut, xhi,
                        core_nm.ylo + rules.d_overlap)
        ylo = max(core_nm.ylo, second_nm.ylo)
        yhi = min(core_nm.yhi, second_nm.yhi)
        if ylo >= yhi:
            ylo, yhi = core_nm.ylo, core_nm.yhi
        if second_nm.xlo >= core_nm.xhi:  # second right of core
            return Rect(core_nm.xhi - rules.d_overlap, ylo,
                        core_nm.xhi - rules.d_overlap + rules.w_cut, yhi)
        return Rect(core_nm.xlo + rules.d_overlap - rules.w_cut, ylo,
                    core_nm.xlo + rules.d_overlap, yhi)

    def _corner_cut(self, a_nm: Rect, b_nm: Rect) -> Rect:
        """Cut covering the diagonal gap between two near corners."""
        size = self.rules.w_cut + 2 * self.rules.d_overlap
        # Corner of each rect nearest the other.
        cx_a = a_nm.xhi if b_nm.xlo >= a_nm.xhi else a_nm.xlo
        cy_a = a_nm.yhi if b_nm.ylo >= a_nm.yhi else a_nm.ylo
        cx_b = b_nm.xhi if a_nm.xlo >= b_nm.xhi else b_nm.xlo
        cy_b = b_nm.yhi if a_nm.ylo >= b_nm.yhi else b_nm.ylo
        cx = (cx_a + cx_b) // 2
        cy = (cy_a + cy_b) // 2
        return Rect(cx - size // 2, cy - size // 2,
                    cx - size // 2 + size, cy - size // 2 + size)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def register_net(
        self,
        net_id: int,
        wire_rects: Iterable[Tuple[int, Rect]],
        cuts: Iterable[CriticalCut],
    ) -> None:
        """Commit a net's physical wires (nm) and its critical cuts."""
        wires = list(wire_rects)
        cut_list = list(cuts)
        for layer, rect in wires:
            self._wire_index[layer].insert(rect, net_id)
        for cut in cut_list:
            self._cut_index[cut.layer].insert(cut.rect, cut)
        self._wires_by_net.setdefault(net_id, []).extend(wires)
        self._cuts_by_net.setdefault(net_id, []).extend(cut_list)

    def remove_net(self, net_id: int) -> None:
        for layer, rect in self._wires_by_net.pop(net_id, []):
            self._wire_index[layer].remove(rect, net_id)
        for cut in self._cuts_by_net.pop(net_id, []):
            self._cut_index[cut.layer].remove(cut.rect, cut)

    def replace_net_cuts(self, net_id: int, cuts: Iterable[CriticalCut]) -> None:
        """Swap a net's registered cuts (after a color flip changed them)."""
        for cut in self._cuts_by_net.pop(net_id, []):
            self._cut_index[cut.layer].remove(cut.rect, cut)
        cut_list = list(cuts)
        for cut in cut_list:
            self._cut_index[cut.layer].insert(cut.rect, cut)
        if cut_list:
            self._cuts_by_net[net_id] = cut_list

    # ------------------------------------------------------------------ #
    # Conflict detection
    # ------------------------------------------------------------------ #

    def conflicts_with(self, candidate_cuts: Iterable[CriticalCut]) -> List[CutConflict]:
        """Type B conflicts between candidate cuts and all registered cuts.

        Two cuts conflict when their Euclidean gap is below ``d_cut`` and
        the region between them overlaps a target wire: that wire's two
        flanks would be defined by sub-``d_cut`` cut features, which print
        incorrectly (Fig. 5 logic, inverted: here the violation is over a
        pattern, so it counts).
        """
        conflicts: List[CutConflict] = []
        d_cut = self.rules.d_cut
        candidates = list(candidate_cuts)
        for i, cut in enumerate(candidates):
            index = self._cut_index[cut.layer]
            others = [c for _, c in index.neighbours(cut.rect, d_cut)]
            others.extend(
                c for c in candidates[i + 1 :]
                if c.layer == cut.layer
                and max(c.rect.gap_x(cut.rect), c.rect.gap_y(cut.rect)) < d_cut
            )
            for other in others:
                conflict = self._pair_conflict(cut, other)
                if conflict is not None:
                    conflicts.append(conflict)
        return conflicts

    def all_conflicts(self) -> List[CutConflict]:
        """Every conflicting pair of registered cuts, each reported once.

        One pass over :meth:`all_cuts`: each cut is checked only against
        its index neighbours that come later in that order, so a pair is
        priced once and reported from its earlier cut. The conflict test
        is symmetric, so this is exactly the first-seen dedup of
        ``conflicts_with(all_cuts())``, element for element.
        """
        cuts = self.all_cuts()
        position = {id(cut): k for k, cut in enumerate(cuts)}
        d_cut = self.rules.d_cut
        conflicts: List[CutConflict] = []
        for k, cut in enumerate(cuts):
            for _, other in self._cut_index[cut.layer].neighbours(cut.rect, d_cut):
                if position[id(other)] > k:
                    conflict = self._pair_conflict(cut, other)
                    if conflict is not None:
                        conflicts.append(conflict)
        return conflicts

    def _pair_conflict(
        self, cut: CriticalCut, other: CriticalCut
    ) -> Optional[CutConflict]:
        if set(other.nets) == set(cut.nets):
            # Cuts serving the same pattern pair sit in the same local
            # cluster and are drawn as one cut polygon; merged cuts are
            # legal over spacers.
            return None
        if cut.rect.overlaps(other.rect) or cut.rect.touches(other.rect):
            # Overlapping/abutting cuts merge into one drawn pattern;
            # merged cuts are legal (MRC spacing applies between disjoint
            # polygons only).
            return None
        gap_sq = cut.rect.euclidean_gap_sq(other.rect)
        if gap_sq >= self.rules.d_cut ** 2:
            return None
        region = _between_region(cut.rect, other.rect)
        if region is None:
            return None
        over = self._wire_hit(cut.layer, region)
        if over is None:
            return None  # violation over spacer only: ignorable
        return CutConflict(
            first=cut, second=other, gap_nm=gap_sq ** 0.5, over_net=over
        )

    def _wire_hit(self, layer: int, region: Rect) -> Optional[int]:
        """First net whose committed wire overlaps ``region``."""
        hits = self._wire_index[layer].query(region)
        return hits[0][1] if hits else None

    def cuts_of(self, net_id: int) -> List[CriticalCut]:
        return list(self._cuts_by_net.get(net_id, ()))

    def all_cuts(self) -> List[CriticalCut]:
        out = []
        for cuts in self._cuts_by_net.values():
            out.extend(cuts)
        return out
