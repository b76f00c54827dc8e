"""Shared machinery of the baseline routers.

All three baselines follow the same sequential skeleton — A* search (plain
wirelength + via costs, no overlay awareness in the search), scenario
detection against committed nets, a greedy *frozen* color choice, and a
small rip-up budget when the freshly routed net conflicts. What differs is
the pricing model (trim vs. cut semantics) and the candidate handling
([10]'s exhaustive pin-pair search), which subclasses provide.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..color import Color
from ..core.scenario_detect import DetectedScenario, ShapeRecord, VectorScenarioDetector
from ..geometry import Point, Segment
from ..grid import RoutingGrid
from ..netlist import Net, Netlist
from ..router.astar import AStarRouter, SearchRequest, SearchResult
from ..router.cost import CostParams
from ..router.result import NetRoute, RoutingResult


class BaselineRouterBase:
    """Sequential route-then-freeze-color loop common to [10], [11], [16]."""

    #: Rip-up attempts when the routed net cannot be colored cleanly.
    RIPUP_BUDGET = 2

    def __init__(
        self,
        grid: RoutingGrid,
        netlist: Netlist,
        params: Optional[CostParams] = None,
    ) -> None:
        self.grid = grid
        self.netlist = netlist
        self.params = params or CostParams(gamma=0.0)  # no overlay term in Eq. 5
        self.detector = VectorScenarioDetector(grid.num_layers)
        self.colorings: List[Dict[int, Color]] = [
            {} for _ in range(grid.num_layers)
        ]
        self._penalties: Dict[Tuple[int, int, int], float] = {}
        self.engine = AStarRouter(grid, self.params, penalty_map=self._penalties)
        self._reserve_pins()

    def _reserve_pins(self) -> None:
        """Claim pin candidate cells up front (same policy as SadpRouter)."""
        self._pin_cells: Dict[int, List[Tuple[int, Point]]] = {}
        for net in self.netlist:
            cells = []
            for pin in (net.source, net.target):
                for p in pin.candidates:
                    if self.grid.in_bounds(pin.layer, p) and self.grid.is_free(
                        pin.layer, p
                    ):
                        self.grid.occupy(pin.layer, p, net.net_id)
                        cells.append((pin.layer, p))
            self._pin_cells[net.net_id] = cells

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #

    def choose_colors(
        self, net_id: int, segments: Sequence[Segment], scenarios: Sequence[DetectedScenario]
    ) -> Tuple[int, float]:
        """Greedily freeze the net's per-layer colors.

        Must write into ``self.colorings`` and return
        ``(conflicts, overlay_delta_nm)`` for the chosen assignment.
        """
        raise NotImplementedError

    def on_commit(self, net_id: int, segments: Sequence[Segment], scenarios: Sequence[DetectedScenario]) -> None:
        """Bookkeeping after a net is committed (optional)."""

    def on_undo(self, net_id: int) -> None:
        """Bookkeeping when a tentative net is ripped up (optional)."""

    def collect_metrics(self, result: RoutingResult) -> None:
        """Fill overlay/conflict totals for the committed layout."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def route_all(self) -> RoutingResult:
        # Same stopwatch-span timing as SadpRouter.route_all, so baseline
        # runs land in the same run log with comparable cpu_seconds.
        with obs.stopwatch("route_all", nets=len(self.netlist)) as sw:
            result = RoutingResult()
            for net in self.netlist.ordered_for_routing():
                with obs.span("route_net", net_id=net.net_id):
                    result.routes[net.net_id] = self.route_net(net)
            result.colorings = {
                layer: dict(coloring)
                for layer, coloring in enumerate(self.colorings)
            }
            self.collect_metrics(result)
            result.total_ripups = sum(r.ripups for r in result.routes.values())
        result.cpu_seconds = sw.duration_s
        return result

    def route_net(self, net: Net) -> NetRoute:
        route = NetRoute(net_id=net.net_id)
        self._penalties.clear()
        request = SearchRequest(
            net_id=net.net_id,
            sources=[(net.source.layer, p) for p in net.source.candidates],
            targets=[(net.target.layer, p) for p in net.target.candidates],
        )
        for attempt in range(self.RIPUP_BUDGET + 1):
            found = self.engine.search(
                request, extra_margin=attempt * self.params.margin_growth
            )
            if found is None:
                continue
            self._occupy(net.net_id, found)
            scenarios = self.detector.add_net(net.net_id, found.segments)
            visible, _ = self.choose_colors(net.net_id, found.segments, scenarios)
            if visible == 0:
                # The route looks clean *to this router's partial model*;
                # the complete model may still find conflicts afterwards,
                # which is where the tables' #C columns come from.
                self.on_commit(net.net_id, found.segments, scenarios)
                route.success = True
                route.segments = found.segments
                route.vias = found.vias
                return route
            # Visible conflict: rip up, penalise, retry. With colors
            # frozen at route time there is no flipping to fall back on,
            # so nets in sandwiched regions simply fail (Fig. 13).
            self._release(net.net_id, found)
            route.ripups += 1
            if attempt < self.RIPUP_BUDGET:
                for layer, x, y in found.nodes:
                    key = (layer, x, y)
                    self._penalties[key] = (
                        self._penalties.get(key, 0.0) + self.params.ripup_penalty
                    )
        return route

    # ------------------------------------------------------------------ #
    # Grid bookkeeping
    # ------------------------------------------------------------------ #

    def _occupy(self, net_id: int, found: SearchResult) -> None:
        for layer, x, y in found.nodes:
            self.grid.occupy(layer, Point(x, y), net_id)

    def _release(self, net_id: int, found: SearchResult) -> None:
        self.detector.remove_net(net_id)
        self.grid.release_net(net_id)
        for layer, p in self._pin_cells.get(net_id, ()):
            self.grid.occupy(layer, p, net_id)  # keep pins reserved
        for layer in range(self.grid.num_layers):
            self.colorings[layer].pop(net_id, None)
        self.on_undo(net_id)

    @staticmethod
    def records_of(net_id: int, segments: Sequence[Segment]) -> List[ShapeRecord]:
        return [
            ShapeRecord(
                net_id=net_id,
                rect=seg.to_rect(),
                horizontal=seg.horizontal,
                layer=seg.layer,
            )
            for seg in segments
        ]

    @staticmethod
    def net_layers(segments: Sequence[Segment]) -> Set[int]:
        return {seg.layer for seg in segments}
