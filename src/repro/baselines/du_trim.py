"""Du et al. [10]: trim-process routing with multiple pin candidates.

Published behaviour we reproduce:

* trim process, no assist cores (the accounting and color choice of
  [11], inherited from :class:`GaoPanTrimRouter`);
* **multiple pin candidate locations**: every two-pin net offers several
  legal locations per pin, and the router commits to one pair;
* the algorithm explores the candidate space exhaustively — it runs a
  separate search per (source candidate, target candidate) pair and
  re-prices the *entire* committed conflict state for each, which is
  what makes it orders of magnitude slower than the proposed router
  (Table IV reports a 2520x speedup and >10^5 s timeouts on the larger
  benchmarks).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..netlist import Net
from ..router.astar import SearchRequest, SearchResult
from ..router.result import NetRoute, RoutingResult
from .gao_pan import GaoPanTrimRouter


class DuTrimRouter(GaoPanTrimRouter):
    """The [10] baseline (multi-pin-candidate benchmarks, Table IV)."""

    def __init__(self, grid, netlist, params=None, time_budget_s: Optional[float] = None) -> None:
        super().__init__(grid, netlist, params)
        #: Optional wall-clock budget; the paper aborts [10] beyond 10^5 s.
        self.time_budget_s = time_budget_s
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Candidate-exhaustive routing
    # ------------------------------------------------------------------ #

    def route_all(self) -> RoutingResult:
        import time

        if self.time_budget_s is not None:
            self._deadline = time.perf_counter() + self.time_budget_s
        return super().route_all()

    def route_net(self, net: Net) -> NetRoute:
        import time

        route = NetRoute(net_id=net.net_id)
        if self._deadline is not None and time.perf_counter() > self._deadline:
            return route  # budget exhausted: remaining nets unrouted
        self._penalties.clear()

        best: Optional[Tuple[Tuple[int, float, float], SearchResult]] = None
        # Exhaustive pin-pair sweep: one full search per candidate pair,
        # each priced by tentatively committing and re-evaluating the
        # whole layout (this is the published algorithm's cost profile).
        for src in net.source.candidates:
            for dst in net.target.candidates:
                request = SearchRequest(
                    net_id=net.net_id,
                    sources=[(net.source.layer, src)],
                    targets=[(net.target.layer, dst)],
                )
                found = self.engine.search(request)
                if found is None:
                    continue
                key = self._price_candidate(net.net_id, found)
                if best is None or key < best[0]:
                    best = (key, found)
        if best is None:
            return route

        _, found = best
        self._occupy(net.net_id, found)
        scenarios = self.detector.add_net(net.net_id, found.segments)
        visible, _ = self.choose_colors(net.net_id, found.segments, scenarios)
        if visible > 0:
            # Even the best candidate pair conflicts in [10]'s own model:
            # the net fails (frozen colors leave nothing to flip).
            self._release(net.net_id, found)
            route.ripups += 1
            return route
        route.success = True
        route.segments = found.segments
        route.vias = found.vias
        return route

    def _price_candidate(
        self, net_id: int, found: SearchResult
    ) -> Tuple[int, float, float]:
        """Tentatively commit, evaluate the FULL layout, roll back.

        Returns (total conflicts, total overlay nm, path cost) — the
        full-layout re-evaluation per candidate is the deliberate
        inefficiency of the published approach.
        """
        self._occupy(net_id, found)
        scenarios = self.detector.add_net(net_id, found.segments)
        self.choose_colors(net_id, found.segments, scenarios)
        evaluation = self.accounting.evaluate(self.colorings)
        key = (evaluation.conflicts, float(evaluation.overlay_nm), found.cost)
        self._release(net_id, found)
        return key
