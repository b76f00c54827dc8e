"""Slow, obviously-correct oracles for the router.

Production routes with one implementation of each job: the flat-array
A* (:class:`~repro.router.astar.AStarRouter`), the vector scenario
detector and the SoA constraint graph. The implementations they were
derived from stay here, out of every production code path, as the
executable specification the tests compare production against (only
the tests call them):

* :class:`ReferenceAStarRouter` — the original dict-based A*, with
  optional generic per-cell cost callbacks;
* :func:`overlay_probe` — Eq. (5)'s overlay term for one cell, the
  brute-force spec of :func:`~repro.router.overlay_cache.overlay_cost_grid`;
* :func:`reference_engine` — a :class:`ReferenceAStarRouter` set up
  like a router's production engine, to swap the A* alone;
* :func:`reference_router` — a :class:`SadpRouter` whose detector,
  constraint graphs and search engine are the oracles
  (:class:`repro.core.reference.ScenarioDetector`, the object
  :class:`~repro.core.constraint_graph.OverlayConstraintGraph`, and
  :class:`ReferenceAStarRouter`). It must route every design exactly as
  the production router does.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..core.constraint_graph import OverlayConstraintGraph
from ..core.reference import ScenarioDetector
from ..geometry import Point
from ..grid import CellState, Direction, RoutingGrid
from ..netlist import Netlist
from .astar import _FREE, AStarRouter, Node, SearchRequest, SearchResult
from .cost import CostParams
from .overlay_cache import overlay_cost_grid
from .sadp_router import SadpRouter


def _backtrace(parent: Dict[Node, Optional[Node]], goal: Node) -> List[Node]:
    nodes = [goal]
    while parent[nodes[-1]] is not None:
        nodes.append(parent[nodes[-1]])  # type: ignore[arg-type]
    nodes.reverse()
    return nodes


class ReferenceAStarRouter(AStarRouter):
    """The dict-based A*: same contract as :class:`AStarRouter`, keyed by
    ``(layer, x, y)`` tuples, with optional per-cell callbacks.

    ``overlay_cost`` / ``penalty`` are generic ``(layer, Point) -> cost``
    hooks added to every entered cell on top of ``penalty_map`` and the
    ``overlay_terms`` grid, which it computes per search with
    :func:`~repro.router.overlay_cache.overlay_cost_grid` like the
    production search. The oracle never prunes (``guidance_trigger`` is
    ignored).
    """

    def __init__(
        self,
        grid: RoutingGrid,
        params: CostParams,
        overlay_cost: Optional[Callable[[int, Point], float]] = None,
        penalty: Optional[Callable[[int, Point], float]] = None,
        **kwargs,
    ) -> None:
        super().__init__(grid, params, **kwargs)
        self._overlay_cb = overlay_cost
        self._penalty_cb = penalty

    def _search_reference(
        self, request: SearchRequest, extra_margin: int = 0
    ) -> Optional[SearchResult]:
        grid = self.grid
        params = self.params
        net_id = request.net_id
        occ = grid._occ
        num_layers = occ.shape[0]

        xlo, xhi, ylo, yhi = self._window(request, extra_margin)
        targets = set()
        target_pts: List[Point] = []
        for layer, pt in request.targets:
            if grid.in_bounds(layer, pt) and occ[layer, pt.x, pt.y] in (_FREE, net_id):
                targets.add((layer, pt.x, pt.y))
                target_pts.append(pt)
        if not targets:
            return None

        txlo = min(p.x for p in target_pts)
        txhi = max(p.x for p in target_pts)
        tylo = min(p.y for p in target_pts)
        tyhi = max(p.y for p in target_pts)
        alpha = params.alpha
        beta = params.beta
        wrong_way = alpha * params.wrong_way_factor if params.wrong_way_factor else 0.0
        use_inline = self._overlay_terms is not None
        pen_map = self._penalty_map
        overlay_cb = self._overlay_cb
        penalty_cb = self._penalty_cb
        horizontal = self._horizontal

        # Precompute the Eq. (5) overlay term over the window: occupancy
        # is frozen during one net's search, so the 2-b / tip-abutment
        # probes vectorise into a few numpy shifts.
        cost_grid = None
        if use_inline:
            gamma, delta_tip = self._overlay_terms
            cost_grid = overlay_cost_grid(
                occ, horizontal, (xlo, xhi, ylo, yhi), self.active_net,
                gamma, delta_tip,
            )

        have_pen = pen_map is not None
        have_cbs = overlay_cb is not None or penalty_cb is not None

        def cell_cost(layer: int, x: int, y: int) -> float:
            cost = 0.0
            if have_pen and pen_map:
                cost += pen_map.get((layer, x, y), 0.0)
            if cost_grid is not None:
                cost += cost_grid[layer, x - xlo, y - ylo]
            if have_cbs:
                if overlay_cb is not None:
                    cost += overlay_cb(layer, Point(x, y))
                if penalty_cb is not None:
                    cost += penalty_cb(layer, Point(x, y))
            return cost

        # Admissible via lower bound for the heuristic: moving across a
        # layer's preferred direction requires reaching a layer of the
        # other orientation (and possibly coming back for the target).
        all_targets_horizontal = all(horizontal[l] for l, _, _ in targets)
        all_targets_vertical = all(not horizontal[l] for l, _, _ in targets)

        def via_bound(layer: int, dx: int, dy: int) -> float:
            if wrong_way:
                # Wrong-way jogs cross directions without vias; the via
                # lower bound would overestimate and break admissibility.
                return 0.0
            extra = 0
            if dy > 0:
                if horizontal[layer]:
                    extra += 1
                if all_targets_horizontal:
                    extra += 1 if horizontal[layer] else 0
            if dx > 0:
                if not horizontal[layer]:
                    extra += 1
                if all_targets_vertical:
                    extra += 1 if not horizontal[layer] else 0
            return beta * extra

        counter = itertools.count()
        best_g: Dict[Node, float] = {}
        parent: Dict[Node, Optional[Node]] = {}
        open_heap: List[Tuple[float, float, int, int, int, int]] = []

        for layer, pt in request.sources:
            if not grid.in_bounds(layer, pt):
                continue
            if occ[layer, pt.x, pt.y] not in (_FREE, net_id):
                continue
            node = (layer, pt.x, pt.y)
            g = cell_cost(layer, pt.x, pt.y)
            if node not in best_g or g < best_g[node]:
                best_g[node] = g
                parent[node] = None
                dx = txlo - pt.x if pt.x < txlo else (pt.x - txhi if pt.x > txhi else 0)
                dy = tylo - pt.y if pt.y < tylo else (pt.y - tyhi if pt.y > tyhi else 0)
                heapq.heappush(
                    open_heap,
                    (
                        g + alpha * (dx + dy) + via_bound(layer, dx, dy),
                        g,
                        next(counter),
                        layer,
                        pt.x,
                        pt.y,
                    ),
                )
        if not open_heap:
            return None

        expansions = 0
        pops = 0
        goal: Optional[Node] = None
        push = heapq.heappush
        pop = heapq.heappop
        inf = float("inf")
        while open_heap:
            f, g, _, layer, x, y = pop(open_heap)
            pops += 1
            node = (layer, x, y)
            if g > best_g.get(node, inf):
                continue
            if node in targets:
                goal = node
                break
            expansions += 1
            if expansions > request.max_expansions:
                self._last_stats = (expansions, next(counter), pops)
                self.last_outcome = "budget_exhausted"
                return None

            # In-layer steps: the preferred direction at cost alpha, and —
            # when enabled — wrong-way jogs at alpha * wrong_way_factor.
            if horizontal[layer]:
                steps = ((x - 1, y, alpha), (x + 1, y, alpha))
                if wrong_way:
                    steps += ((x, y - 1, wrong_way), (x, y + 1, wrong_way))
            else:
                steps = ((x, y - 1, alpha), (x, y + 1, alpha))
                if wrong_way:
                    steps += ((x - 1, y, wrong_way), (x + 1, y, wrong_way))
            for nx, ny, step_cost in steps:
                if not (xlo <= nx <= xhi and ylo <= ny <= yhi):
                    continue
                owner = occ[layer, nx, ny]
                if owner != _FREE and owner != net_id:
                    continue
                ng = g + step_cost + cell_cost(layer, nx, ny)
                nxt = (layer, nx, ny)
                if ng < best_g.get(nxt, inf):
                    best_g[nxt] = ng
                    parent[nxt] = node
                    dx = txlo - nx if nx < txlo else (nx - txhi if nx > txhi else 0)
                    dy = tylo - ny if ny < tylo else (ny - tyhi if ny > tyhi else 0)
                    push(
                        open_heap,
                        (
                            ng + alpha * (dx + dy) + via_bound(layer, dx, dy),
                            ng,
                            next(counter),
                            layer,
                            nx,
                            ny,
                        ),
                    )

            # Via moves.
            for nl in (layer - 1, layer + 1):
                if not 0 <= nl < num_layers:
                    continue
                owner = occ[nl, x, y]
                if owner != _FREE and owner != net_id:
                    continue
                ng = g + beta + cell_cost(nl, x, y)
                nxt = (nl, x, y)
                if ng < best_g.get(nxt, inf):
                    best_g[nxt] = ng
                    parent[nxt] = node
                    dx = txlo - x if x < txlo else (x - txhi if x > txhi else 0)
                    dy = tylo - y if y < tylo else (y - tyhi if y > tyhi else 0)
                    push(
                        open_heap,
                        (
                            ng + alpha * (dx + dy) + via_bound(nl, dx, dy),
                            ng,
                            next(counter),
                            nl,
                            x,
                            y,
                        ),
                    )

        self._last_stats = (expansions, next(counter), pops)
        if goal is None:
            return None
        nodes = _backtrace(parent, goal)
        segments, vias = self._lower(nodes)
        return SearchResult(
            nodes=nodes,
            segments=segments,
            vias=vias,
            cost=best_g[goal],
            expansions=expansions,
        )

    #: The search body :meth:`AStarRouter._search` runs.
    _search_fast = _search_reference


def overlay_probe(
    grid: RoutingGrid, params: CostParams, own: int, layer: int, pt: Point
) -> float:
    """Eq. (5)'s overlay term for net ``own`` occupying ``pt``: ``gamma``
    when it creates a type 2-b scenario (tip-to-tip at track distance 2
    along the preferred direction) with another net, plus the soft
    ``delta_tip`` for a direct tip abutment (see CostParams)."""
    if grid.layer_direction(layer) is Direction.HORIZONTAL:
        ahead = ((pt.x + 2, pt.y, pt.x + 1, pt.y), (pt.x - 2, pt.y, pt.x - 1, pt.y))
    else:
        ahead = ((pt.x, pt.y + 2, pt.x, pt.y + 1), (pt.x, pt.y - 2, pt.x, pt.y - 1))
    cost = 0.0
    for fx, fy, mx, my in ahead:
        far = Point(fx, fy)
        mid = Point(mx, my)
        if not grid.in_bounds(layer, mid):
            continue
        mid_owner = grid.owner(layer, mid)
        if mid_owner >= 0 and mid_owner != own:
            cost += params.delta_tip  # abutting tip (type 1-b)
            continue
        if (
            mid_owner == int(CellState.FREE)
            and grid.in_bounds(layer, far)
            and grid.owner(layer, far) >= 0
            and grid.owner(layer, far) != own
        ):
            cost += params.gamma  # type 2-b
    return cost


def reference_engine(router: SadpRouter) -> ReferenceAStarRouter:
    """The dict A* with ``router``'s engine settings: its penalty map and
    Eq. (5) overlay terms."""
    engine = router.engine
    return ReferenceAStarRouter(
        router.grid,
        router.params,
        penalty_map=engine._penalty_map,
        overlay_terms=engine._overlay_terms,
    )


def reference_router(grid: RoutingGrid, netlist: Netlist, **kwargs) -> SadpRouter:
    """A :class:`SadpRouter` (same ``kwargs``) running on the oracles.

    The scenario detector, the per-layer constraint graphs and the A*
    engine are swapped for :class:`~repro.core.reference.ScenarioDetector`,
    the object :class:`OverlayConstraintGraph` and
    :class:`ReferenceAStarRouter`; everything else — the rip-up loop,
    coloring, cut checks, repair — is the production flow.
    """
    router = SadpRouter(grid, netlist, **kwargs)
    router.detector = ScenarioDetector(grid.num_layers)
    router.graphs = [OverlayConstraintGraph() for _ in range(grid.num_layers)]
    router.engine = reference_engine(router)
    return router
