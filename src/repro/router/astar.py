"""Overlay-aware A* search on the multi-layer grid.

The search space is (layer, x, y). Within a layer, moves follow the
layer's preferred direction only (SADP lines are unidirectional); direction
changes go through vias. Sources and targets may have several candidate
locations (the multi-pin-candidate benchmarks), so the search is
multi-source / multi-target.

The per-cell cost implements Eq. (5): wirelength, via count, the type 2-b
penalty, plus transient rip-up penalties injected by the outer loop.

Performance notes — this loop dominates the router's runtime. The search
(:meth:`AStarRouter._search_fast`) maps every window cell to a flat
integer index and keeps g-scores, parents and targets in flat arrays.
What a cell costs to enter lives in one float64 ``entry`` grid: the
Eq. (5) overlay grid, computed afresh over the search's window by
:func:`~repro.router.overlay_cache.overlay_cost_grid`, plus the sparse
rip-up ``penalty_map``, folded in once per search, and ``inf`` where the
cell is neither free nor the net's own.
The loop reads it through a ``memoryview`` (O(1) to create, where
``tolist()`` is O(window)), and an impassable cell needs no check of its
own: its ``inf`` never beats ``best_g``. Heap entries are 4-tuples
``(f, g, tiebreak, idx)``; the inner loop does flat reads instead of
tuple hashing, dict probes and numpy scalar indexing. The original
dict-based search with generic per-cell callbacks is the executable
specification; it lives in :mod:`repro.router.reference`, and the tests
assert both produce identical node sequences and costs.

A search that grows past ``guidance_trigger`` expansions builds an exact
future-cost map (:mod:`repro.router.guidance`) over the same ``entry``
grid and from then on prunes its open list against it: off-corridor
heap entries are discarded without changing the surviving search, so
results stay bit-identical to the unguided search while large searches
expand a fraction of the window.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import RoutingError
from ..geometry import Point, Segment, points_to_segments
from ..grid import CellState, Direction, RoutingGrid, Via
from .cost import CostParams
from .guidance import AUTO_TRIGGER_EXPANSIONS, future_cost_map, prune_threshold
from .overlay_cache import overlay_cost_grid

#: A search-space node: (layer, x, y).
Node = Tuple[int, int, int]

#: A window over the grid plane: (xlo, xhi, ylo, yhi), inclusive.
Bounds = Tuple[int, int, int, int]

_FREE = int(CellState.FREE)


def search_window(
    pts: Sequence[Point], margin: int, width: int, height: int
) -> Bounds:
    """The A* window for a point set: bbox + margin, clipped to the die."""
    xlo = max(0, min(p.x for p in pts) - margin)
    xhi = min(width - 1, max(p.x for p in pts) + margin)
    ylo = max(0, min(p.y for p in pts) - margin)
    yhi = min(height - 1, max(p.y for p in pts) + margin)
    return xlo, xhi, ylo, yhi


@dataclass
class SearchRequest:
    """One routing query: where a net may start and where it must end."""

    net_id: int
    sources: Sequence[Tuple[int, Point]]  # (layer, point) candidates
    targets: Sequence[Tuple[int, Point]]
    max_expansions: int = 400_000
    #: A path an earlier attempt found and its commit rejected. While it
    #: is still a path of this search, its cost bounds the guidance
    #: solve; it never changes the result. The dict oracle ignores it.
    incumbent: Optional[Sequence[Node]] = None

    def __post_init__(self) -> None:
        if not self.sources or not self.targets:
            raise RoutingError("search needs at least one source and one target")


@dataclass
class SearchResult:
    """A found path, lowered to segments and vias."""

    nodes: List[Node]
    segments: List[Segment]
    vias: List[Via]
    cost: float
    expansions: int

    @property
    def wirelength(self) -> int:
        return sum(seg.length for seg in self.segments)

    @property
    def via_count(self) -> int:
        return len(self.vias)


class AStarRouter:
    """The inner search engine; stateless apart from grid references.

    Cost hooks:

    * ``penalty_map`` — a ``{(layer, x, y): cost}`` dict folded into the
      search's ``entry`` grid once per search (the rip-up penalties;
      cheap);
    * ``overlay_terms=(gamma, delta_tip)`` — enables the Eq. (5)
      overlay grid against ``active_net`` (set per routed net).

    After every :meth:`search`, :attr:`last_outcome` reports ``"found"``,
    ``"failed"`` (exhausted the window — the target is unreachable), or
    ``"budget_exhausted"`` (hit ``max_expansions`` — the search ran out
    of budget, *not* of reachable cells). The rip-up loop uses the
    distinction to widen window/budget rather than penalise cells.
    """

    def __init__(
        self,
        grid: RoutingGrid,
        params: CostParams,
        penalty_map: Optional[Dict[Tuple[int, int, int], float]] = None,
        overlay_terms: Optional[Tuple[float, float]] = None,
    ) -> None:
        self.grid = grid
        self.params = params
        self._penalty_map = penalty_map
        self._overlay_terms = overlay_terms
        #: Unguided expansions after which a search builds its corridor
        #: map in place; searches that finish sooner never pay for one.
        #: ``-1`` never activates (the unguided search), ``1`` solves the
        #: whole window after the first expansion. A test and bench
        #: seam only: no parameter, config field or flag sets it.
        self.guidance_trigger = AUTO_TRIGGER_EXPANSIONS
        #: Net whose own cells are exempt from the inlined overlay probe.
        self.active_net = -1
        #: Outcome of the most recent search (see class docstring).
        self.last_outcome = "failed"
        #: Cumulative counters, always on (plain int adds per search) so
        #: perfbench and the tests read them with observability off.
        self.total_searches = 0
        self.total_expansions = 0
        #: Searches that activated a guidance map (one map built each).
        self.total_guided_searches = 0
        self._last_stats = (0, 0, 0)
        # Layer directions are immutable for a grid's lifetime — hoisted
        # out of the per-search setup.
        self._horizontal = [
            grid.layer_direction(l) is Direction.HORIZONTAL
            for l in range(grid.num_layers)
        ]

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #

    def search(
        self, request: SearchRequest, extra_margin: int = 0
    ) -> Optional[SearchResult]:
        """Run A*; None when no path exists within the window/budget.

        With observability enabled the search runs inside an
        ``astar_search`` span and publishes expansion/heap counters;
        disabled, the only extra work is this predicate.
        """
        ob = obs.get_active()
        if ob is None:
            return self._search(request, extra_margin)
        with ob.tracer.span(
            "astar_search", net_id=request.net_id, margin=extra_margin
        ) as sp:
            result = self._search(request, extra_margin)
        expansions, pushes, pops = self._last_stats
        sp.attrs["expansions"] = expansions
        sp.attrs["found"] = result is not None
        reg = ob.registry
        reg.counter("astar_searches_total", outcome=self.last_outcome).inc()
        reg.counter("astar_nodes_expanded_total").inc(expansions)
        reg.counter("astar_heap_pushes_total").inc(pushes)
        reg.counter("astar_heap_pops_total").inc(pops)
        return result

    def _search(
        self, request: SearchRequest, extra_margin: int = 0
    ) -> Optional[SearchResult]:
        self._last_stats = (0, 0, 0)
        self.last_outcome = "failed"
        result = self._search_fast(request, extra_margin)
        self.total_searches += 1
        self.total_expansions += self._last_stats[0]
        if result is not None:
            self.last_outcome = "found"
        return result

    # ------------------------------------------------------------------ #
    # The search body: flat-index search state
    # ------------------------------------------------------------------ #

    def _search_fast(
        self, request: SearchRequest, extra_margin: int = 0
    ) -> Optional[SearchResult]:
        grid = self.grid
        params = self.params
        net_id = request.net_id
        occ = grid._occ  # hot path: direct array access
        num_layers = occ.shape[0]

        xlo, xhi, ylo, yhi = self._window(request, extra_margin)
        wx = xhi - xlo + 1
        wy = yhi - ylo + 1
        layer_stride = wx * wy
        n = num_layers * layer_stride

        is_target = bytearray(n)
        target_idx: List[int] = []
        target_pts: List[Point] = []
        target_layers: List[int] = []
        for layer, pt in request.targets:
            if grid.in_bounds(layer, pt) and occ[layer, pt.x, pt.y] in (_FREE, net_id):
                tidx = layer * layer_stride + (pt.x - xlo) * wy + (pt.y - ylo)
                is_target[tidx] = 1
                target_idx.append(tidx)
                target_pts.append(pt)
                target_layers.append(layer)
        if not target_pts:
            return None

        txlo = min(p.x for p in target_pts)
        txhi = max(p.x for p in target_pts)
        tylo = min(p.y for p in target_pts)
        tyhi = max(p.y for p in target_pts)
        alpha = params.alpha
        beta = params.beta
        inf = float("inf")
        wrong_way = alpha * params.wrong_way_factor if params.wrong_way_factor else 0.0
        horizontal = self._horizontal

        # Window-local flat state (entry costs here, g-scores and parent
        # links below), indexed by layer * layer_stride + (x - xlo) * wy
        # + (y - ylo). ``entry`` is what entering a cell costs, inf where
        # the cell is neither free nor the net's own: an impassable
        # neighbour needs no check of its own, since its inf never beats
        # ``best_g``.
        occ_win = occ[:, xlo : xhi + 1, ylo : yhi + 1]
        passable = (occ_win == _FREE) | (occ_win == net_id)
        if self._overlay_terms is not None:
            gamma, delta_tip = self._overlay_terms
            cost_np = overlay_cost_grid(
                occ, horizontal, (xlo, xhi, ylo, yhi), self.active_net, gamma, delta_tip
            )
        else:
            cost_np = 0.0
        entry_grid = np.where(passable, cost_np, inf)
        entry = memoryview(entry_grid.reshape(-1))
        # Fold the sparse rip-up penalties in once (inf stays inf).
        pen_map = self._penalty_map
        if pen_map:
            for (pl, px, py), amount in pen_map.items():
                if pl < num_layers and xlo <= px <= xhi and ylo <= py <= yhi:
                    entry[pl * layer_stride + (px - xlo) * wy + (py - ylo)] += amount

        # Admissible via lower bound for the heuristic: moving across a
        # layer's preferred direction requires reaching a layer of the
        # other orientation (and possibly coming back for the target).
        # It depends only on (layer, dx > 0, dy > 0) — tabulated.
        all_targets_horizontal = all(horizontal[l] for l in target_layers)
        all_targets_vertical = all(not horizontal[l] for l in target_layers)
        vb = [0.0] * (num_layers * 4)
        if not wrong_way:
            # Wrong-way jogs cross directions without vias; the via lower
            # bound would overestimate and break admissibility.
            for layer in range(num_layers):
                for dx_pos in (0, 1):
                    for dy_pos in (0, 1):
                        extra = 0
                        if dy_pos:
                            if horizontal[layer]:
                                extra += 1
                            if all_targets_horizontal:
                                extra += 1 if horizontal[layer] else 0
                        if dx_pos:
                            if not horizontal[layer]:
                                extra += 1
                            if all_targets_vertical:
                                extra += 1 if not horizontal[layer] else 0
                        vb[layer * 4 + dx_pos * 2 + dy_pos] = beta * extra

        counter = itertools.count()
        best_g = [inf] * n
        parent = [-1] * n
        open_heap: List[Tuple[float, float, int, int]] = []

        source_idx: List[int] = []
        for layer, pt in request.sources:
            if not grid.in_bounds(layer, pt):
                continue
            if occ[layer, pt.x, pt.y] not in (_FREE, net_id):
                continue
            idx = layer * layer_stride + (pt.x - xlo) * wy + (pt.y - ylo)
            source_idx.append(idx)
            g = entry[idx]
            if g < best_g[idx]:
                best_g[idx] = g
                dx = txlo - pt.x if pt.x < txlo else (pt.x - txhi if pt.x > txhi else 0)
                dy = tylo - pt.y if pt.y < tylo else (pt.y - tyhi if pt.y > tyhi else 0)
                heapq.heappush(
                    open_heap,
                    (
                        g + alpha * (dx + dy) + vb[layer * 4 + (dx > 0) * 2 + (dy > 0)],
                        g,
                        next(counter),
                        idx,
                    ),
                )
        if not open_heap:
            return None

        # --- Future-cost corridor guidance (repro.router.guidance) ---- #
        # ``gd`` is the flat exact cost-to-go map (a memoryview over the
        # solved grid), ``thr`` the corridor bound T + eps with
        # T = min_src(entry[src] + d(src)) = C*. An
        # entry with g + d > thr can never lie on the path A* returns,
        # and (d being consistent) everything it could ever relax is
        # itself prunable — dropping such entries leaves the surviving
        # search bit-identical, paths and costs included. thr = -inf
        # encodes "no target reachable from any source": every entry
        # prunes and the search fails immediately with the same
        # ``"failed"`` outcome the exhausted unguided search reaches.
        # The map is built mid-search once the expansion count proves
        # the search is not trivially small; nothing before the trigger
        # differs from an unguided run, so the switch is seamless.
        trigger = self.guidance_trigger
        gd = None
        thr = inf

        expansions = 0
        pops = 0
        goal = -1
        push = heapq.heappush
        pop = heapq.heappop
        max_expansions = request.max_expansions
        while open_heap:
            f, g, _, idx = pop(open_heap)
            pops += 1
            if g > best_g[idx]:
                continue
            if is_target[idx]:
                goal = idx
                break
            if gd is not None and g + gd[idx] > thr:
                # Off-corridor: cannot be on the returned path, and
                # everything it would relax is off-corridor too.
                continue
            expansions += 1
            if expansions > max_expansions:
                self._last_stats = (expansions, next(counter), pops)
                self.last_outcome = "budget_exhausted"
                return None
            if expansions == trigger:
                gd, thr = self._guidance_map(
                    entry_grid,
                    (xlo, xhi, ylo, yhi),
                    is_target,
                    best_g,
                    target_idx,
                    source_idx,
                    request.incumbent,
                )

            layer = idx // layer_stride
            rem = idx - layer * layer_stride
            lx = rem // wy
            ly = rem - lx * wy
            x = xlo + lx
            y = ylo + ly

            # In-layer steps: the preferred direction at cost alpha, and —
            # when enabled — wrong-way jogs at alpha * wrong_way_factor.
            if horizontal[layer]:
                steps = ((lx - 1, ly, -wy, alpha), (lx + 1, ly, wy, alpha))
                if wrong_way:
                    steps += ((lx, ly - 1, -1, wrong_way), (lx, ly + 1, 1, wrong_way))
            else:
                steps = ((lx, ly - 1, -1, alpha), (lx, ly + 1, 1, alpha))
                if wrong_way:
                    steps += ((lx - 1, ly, -wy, wrong_way), (lx + 1, ly, wy, wrong_way))
            for nlx, nly, didx, step_cost in steps:
                if not (0 <= nlx < wx and 0 <= nly < wy):
                    continue
                nidx = idx + didx
                ng = g + step_cost + entry[nidx]
                if ng < best_g[nidx]:
                    if gd is not None and ng + gd[nidx] > thr:
                        continue
                    best_g[nidx] = ng
                    parent[nidx] = idx
                    nx = xlo + nlx
                    ny = ylo + nly
                    dx = txlo - nx if nx < txlo else (nx - txhi if nx > txhi else 0)
                    dy = tylo - ny if ny < tylo else (ny - tyhi if ny > tyhi else 0)
                    push(
                        open_heap,
                        (
                            ng
                            + alpha * (dx + dy)
                            + vb[layer * 4 + (dx > 0) * 2 + (dy > 0)],
                            ng,
                            next(counter),
                            nidx,
                        ),
                    )

            # Via moves.
            dx = txlo - x if x < txlo else (x - txhi if x > txhi else 0)
            dy = tylo - y if y < tylo else (y - tyhi if y > tyhi else 0)
            for nl in (layer - 1, layer + 1):
                if not 0 <= nl < num_layers:
                    continue
                nidx = idx + (nl - layer) * layer_stride
                ng = g + beta + entry[nidx]
                if ng < best_g[nidx]:
                    if gd is not None and ng + gd[nidx] > thr:
                        continue
                    best_g[nidx] = ng
                    parent[nidx] = idx
                    push(
                        open_heap,
                        (
                            ng
                            + alpha * (dx + dy)
                            + vb[nl * 4 + (dx > 0) * 2 + (dy > 0)],
                            ng,
                            next(counter),
                            nidx,
                        ),
                    )

        self._last_stats = (expansions, next(counter), pops)
        if goal < 0:
            return None
        nodes: List[Node] = []
        cur = goal
        while cur >= 0:
            layer = cur // layer_stride
            rem = cur - layer * layer_stride
            lx = rem // wy
            nodes.append((layer, xlo + lx, ylo + rem - lx * wy))
            cur = parent[cur]
        nodes.reverse()
        segments, vias = self._lower(nodes)
        return SearchResult(
            nodes=nodes,
            segments=segments,
            vias=vias,
            cost=best_g[goal],
            expansions=expansions,
        )

    def _guidance_map(
        self,
        entry: np.ndarray,
        bounds: Bounds,
        is_target,
        best_g,
        target_idx: Sequence[int],
        source_idx: Sequence[int],
        incumbent: Optional[Sequence[Node]],
    ) -> Tuple[Optional[memoryview], float]:
        """Activate corridor guidance for a running search.

        ``entry`` is the search's own entry-cost grid over the window
        ``bounds`` (inf where impassable), ``best_g`` its g-scores so far.
        Returns the flat cost-to-go map as a float64 memoryview and the
        corridor bound ``thr``, or ``(None, inf)`` for a degenerate window
        (the search stays unguided).

        The cheapest ``best_g`` over ``target_idx`` is the cost of a path
        already found, and so is the ``incumbent``'s cost when this
        search can still walk it; the backward solve stops at the prune
        threshold of the cheaper (see :mod:`repro.router.guidance`):
        every prune decision equals the full map's.
        """
        inf = float("inf")
        # inf until a target has been pushed and without a usable
        # incumbent: then the solve is full.
        found = min(best_g[t] for t in target_idx)
        walked = (
            self._walk_cost(incumbent, entry, bounds, source_idx, is_target)
            if incumbent
            else inf
        )
        limit = prune_threshold(min(found, walked))
        params = self.params
        dmap = future_cost_map(
            entry,
            self._horizontal,
            params.alpha,
            params.beta,
            params.wrong_way_factor,
            np.frombuffer(is_target, dtype=bool).reshape(entry.shape),
            limit=limit,
        )
        if dmap is None:
            return None, inf
        if walked < found:
            solve = "incumbent"
        else:
            solve = "bounded" if found < inf else "full"
        obs.counter_inc("guidance_builds_total", solve=solve)
        self.total_guided_searches += 1
        d = memoryview(dmap.reshape(-1))
        e = memoryview(entry.reshape(-1))
        t = min(e[s] + d[s] for s in source_idx)
        return d, (prune_threshold(t) if t < inf else -inf)

    def _walk_cost(
        self,
        nodes: Sequence[Node],
        entry: np.ndarray,
        bounds: Bounds,
        source_idx: Sequence[int],
        is_target,
    ) -> float:
        """What the search would pay for ``nodes``, or inf when it can't.

        The walk must start at one of the search's sources, end at a
        target, stay in the window ``bounds`` and make only the moves the
        heap loop makes. It is priced as the loop adds g-scores: the
        source's entry, then ``g + step + entry`` per move; a cell the
        search cannot enter prices it at inf.
        """
        inf = float("inf")
        xlo, xhi, ylo, yhi = bounds
        wy = yhi - ylo + 1
        layer_stride = (xhi - xlo + 1) * wy
        num_layers = entry.shape[0]
        horizontal = self._horizontal
        params = self.params
        alpha = params.alpha
        wrong_way = alpha * params.wrong_way_factor if params.wrong_way_factor else 0.0
        e = memoryview(entry.reshape(-1))
        g = inf
        prev = None
        for layer, x, y in nodes:
            if not (0 <= layer < num_layers and xlo <= x <= xhi and ylo <= y <= yhi):
                return inf
            idx = layer * layer_stride + (x - xlo) * wy + (y - ylo)
            if prev is None:
                if idx not in source_idx:
                    return inf
                g = e[idx]
            else:
                pl, px, py = prev
                dx, dy = abs(x - px), abs(y - py)
                if layer != pl:
                    if abs(layer - pl) != 1 or dx or dy:
                        return inf
                    step = params.beta
                elif dx + dy != 1:
                    return inf
                elif (dx == 1) == horizontal[layer]:
                    step = alpha
                elif wrong_way:
                    step = wrong_way
                else:
                    return inf
                g = g + step + e[idx]
            prev = (layer, x, y)
        return g if prev is not None and is_target[idx] else inf

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _window(
        self, request: SearchRequest, extra_margin: int
    ) -> Tuple[int, int, int, int]:
        pts = [pt for _, pt in request.sources] + [pt for _, pt in request.targets]
        return search_window(
            pts,
            self.params.search_margin + extra_margin,
            self.grid.width,
            self.grid.height,
        )

    @staticmethod
    def _lower(nodes: List[Node]) -> Tuple[List[Segment], List[Via]]:
        """Convert a node path into per-layer segments plus vias."""
        segments: List[Segment] = []
        vias: List[Via] = []
        run: List[Point] = []
        run_layer = nodes[0][0]
        for layer, x, y in nodes:
            pt = Point(x, y)
            if layer != run_layer:
                if run:
                    segments.extend(points_to_segments(run_layer, run))
                vias.append(Via(lower=min(layer, run_layer), at=pt))
                run = [pt]
                run_layer = layer
            else:
                run.append(pt)
        if run:
            segments.extend(points_to_segments(run_layer, run))
        return segments, vias


# ---------------------------------------------------------------------- #
# Steiner extension
# ---------------------------------------------------------------------- #


def extend_with_taps(
    search: Callable[[SearchRequest], Optional[SearchResult]],
    net_id: int,
    tap_groups: Sequence[Tuple[int, Sequence[Point]]],
    trunk: SearchResult,
) -> Optional[SearchResult]:
    """Sequential Steiner extension: attach each tap to the grown tree.

    Every tap search treats all cells of the tree built so far as sources,
    so branches start wherever is cheapest. ``search`` is the caller's
    search primitive; the router closes over its engine and rip-up
    margin. Returns the combined result, or None when any tap is
    unreachable.
    """
    nodes = list(trunk.nodes)
    node_set = set(nodes)
    segments = list(trunk.segments)
    vias = list(trunk.vias)
    cost = trunk.cost
    expansions = trunk.expansions
    for layer, candidates in tap_groups:
        request = SearchRequest(
            net_id=net_id,
            sources=[(node_layer, Point(x, y)) for node_layer, x, y in nodes],
            targets=[(layer, p) for p in candidates],
        )
        sub = search(request)
        if sub is None:
            return None
        for node in sub.nodes:
            if node not in node_set:
                node_set.add(node)
                nodes.append(node)
        segments.extend(sub.segments)
        vias.extend(v for v in sub.vias if v not in vias)
        cost += sub.cost
        expansions += sub.expansions
    return SearchResult(
        nodes=nodes,
        segments=segments,
        vias=vias,
        cost=cost,
        expansions=expansions,
    )
