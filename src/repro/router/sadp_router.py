"""The overall overlay-aware detailed routing flow (Fig. 18/19).

For every net, in routing order::

    repeat
        path      <- overlay-aware A* (Eq. 5 costs + transient penalties)
        scenarios <- update per-layer overlay constraint graphs
        if hard odd cycle or unavoidable cut conflict:
            rip up, penalise the offending cells, retry (<= B times)
    pseudo-color the net
    if the net's induced side overlay > f_threshold: color flipping

and after all nets are routed, one full-layout color flipping pass.

The committed result is guaranteed free of hard overlays and cut
conflicts; remaining (non-hard) side overlays are minimised by the
constraint-graph coloring.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..color import Color
from ..core import (
    CutConflictChecker,
    DetectedScenario,
    ScenarioType,
    SoAOverlayConstraintGraph,
    VectorScenarioDetector,
    flip_colors,
    pseudo_color,
)
from ..core.constraint_graph_soa import ConstraintGraph
from ..core.cut_conflict import CriticalCut
from ..geometry import Point, Rect, Segment
from ..grid import RoutingGrid
from ..netlist import Net, Netlist
from .astar import AStarRouter, SearchRequest, SearchResult, extend_with_taps
from .cost import CostParams, PAPER_PARAMS
from .result import NetRoute, RoutingResult


class SadpRouter:
    """Overlay-aware SADP-cut detailed router (the paper's algorithm)."""

    def __init__(
        self,
        grid: RoutingGrid,
        netlist: Netlist,
        params: CostParams = PAPER_PARAMS,
        enable_flipping: bool = True,
        enable_t2b_penalty: bool = True,
        enable_merge: bool = True,
        core: str = "vector",
    ) -> None:
        self.grid = grid
        self.netlist = netlist
        self.params = params
        self.enable_flipping = enable_flipping
        self.enable_t2b_penalty = enable_t2b_penalty
        #: Constraint-engine backend: "vector" (the SoA edge store and the
        #: vector scenario detector) is the only one. Kept because
        #: ``perfbench/run.py`` reads it.
        if core != "vector":
            raise ValueError(
                f"unknown core backend: {core!r} (only 'vector' routes; "
                "use repro.router.reference.reference_router for the "
                "object oracles)"
            )
        self.core = core
        #: Always None: routing runs in this process, one net at a time.
        #: Kept because ``perfbench/run.py`` reads it.
        self.parallel_stats = None
        #: Ablation knob for contribution 1: with the merge technique
        #: disabled, abutting tips (type 1-b) cannot be merged-and-cut —
        #: every 1-b scenario forces a rip-up, as in the trim process.
        self.enable_merge = enable_merge

        self.detector = VectorScenarioDetector(grid.num_layers)
        self.graphs: List[ConstraintGraph] = [
            SoAOverlayConstraintGraph() for _ in range(grid.num_layers)
        ]
        self.colorings: List[Dict[int, Color]] = [
            {} for _ in range(grid.num_layers)
        ]
        self.checker = CutConflictChecker(grid.rules, grid.num_layers)
        #: Every committed net, in commit order, with the scenarios it
        #: takes part in.
        self._scenarios_by_net: Dict[int, List[DetectedScenario]] = {}
        self._penalties: Dict[Tuple[int, int, int], float] = {}
        self._flip_count = 0
        #: Every rejected commit, including those of attempts that a
        #: rescue, repair or eviction retry later replaced.
        self._ripup_count = 0
        self._blockers: Set[int] = set()
        self._evicted_routes: Dict[int, NetRoute] = {}

        self.engine = AStarRouter(
            grid,
            params,
            penalty_map=self._penalties,
            overlay_terms=(
                (params.gamma, params.delta_tip) if enable_t2b_penalty else None
            ),
        )
        self._reserve_pins()

    def _reserve_pins(self) -> None:
        """Claim every pin candidate cell for its net before routing.

        Without reservation an early net may route straight across a later
        net's only pin location, making that net unroutable for no reason.
        """
        self._pin_cells: Dict[int, List[Tuple[int, Point]]] = {}
        for net in self.netlist:
            cells = []
            for pin in (net.source, net.target, *net.taps):
                for p in pin.candidates:
                    if self.grid.in_bounds(pin.layer, p) and self.grid.is_free(
                        pin.layer, p
                    ):
                        self.grid.occupy(pin.layer, p, net.net_id)
                        cells.append((pin.layer, p))
            self._pin_cells[net.net_id] = cells

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    #: Rerouting rounds of the endgame's conflict-repair loop; up to
    #: ``MAX_REPAIR_ROUNDS + 2`` shedding rounds follow them.
    MAX_REPAIR_ROUNDS = 4

    def route_all(self) -> RoutingResult:
        """Route every net and return the fully colored result.

        Wall time comes from the ``route_all`` stopwatch span — identical
        semantics to the old ``time.perf_counter`` pair, but the same
        measurement now lands in the run log when observability is on.
        """
        with obs.stopwatch("route_all", nets=len(self.netlist)) as sw:
            result = self._route_all()
        result.cpu_seconds = sw.duration_s
        return result

    def _route_all(self) -> RoutingResult:
        result = RoutingResult()
        for net in self.netlist.ordered_for_routing():
            result.routes[net.net_id] = self.route_net(net)
        result.routes.update(self._evicted_routes)
        self._evicted_routes.clear()
        self._rescue_pass(result)
        # Endgame fixpoint: full-layout flipping (Fig. 19 line 16) can
        # re-introduce a type B pattern, and repair's reroutes only get
        # greedy colors — so alternate flip and repair until both the
        # conflict set and the hard constraints are clean. From round
        # MAX_REPAIR_ROUNDS on, a round sheds its offenders instead of
        # rerouting them: the zero-conflict guarantee is unconditional.
        for round_idx in range(2 * (self.MAX_REPAIR_ROUNDS + 1)):
            self._refresh_cuts(self._final_flip())
            conflicts = self.checker.all_conflicts()
            if not conflicts:
                break
            self._repair_round(
                result, conflicts, shed=(round_idx >= self.MAX_REPAIR_ROUNDS)
            )
        result.routes.update(self._evicted_routes)
        self._evicted_routes.clear()
        result.colorings = {
            layer: dict(coloring) for layer, coloring in enumerate(self.colorings)
        }
        self._collect_metrics(result)
        result.total_ripups = self._ripup_count
        result.color_flips = self._flip_count
        return result

    def route_net(
        self,
        net: Net,
        preserve_penalties: bool = False,
        allow_chain: bool = True,
    ) -> NetRoute:
        """Route one net with the rip-up & reroute loop of Fig. 19.

        When the loop exhausts its budget because of conflicts with one
        specific committed neighbour (typically a pin-adjacent trap), a
        depth-one *chained* rip-up evicts that neighbour, routes this net,
        and reroutes the evicted one.
        """
        ob = obs.get_active()
        if ob is None:
            return self._route_net(net, preserve_penalties, allow_chain)
        with ob.tracer.span(
            "route_net", net_id=net.net_id, pins=net.pin_count
        ) as sp:
            route = self._route_net(net, preserve_penalties, allow_chain)
        sp.attrs.update(
            success=route.success,
            ripups=route.ripups,
            wirelength=route.wirelength,
            vias=route.via_count,
        )
        ob.registry.histogram("route_net_seconds").observe(sp.duration_s)
        ob.registry.counter(
            "nets_routed_total", success="yes" if route.success else "no"
        ).inc()
        return route

    def _route_net(
        self,
        net: Net,
        preserve_penalties: bool = False,
        allow_chain: bool = True,
    ) -> NetRoute:
        route = NetRoute(net_id=net.net_id)
        self.engine.active_net = net.net_id
        if not preserve_penalties:
            self._penalties.clear()
        request = SearchRequest(
            net_id=net.net_id,
            sources=[(net.source.layer, p) for p in net.source.candidates],
            targets=[(net.target.layer, p) for p in net.target.candidates],
        )
        attempts = self.params.max_ripup_iterations + 1
        self._blockers: Set[int] = set()
        for attempt in range(attempts):
            margin = attempt * self.params.margin_growth
            if attempt == attempts - 1:
                # Last chance: open the window wide (capped — on big dies
                # a whole-grid window makes failing nets very expensive).
                margin = min(max(self.grid.width, self.grid.height), 48)
            trunk = found = self.engine.search(request, extra_margin=margin)
            if found is not None and net.taps:
                found = self._connect_taps(net, found, margin)
            if found is None:
                if self.engine.last_outcome == "budget_exhausted":
                    # The search ran out of budget, not of reachable
                    # cells: the next attempt's wider window needs a
                    # bigger budget, and penalising cells would steer
                    # the retry away from cells that were never the
                    # problem. Double the budget and retry.
                    request.max_expansions *= 2
                    obs.counter_inc("astar_budget_doublings_total")
                continue
            if self._commit(net.net_id, found, route):
                route.success = True
                route.segments = found.segments
                route.vias = found.vias
                self._post_route(net.net_id)
                return route
            route.ripups += 1
            self._ripup_count += 1
            # The rejected trunk usually still runs through the next, wider
            # window; its cost then bounds that search's guidance solve.
            request.incumbent = trunk.nodes

        if allow_chain and self._blockers:
            return self._route_with_eviction(net, route)
        return route

    def _connect_taps(
        self, net: Net, trunk: SearchResult, margin: int
    ) -> Optional[SearchResult]:
        """Steiner extension on the live engine; see ``extend_with_taps``."""
        return extend_with_taps(
            lambda request: self.engine.search(request, extra_margin=margin),
            net.net_id,
            [(tap.layer, tap.candidates) for tap in net.taps],
            trunk,
        )

    def _route_with_eviction(self, net: Net, route: NetRoute) -> NetRoute:
        """Depth-one chained rip-up: evict blockers, route, reroute them."""
        ob = obs.get_active()
        if ob is not None:
            ob.registry.counter("evictions_total").inc()
            # The innermost open span is this net's own ``route_net``.
            ob.tracer.current().attrs["blockers"] = sorted(self._blockers)
        victims = [
            v for v in sorted(self._blockers) if v in self._scenarios_by_net
        ][:2]
        evicted = []
        for victim in victims:
            self.rip_up_net(victim)
            evicted.append(victim)
        if not evicted:
            return route
        retry = self.route_net(net, preserve_penalties=True, allow_chain=False)
        for victim in evicted:
            self._penalties.clear()
            victim_route = self.route_net(
                self.netlist.by_id(victim), allow_chain=False
            )
            self._evicted_routes[victim] = victim_route
        return retry

    # ------------------------------------------------------------------ #
    # Commit / undo
    # ------------------------------------------------------------------ #

    def _commit(self, net_id: int, found: SearchResult, route: NetRoute) -> bool:
        """Tentatively commit a path; False (and rolled back) on violation.

        Runs inside a ``commit_net`` span; the bench's per-phase split
        attributes this span's *self time* (occupancy writes, scenario
        bookkeeping, registration) plus the nested ``cut_check`` to the
        ``commit`` bucket — ``ocg_update``/``pseudo_color`` children keep
        their own phases.
        """
        with obs.span("commit_net", net_id=net_id):
            return self._commit_inner(net_id, found, route)

    def _commit_inner(
        self, net_id: int, found: SearchResult, route: NetRoute
    ) -> bool:
        self.grid.occupy_many(found.nodes, net_id)

        scenarios_by_layer: Dict[int, List[DetectedScenario]] = {}
        merge_violations: List[DetectedScenario] = []
        with obs.span("ocg_update", net_id=net_id):
            scenarios = self.detector.add_net(net_id, found.segments)
            for sc in scenarios:
                if not self.enable_merge and sc.scenario is ScenarioType.T1B:
                    # Merge technique disabled: abutting tips cannot be
                    # separated by a cut, and different colors are hard — the
                    # pair is undecomposable, so the net must reroute.
                    merge_violations.append(sc)
                    continue
                scenarios_by_layer.setdefault(sc.layer, []).append(sc)
        if merge_violations:
            cells = [(sc.layer, sc.rect_a) for sc in merge_violations]
            for sc in merge_violations:
                self._blockers.add(sc.net_b)
            self._undo(net_id, "merge_disabled", cells)
            return False
        offender_scs: List[DetectedScenario] = []
        with obs.span("ocg_update", net_id=net_id):
            for layer, scs in scenarios_by_layer.items():
                offender_scs.extend(self.graphs[layer].add_scenarios(scs))
            for layer in self._net_layers(found.segments):
                self.graphs[layer].add_vertex(net_id)

        if offender_scs:
            # Hard odd cycle: rip up and penalise exactly the fragments
            # whose scenarios closed the cycle (steering the reroute away
            # from the bad adjacency, not from the whole path).
            offending_cells = [(sc.layer, sc.rect_a) for sc in offender_scs]
            for sc in offender_scs:
                self._blockers.add(sc.net_b if sc.net_a == net_id else sc.net_a)
            self._undo(net_id, "hard_odd_cycle", offending_cells)
            return False

        # Pseudo-coloring (Fig. 19 line 11), then the cut-conflict check.
        with obs.span("pseudo_color", net_id=net_id):
            for layer in self._net_layers(found.segments):
                pseudo_color(self.graphs[layer], net_id, self.colorings[layer])

        self._scenarios_by_net[net_id] = []
        for sc in scenarios:
            self._scenarios_by_net[net_id].append(sc)
            self._scenarios_by_net.setdefault(sc.net_b, []).append(sc)

        with obs.span("cut_check", net_id=net_id):
            cuts = self._cuts_for_net(net_id)
            conflicts = self.checker.conflicts_with(cuts)
        if conflicts:
            # Try the opposite color on every layer before giving up.
            # (Type A risks are avoided by the coloring veto whenever a
            # risk-free assignment exists; definite conflicts are the
            # type B patterns this checker finds.)
            flipped = self._try_opposite_colors(net_id, found.segments)
            if flipped is not None:
                cuts = flipped
            else:
                for conflict in conflicts:
                    for other in (*conflict.first.nets, *conflict.second.nets):
                        if other != net_id:
                            self._blockers.add(other)
                self._penalise_conflicts(conflicts)
                self._undo(net_id, "cut_conflict")
                return False

        wire_rects = [
            (seg.layer, self.checker.wire_rect_nm(seg.to_rect()))
            for seg in found.segments
        ]
        self.checker.register_net(net_id, wire_rects, cuts)
        return True

    def _try_opposite_colors(
        self, net_id: int, segments: Sequence[Segment]
    ) -> Optional[List[CriticalCut]]:
        """Flip the net's own colors; None when conflicts persist either way."""
        layers = self._net_layers(segments)
        original = {layer: self.colorings[layer].get(net_id) for layer in layers}
        for layer in layers:
            color = self.colorings[layer].get(net_id, Color.CORE)
            self.colorings[layer][net_id] = color.flipped
        cuts = self._cuts_for_net(net_id)
        if not self.checker.conflicts_with(cuts) and self._colors_feasible(net_id, layers):
            return cuts
        for layer, color in original.items():
            if color is None:
                self.colorings[layer].pop(net_id, None)
            else:
                self.colorings[layer][net_id] = color
        return None

    def _colors_feasible(self, net_id: int, layers: Set[int]) -> bool:
        """The flipped colors must not create hard overlays."""
        for layer in layers:
            cost = self.graphs[layer].net_cost(net_id, self.colorings[layer])
            if cost == float("inf"):
                return False
        return True

    def _undo(
        self,
        net_id: int,
        reason: str,
        cells: Sequence[Tuple[int, Rect]] = (),
    ) -> None:
        """Take back a rejected commit; ``reason`` is the rip-up's cause.

        ``cells`` are the ``(layer, rect)`` fragments that caused the
        violation; they are penalised for the retry.
        """
        ob = obs.get_active()
        if ob is not None:
            ob.registry.counter("ripups_total", reason=reason).inc()
            # The innermost open span is the rejected attempt's commit_net.
            ob.tracer.current().attrs["ripup"] = reason
        self._tear_down(net_id)
        for layer, rect in cells:
            for x in range(rect.xlo, rect.xhi):
                for y in range(rect.ylo, rect.yhi):
                    key = (layer, x, y)
                    self._penalties[key] = (
                        self._penalties.get(key, 0.0)
                        + 2 * self.params.ripup_penalty
                    )

    def _tear_down(self, net_id: int) -> None:
        """Remove a net from the detector, graphs, colorings, grid and
        checker; its pin cells stay reserved for it."""
        self.detector.remove_net(net_id)
        for layer in range(self.grid.num_layers):
            self.graphs[layer].remove_net(net_id)
            self.colorings[layer].pop(net_id, None)
        self.grid.release_net(net_id)
        for layer, p in self._pin_cells.get(net_id, ()):
            self.grid.occupy(layer, p, net_id)
        self.checker.remove_net(net_id)
        self.checker.forget_scenarios(self._scenarios_by_net.get(net_id, ()))
        self._drop_scenarios_of(net_id)

    def _penalise_conflicts(self, conflicts) -> None:
        """Make the conflict regions expensive for the retry.

        The whole track neighbourhood of each cut is penalised: the cut
        straddles the boundary between this net's cell and the other
        pattern's, and rounding to a single cell can land the penalty on
        the *occupied* side where A* never looks.
        """
        for conflict in conflicts:
            for cut in (conflict.first, conflict.second):
                self._penalise_region(
                    cut.layer, cut.rect, 2 * self.params.ripup_penalty
                )

    def _penalise_region(self, layer: int, rect_nm, amount: float) -> None:
        """Penalise every track cell overlapped by an nm rect, plus a halo."""
        pitch = self.grid.rules.pitch
        tx_lo = rect_nm.xlo // pitch - 1
        tx_hi = rect_nm.xhi // pitch + 1
        ty_lo = rect_nm.ylo // pitch - 1
        ty_hi = rect_nm.yhi // pitch + 1
        for tx in range(tx_lo, tx_hi + 1):
            for ty in range(ty_lo, ty_hi + 1):
                key = (layer, tx, ty)
                self._penalties[key] = self._penalties.get(key, 0.0) + amount

    def _drop_scenarios_of(self, net_id: int) -> None:
        scenarios = self._scenarios_by_net.pop(net_id, [])
        for sc in scenarios:
            other = sc.net_b if sc.net_a == net_id else sc.net_a
            bucket = self._scenarios_by_net.get(other)
            if bucket:
                self._scenarios_by_net[other] = [
                    s for s in bucket if net_id not in (s.net_a, s.net_b)
                ]

    # ------------------------------------------------------------------ #
    # Coloring upkeep
    # ------------------------------------------------------------------ #

    def _post_route(self, net_id: int) -> None:
        """Flip colors when the new net's induced overlay is too large."""
        if not self.enable_flipping:
            return
        induced = 0.0
        for layer in range(self.grid.num_layers):
            if net_id in self.graphs[layer]:
                cost = self.graphs[layer].net_cost(net_id, self.colorings[layer])
                if cost != float("inf"):
                    induced += cost
        if induced > self.params.flip_threshold:
            cap = self.params.flip_scope_cap
            flips_before = self._flip_count
            with obs.span("color_flip", net_id=net_id, scope="component") as sp:
                for layer in range(self.grid.num_layers):
                    graph = self.graphs[layer]
                    if net_id not in graph:
                        continue
                    scope = graph.component_of(net_id, cap)
                    if len(scope) > cap:
                        # Late in routing, components merge into one giant
                        # blob; re-running the full DP per net would be
                        # quadratic. Defer huge components to the final
                        # full-layout flipping pass (Fig. 19 line 16); the
                        # walk stopped as soon as it passed the cap.
                        continue
                    stale = self._recolor(layer, flip_colors(graph, scope))
                    self._flip_count += 1
                    obs.counter_inc("color_flips_total", scope="component")
                    self._refresh_cuts(stale)
            if obs.is_enabled():
                sp.attrs["flips"] = self._flip_count - flips_before

    def _rescue_pass(self, result: RoutingResult) -> None:
        """One more attempt for every failed net, with the layout final.

        Nets that failed mid-sequence often fit once their neighbourhood
        has settled (evictions and reroutes free the trap that blocked
        them). A single extra round is cheap and recovers several percent
        of routability on dense instances.
        """
        failed = [nid for nid, route in result.routes.items() if not route.success]
        for net_id in failed:
            retry = self.route_net(self.netlist.by_id(net_id))
            if retry.success:
                result.routes[net_id] = retry
        result.routes.update(self._evicted_routes)
        self._evicted_routes.clear()

    def _repair_round(self, result: RoutingResult, conflicts, shed: bool) -> None:
        """One round of conflict repair: rip up & reroute the offenders.

        The in-flow checks (color veto, own-color flip, rip-up) prevent
        most cut conflicts, but color flipping after later nets arrive can
        re-introduce a type B pattern. Repair restores the paper's
        zero-conflict guarantee: offenders are ripped up and rerouted with
        penalties on the conflict sites; a shedding round leaves them
        unrouted (traded for routability, never for a conflict).
        """
        obs.counter_inc("repair_rounds_total")
        offenders = []
        seen = set()
        for conflict in conflicts:
            candidates = set(conflict.first.nets) | set(conflict.second.nets)
            net_id = max(candidates)  # deterministic choice
            if net_id not in seen:
                seen.add(net_id)
                offenders.append(net_id)
        if not shed:
            self._penalties.clear()
            self._penalise_conflicts(conflicts)
        for net_id in offenders:
            self.rip_up_net(net_id)
            if shed:
                # Out of rerouting rounds: leave the offender unrouted.
                result.routes[net_id] = NetRoute(net_id=net_id)
                continue
            net = self.netlist.by_id(net_id)
            reroute = self.route_net(net, preserve_penalties=True)
            result.routes[net_id] = reroute

    def rip_up_net(self, net_id: int) -> None:
        """Completely remove a committed net (public: used by repair and
        by callers doing incremental ECO-style editing)."""
        with obs.span("rip_up_net", net_id=net_id):
            affected = {
                (sc.net_b if sc.net_a == net_id else sc.net_a)
                for sc in self._scenarios_by_net.get(net_id, ())
            }
            self._tear_down(net_id)
            self._refresh_cuts(affected)

    def _final_flip(self) -> Set[int]:
        """Fig. 19 line 16: full-layout color flipping after routing.

        Returns the nets whose cuts the new colors can have changed (see
        :meth:`_recolor`).
        """
        stale: Set[int] = set()
        if not self.enable_flipping:
            return stale
        with obs.span("color_flip", scope="layout"):
            for layer, graph in enumerate(self.graphs):
                if len(graph):
                    stale.update(self._recolor(layer, flip_colors(graph)))
                    self._flip_count += 1
                    obs.counter_inc("color_flips_total", scope="layout")
        return stale

    def _recolor(self, layer: int, new_colors: Dict[int, Color]) -> List[int]:
        """Apply a flip's colors to ``layer``; return the nets whose cuts
        they can change.

        A net's cuts come from the scenarios it detected (its ``net_a``
        side) and the colors of both nets of each, on the scenario's own
        layer. So the cuts that can change are those of the ``net_a`` of
        every scenario on ``layer`` that has a net this flip re-colored.
        Those owners come back in first-seen order.
        """
        coloring = self.colorings[layer]
        owners: Dict[int, None] = {}
        for net_id, color in new_colors.items():
            if coloring.get(net_id) is color:
                continue
            coloring[net_id] = color
            for sc in self._scenarios_by_net.get(net_id, ()):
                if sc.layer == layer:
                    owners[sc.net_a] = None
        return list(owners)

    # ------------------------------------------------------------------ #
    # Cut bookkeeping
    # ------------------------------------------------------------------ #

    def _cuts_for_net(self, net_id: int) -> List[CriticalCut]:
        """Critical cuts of scenarios *detected by* this net (net_a side)."""
        cuts: List[CriticalCut] = []
        for sc in self._scenarios_by_net.get(net_id, ()):
            if sc.net_a != net_id:
                continue
            ca = self.colorings[sc.layer].get(sc.net_a, Color.CORE)
            cb = self.colorings[sc.layer].get(sc.net_b, Color.CORE)
            cuts.extend(self.checker.critical_cuts(sc, ca, cb))
        return cuts

    def _refresh_cuts(self, nets) -> None:
        """Recompute and re-register the cuts of the committed ``nets``.

        Callers pass every net whose cuts can have changed: the owners
        :meth:`_recolor` names after a flip, and the neighbours of a
        ripped-up net, which lose its scenarios. Every other committed
        net keeps registered cuts equal to what :meth:`_cuts_for_net`
        returns. A refreshed net keeps its place in the checker's
        registration order, which sets ``all_conflicts()``'s order; the
        refresh moves its cuts within the index buckets that
        ``conflicts_with`` reads, but the router uses that result as a
        set (blockers, and penalties of one amount per cell). So which
        nets a refresh touches, and in what order, changes no route.
        """
        for net_id in nets:
            if net_id in self._scenarios_by_net:
                self.checker.replace_net_cuts(net_id, self._cuts_for_net(net_id))

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    def _collect_metrics(self, result: RoutingResult) -> None:
        overlay_units = 0.0
        hard = 0
        for layer, graph in enumerate(self.graphs):
            evaluation = graph.evaluate(self.colorings[layer])
            overlay_units += evaluation.overlay_units
            hard += evaluation.hard_violations
        result.overlay_units = overlay_units
        result.overlay_nm = overlay_units * self.grid.rules.overlay_unit_nm
        result.hard_overlays = hard
        # Type B conflicts surviving in the committed result (expected 0).
        result.cut_conflicts = len(self.checker.all_conflicts())

    @staticmethod
    def _net_layers(segments: Sequence[Segment]) -> Set[int]:
        return {seg.layer for seg in segments}
