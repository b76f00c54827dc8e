"""Parallel batch routing: halo-disjoint scheduling, deterministic commit.

The sequential flow routes nets one at a time in canonical order. But two
nets whose expanded search windows cannot interact are independent: their
attempt-0 searches read disjoint occupancy, produce disjoint writes, and
create no shared overlay scenarios. This module exploits that:

* :class:`BatchScheduler` greedily packs the head of the routing-ordered
  queue into a batch whose *expanded windows* — pin bbox grown by the
  search margins plus an interaction halo covering the spacing rule and
  the distance-2 overlay probe range — are pairwise disjoint;
* each batch member's attempt-0 search is extracted as a picklable
  :class:`~repro.router.astar.SearchSubproblem` (occupancy snapshot of
  its window) and solved on a ``concurrent.futures`` pool;
* results are consumed strictly **in canonical routing order** on the
  main process and fed into the unchanged ``route_net`` rip-up loop as a
  :class:`~repro.router.astar.PrecomputedAttempt` — all commits, OCG
  updates, coloring and conflict checks stay sequential.

Determinism does not rest on the scheduler being right: a result is only
consumed if (a) the worker's window-parity guard held and (b) no grid
cell inside the member's snapshot changed since it was taken (tracked by
:class:`_DirtyTracker`). Any miss falls back to a live sequential route
of that net — discarding a speculative result is always safe — so
``workers=N`` is bit-identical to ``workers=1`` unconditionally; the
halo only tunes the speculation hit rate.
"""

from __future__ import annotations

import concurrent.futures
import queue as queue_mod
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..geometry import Point
from ..grid import CellState
from ..netlist import Net
from .astar import (
    Bounds,
    SearchSubproblem,
    SubproblemResult,
    search_window,
    solve_subproblem,
)
from .cost import CostParams
from .guidance import batched_future_cost_maps
from .overlay_cache import overlay_cost_grid
from .sharding import OVERLAY_PAD, ShardGrid, ShardPlan, assign_streams

_FREE = int(CellState.FREE)

#: ``workers="auto"``: minimum predicted batched-net fraction below which
#: the run stays serial — with most nets routing sequentially anyway, the
#: batching overhead (snapshots, pickling, pool startup) loses to the
#: plain flow (Test1 measures 0.96x at fraction ~0.4).
AUTO_MIN_BATCHED_FRACTION = 0.5


def interaction_halo(rules) -> int:
    """Tracks beyond a net's search windows where another net can matter.

    Two committed patterns interact through (a) the Eq. (5) overlay term,
    which probes up to :data:`OVERLAY_PAD` tracks along the preferred
    direction, and (b) scenario detection / spacing, whose reach is the
    design rules' independence radius ``d_indep_tracks``. The halo is
    their sum, so two nets whose haloed windows are disjoint cannot see
    each other through either mechanism.
    """
    return OVERLAY_PAD + int(getattr(rules, "d_indep_tracks", 3))


def windows_disjoint(a: Bounds, b: Bounds) -> bool:
    return a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2]


class BatchScheduler:
    """Greedy halo-disjoint packer over the routing-ordered net queue.

    ``window(net)`` is the net's *expanded* window: the bbox of all pin
    candidates grown by ``(2 + n_taps) * search_margin`` — the trunk
    window plus the growth each Steiner extension can add — plus the
    interaction halo, clipped to the die. ``pick`` scans a bounded
    lookahead of the queue head and keeps every net whose window is
    disjoint from all windows already picked; the queue head is always
    picked, so consumption order never starves.
    """

    def __init__(
        self,
        params: CostParams,
        rules,
        width: int,
        height: int,
        max_batch: int,
        lookahead: int,
    ) -> None:
        self.params = params
        self.width = width
        self.height = height
        self.halo = interaction_halo(rules)
        self.max_batch = max(1, max_batch)
        self.lookahead = max(self.max_batch, lookahead)
        #: Cumulative scan statistics across every :meth:`pick` — queue
        #: positions examined and halo-conflict rejections. The parallel
        #: decision trace reads these to explain batch density.
        self.candidates_scanned = 0
        self.halo_rejects = 0

    def window(self, net: Net) -> Bounds:
        pins = (net.source, net.target, *net.taps)
        pts = [p for pin in pins for p in pin.candidates]
        # Attempt-0 searches use the base search_margin (no rip-up growth
        # yet); each Steiner tap extension can push the tree one more
        # margin outward. The halo on top covers everything a *neighbour*
        # can reach into: its own margin is inside its own window, so the
        # overlay-probe + independence-radius halo is all that remains.
        margin = (1 + len(net.taps)) * self.params.search_margin + self.halo
        return search_window(pts, margin, self.width, self.height)

    def pick(self, queue: Sequence[Net]) -> List[Tuple[Net, Bounds]]:
        picked: List[Tuple[Net, Bounds]] = []
        windows: List[Bounds] = []
        for i in range(min(len(queue), self.lookahead)):
            net = queue[i]
            win = self.window(net)
            self.candidates_scanned += 1
            if i == 0 or all(windows_disjoint(win, other) for other in windows):
                picked.append((net, win))
                windows.append(win)
                if len(picked) >= self.max_batch:
                    break
            else:
                self.halo_rejects += 1
        return picked


@dataclass
class BatchPlan:
    """Dry-run scheduling prediction — the evidence behind the
    ``workers="auto"`` serial-vs-parallel call.

    Beyond the headline :attr:`batched_fraction`, the plan keeps the
    scan-level detail (batches formed, singletons, halo-conflict
    rejections, queue positions examined) so the decision trace can say
    *why* a workload stayed serial, not just that it did.
    """

    nets: int = 0
    multi_net_batches: int = 0
    batched_nets: int = 0
    singleton_nets: int = 0
    candidates_scanned: int = 0
    halo_rejects: int = 0

    @property
    def batched_fraction(self) -> float:
        return self.batched_nets / self.nets if self.nets else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "nets": self.nets,
            "multi_net_batches": self.multi_net_batches,
            "batched_nets": self.batched_nets,
            "singleton_nets": self.singleton_nets,
            "candidates_scanned": self.candidates_scanned,
            "halo_rejects": self.halo_rejects,
            "predicted_batched_fraction": round(self.batched_fraction, 3),
        }


def predict_batch_plan(
    scheduler: BatchScheduler, ordered: Sequence[Net]
) -> BatchPlan:
    """Dry-run the scheduler over the ordered queue; returns the plan.

    The exact pick/consume loop of :meth:`ParallelRouter.route` (without
    routing anything): windows only depend on pin candidates, so the
    prediction costs a few window computations per net. It ignores
    staleness fallbacks — those nets still ran in a batch — so it predicts
    scheduling density, the term that decides whether batching can pay.
    """
    plan = BatchPlan(nets=len(ordered))
    if not ordered:
        return plan
    scan0 = scheduler.candidates_scanned
    rej0 = scheduler.halo_rejects
    queue: Deque[Net] = deque(ordered)
    while queue:
        picked = scheduler.pick(queue)
        if len(picked) < 2:
            queue.popleft()
            plan.singleton_nets += 1
            continue
        plan.multi_net_batches += 1
        plan.batched_nets += len(picked)
        ids = {net.net_id for net, _ in picked}
        while ids:
            ids.discard(queue.popleft().net_id)
    plan.candidates_scanned = scheduler.candidates_scanned - scan0
    plan.halo_rejects = scheduler.halo_rejects - rej0
    return plan


def predict_batched_fraction(
    scheduler: BatchScheduler, ordered: Sequence[Net]
) -> float:
    """Fraction of nets the scheduler would place into >=2-net batches."""
    return predict_batch_plan(scheduler, ordered).batched_fraction


class _DirtyTracker:
    """Grid change listener: which (x, y) columns changed since ``clear``.

    Layer-agnostic on purpose — a snapshot covers all layers of its
    window, so any write in the window's footprint invalidates it.
    ``block()`` arrives as a reset and poisons every snapshot.
    """

    def __init__(self) -> None:
        self.cells: Set[Tuple[int, int]] = set()
        self.reset = False

    def on_cells_changed(self, cells: Iterable[Tuple[int, int, int]]) -> None:
        add = self.cells.add
        for _, x, y in cells:
            add((x, y))

    def on_grid_reset(self) -> None:
        self.reset = True

    def clear(self) -> None:
        self.cells.clear()
        self.reset = False

    def window_dirty(self, bounds: Bounds) -> bool:
        if self.reset:
            return True
        xlo, xhi, ylo, yhi = bounds
        for x, y in self.cells:
            if xlo <= x <= xhi and ylo <= y <= yhi:
                return True
        return False


class _SerialExecutor:
    """Inline ``concurrent.futures``-shaped executor (debugging aid)."""

    def submit(self, fn, *args, **kwargs) -> "concurrent.futures.Future":
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # pragma: no cover - defensive
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, **kwargs) -> None:
        return None


def make_executor(kind: str, workers: int):
    """``"process"`` (default: the engine is pure Python and GIL-bound),
    ``"thread"`` (cheap startup; useful for tests) or ``"serial"``."""
    if kind == "process":
        return concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    if kind == "thread":
        return concurrent.futures.ThreadPoolExecutor(max_workers=workers)
    if kind == "serial":
        return _SerialExecutor()
    raise ValueError(f"unknown executor kind: {kind!r}")


@dataclass
class ParallelStats:
    """What the parallel engine did — exported into ``BENCH_perf.json``.

    One stats object serves all three execution modes: ``"batch"``
    (PR-3 halo-disjoint batches), ``"sharded"`` (region shards on the
    persistent pool) and ``"serial"`` (the auto decision declined both).
    """

    workers: int = 0
    executor: str = ""
    mode: str = "batch"
    batches: int = 0
    batched_nets: int = 0
    sequential_nets: int = 0
    hits: int = 0
    fallbacks: int = 0
    fallback_reasons: Dict[str, int] = field(default_factory=dict)
    #: ``workers="auto"`` outcome: "" (explicit workers), "serial",
    #: "parallel" (batch) or "sharded", plus the predicted fractions the
    #: decision weighed (-1 = that predictor was not consulted).
    auto_decision: str = ""
    predicted_batched_fraction: float = -1.0
    predicted_interior_fraction: float = -1.0
    #: Live scheduler scan totals (queue positions examined and
    #: halo-conflict rejections across every pick of the run).
    candidates_scanned: int = 0
    halo_rejects: int = 0
    #: Sharded mode: the plan geometry, net classification counts, and
    #: how many accepted nets were actually computed in worker processes
    #: (the "off the main process" figure the bench gates on).
    shard_plan: Dict[str, object] = field(default_factory=dict)
    interior_nets: int = 0
    boundary_nets: int = 0
    off_process_nets: int = 0
    #: Results computed per pool worker (all outcomes, accepted or not).
    pool_utilization: Dict[str, int] = field(default_factory=dict)
    #: Structured serial-vs-parallel rationale (the ``parallel_decision``
    #: trace event's attributes); empty for explicit worker counts.
    decision_trace: Dict[str, object] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        return self.batched_nets / self.batches if self.batches else 0.0

    @property
    def off_process_fraction(self) -> float:
        total = self.hits + self.fallbacks + self.sequential_nets
        return self.off_process_nets / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "workers": self.workers,
            "executor": self.executor,
            "mode": self.mode,
            "batches": self.batches,
            "batched_nets": self.batched_nets,
            "sequential_nets": self.sequential_nets,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "hits": self.hits,
            "fallbacks": self.fallbacks,
            "fallback_reasons": dict(self.fallback_reasons),
            "candidates_scanned": self.candidates_scanned,
            "halo_rejects": self.halo_rejects,
        }
        if self.mode == "sharded":
            payload["shard_plan"] = dict(self.shard_plan)
            payload["interior_nets"] = self.interior_nets
            payload["boundary_nets"] = self.boundary_nets
            payload["off_process_nets"] = self.off_process_nets
            payload["off_process_fraction"] = round(self.off_process_fraction, 3)
            payload["pool_utilization"] = dict(self.pool_utilization)
        if self.auto_decision:
            payload["auto_decision"] = self.auto_decision
            if self.predicted_batched_fraction >= 0.0:
                payload["predicted_batched_fraction"] = round(
                    self.predicted_batched_fraction, 3
                )
            if self.predicted_interior_fraction >= 0.0:
                payload["predicted_interior_fraction"] = round(
                    self.predicted_interior_fraction, 3
                )
        if self.decision_trace:
            payload["decision_trace"] = dict(self.decision_trace)
        return payload


def emit_decision_event(trace: Dict[str, object]) -> None:
    """Record the serial-vs-parallel rationale as telemetry.

    Emits a zero-work ``parallel_decision`` span whose attributes carry
    the structured rationale (decision, predicted fraction, threshold,
    scan counts, reason) plus a ``parallel_decision_total`` counter
    labelled by the decision — so both the run log and the metrics
    registry can answer "why did this run (not) engage the pool?".
    No-op when the trace is empty or observability is off.
    """
    if not trace or not obs.is_enabled():
        return
    decision = str(trace.get("decision", ""))
    with obs.span("parallel_decision", **trace):
        pass
    obs.counter_inc("parallel_decision_total", decision=decision or "explicit")


class ParallelRouter:
    """Drives one routing pass of a :class:`SadpRouter` with batching.

    Owns the executor, the scheduler and the dirty tracker; delegates
    every commit-side decision to the router's own ``route_net``.
    """

    def __init__(
        self,
        router,
        workers: int,
        executor: str = "process",
        max_batch: Optional[int] = None,
        lookahead: Optional[int] = None,
        share_overlay_grids: Optional[bool] = None,
    ) -> None:
        self.router = router
        self.workers = max(1, int(workers))
        self.executor_kind = executor
        self.max_batch = max_batch or max(2 * self.workers, 2)
        self.lookahead = lookahead or max(8 * self.workers, 16)
        if share_overlay_grids is None:
            # Shipping grids to processes costs pickling; threads share
            # memory, so exporting from the main-process cache is free.
            share_overlay_grids = executor != "process"
        self.share_overlay_grids = share_overlay_grids
        self.scheduler = BatchScheduler(
            router.params,
            router.grid.rules,
            router.grid.width,
            router.grid.height,
            self.max_batch,
            self.lookahead,
        )
        self.stats = ParallelStats(workers=self.workers, executor=executor)

    # ------------------------------------------------------------------ #

    def route(self, ordered: Sequence[Net], result) -> None:
        """Route ``ordered`` into ``result.routes``, in canonical order."""
        router = self.router
        emit_decision_event(self.stats.decision_trace)
        queue: Deque[Net] = deque(ordered)
        tracker = _DirtyTracker()
        router.grid.add_change_listener(tracker)
        pool = make_executor(self.executor_kind, self.workers)
        degraded = False
        scan0 = self.scheduler.candidates_scanned
        rej0 = self.scheduler.halo_rejects
        try:
            while queue:
                picked = [] if degraded else self.scheduler.pick(queue)
                if len(picked) < 2:
                    net = queue.popleft()
                    self.stats.sequential_nets += 1
                    result.routes[net.net_id] = router.route_net(net)
                    continue
                tracker.clear()
                futures = {}
                windows = {}
                subs = [(net, win, self._build_subproblem(net, win))
                        for net, win in picked]
                if router.engine.guidance == "on":
                    # Every trunk search will activate guidance up front
                    # (trigger 0), so their maps can be solved as one
                    # batched CSR call here instead of one per worker.
                    self._attach_guidance_premaps([s for _, _, s in subs])
                for net, win, sub in subs:
                    futures[net.net_id] = pool.submit(solve_subproblem, sub)
                    windows[net.net_id] = win
                self.stats.batches += 1
                self.stats.batched_nets += len(picked)
                obs.counter_inc("parallel_batches_total")
                obs.counter_inc("parallel_batched_nets_total", len(picked))
                with obs.span("parallel_batch", size=len(picked)):
                    while futures:
                        net = queue.popleft()
                        future = futures.pop(net.net_id, None)
                        if future is None:
                            # Skipped (window overlap): route live, in order.
                            self.stats.sequential_nets += 1
                            result.routes[net.net_id] = router.route_net(net)
                            continue
                        try:
                            res = future.result()
                        except Exception:
                            self._fallback(net, result, "error")
                            degraded = True
                            continue
                        if res.outcome == "window_exceeded":
                            self._fallback(net, result, "window_exceeded")
                        elif tracker.window_dirty(windows[net.net_id]):
                            self._fallback(net, result, "stale")
                        else:
                            self._accept(net, res, result)
        finally:
            router.grid.remove_change_listener(tracker)
            pool.shutdown(wait=False, cancel_futures=True)
            self.stats.candidates_scanned = (
                self.scheduler.candidates_scanned - scan0
            )
            self.stats.halo_rejects = self.scheduler.halo_rejects - rej0
            obs.counter_inc(
                "parallel_candidates_scanned_total", self.stats.candidates_scanned
            )
            obs.counter_inc("parallel_halo_rejects_total", self.stats.halo_rejects)

    # ------------------------------------------------------------------ #

    def _build_subproblem(self, net: Net, win: Bounds) -> SearchSubproblem:
        router = self.router
        engine = router.engine
        sources = [(net.source.layer, p) for p in net.source.candidates]
        targets = [(net.target.layer, p) for p in net.target.candidates]
        overlay_grid = None
        overlay_bounds = None
        if self.share_overlay_grids and router.overlay_cache is not None:
            pts = [p for _, p in sources] + [p for _, p in targets]
            overlay_bounds = search_window(
                pts,
                router.params.search_margin,
                router.grid.width,
                router.grid.height,
            )
            overlay_grid = router.overlay_cache.export_for(
                net.net_id, overlay_bounds
            )
        return SearchSubproblem(
            net_id=net.net_id,
            sources=sources,
            targets=targets,
            taps=[(tap.layer, tuple(tap.candidates)) for tap in net.taps],
            bounds=win,
            occ=router.grid.snapshot_window(win),
            die_width=router.grid.width,
            die_height=router.grid.height,
            horizontal=list(engine._horizontal),
            params=router.params,
            overlay_terms=engine._overlay_terms,
            use_reference=bool(engine.use_reference),
            overlay_grid=overlay_grid,
            overlay_bounds=overlay_bounds,
            guidance=engine.guidance,
            guidance_trigger=engine.guidance_trigger,
            kernel=engine.kernel,
        )

    def _attach_guidance_premaps(self, subs: List[SearchSubproblem]) -> None:
        """Batch the batch's trunk guidance builds into one CSR solve.

        With ``guidance="on"`` every worker's trunk search activates its
        map before the first pop, so the maps are known work at batch
        formation time. This replicates each worker's activation inputs
        exactly — window, target filter, folded cost grid, premap key —
        off the frozen snapshots (``solve_subproblem`` never mutates
        them), solves all maps in one block-diagonal
        :func:`~repro.router.guidance.batched_future_cost_maps` call,
        and ships each map with its subproblem. Consumption increments
        the *worker* engine's build counter, so folded totals still
        equal a sequential run's; a key mismatch (or an unused premap
        after a window-guard abort) just means wasted speculative work,
        never a wrong result. Sharded streams do not get premaps: their
        workers mutate private tile snapshots between chained nets, so
        occupancy at activation time is not knowable here.
        """
        items = []
        slots = []  # (sub, key, local_window) per batched item
        for sub in subs:
            ox, oy = sub.bounds[0], sub.bounds[2]
            num_layers, view_w, view_h = sub.occ.shape
            margin = sub.params.search_margin
            local_pts = [
                Point(p.x - ox, p.y - oy)
                for p in ([p for _, p in sub.sources] + [p for _, p in sub.targets])
            ]
            xlo, xhi, ylo, yhi = search_window(
                local_pts, margin, view_w, view_h
            )
            wx = xhi - xlo + 1
            wy = yhi - ylo + 1
            if wx < 2 or wy < 2:
                continue  # degenerate: the worker stays unguided too
            layer_stride = wx * wy
            is_target = np.zeros(num_layers * layer_stride, dtype=np.uint8)
            any_target = False
            for layer, p in sub.targets:
                tx, ty = p.x - ox, p.y - oy
                if not (0 <= layer < num_layers and 0 <= tx < view_w and 0 <= ty < view_h):
                    continue
                if sub.occ[layer, tx, ty] not in (_FREE, sub.net_id):
                    continue
                is_target[layer * layer_stride + (tx - xlo) * wy + (ty - ylo)] = 1
                any_target = True
            if not any_target:
                continue  # the worker search returns None before activating
            occ_win = sub.occ[:, xlo : xhi + 1, ylo : yhi + 1]
            passable = (occ_win == _FREE) | (occ_win == sub.net_id)
            if sub.overlay_terms is not None:
                local_ob = None
                if sub.overlay_bounds is not None:
                    obx = sub.overlay_bounds
                    local_ob = (obx[0] - ox, obx[1] - ox, obx[2] - oy, obx[3] - oy)
                if sub.overlay_grid is not None and (xlo, xhi, ylo, yhi) == local_ob:
                    cost_np = sub.overlay_grid
                else:
                    gamma, delta_tip = sub.overlay_terms
                    cost_np = overlay_cost_grid(
                        sub.occ,
                        sub.horizontal,
                        (xlo, xhi, ylo, yhi),
                        sub.net_id,
                        gamma,
                        delta_tip,
                    )
                carr = np.array(cost_np, dtype=np.float64)
            else:
                carr = np.zeros((num_layers, wx, wy), dtype=np.float64)
            # Worker engines carry no penalty_map and the default "auto"
            # guidance backend — both enter the premap key.
            key = ((xlo, xhi, ylo, yhi), bytes(is_target), None, "auto")
            tmask = is_target.reshape(num_layers, wx, wy).astype(bool)
            items.append((passable, carr, tmask))
            slots.append((sub, key))
        if not items:
            return
        params = self.router.params
        maps = batched_future_cost_maps(
            items,
            self.router.engine._horizontal,
            params.alpha,
            params.beta,
            params.wrong_way_factor,
        )
        for (sub, key), dmap in zip(slots, maps):
            if dmap is not None:
                sub.guidance_premap = (key, dmap.ravel())

    def _accept(self, net: Net, res: SubproblemResult, result) -> None:
        router = self.router
        self.stats.hits += 1
        obs.counter_inc("parallel_hits_total", outcome=res.outcome)
        # The worker's searches stand in for the live attempt-0 searches:
        # fold its counters in so totals match a sequential run exactly.
        router.engine.total_searches += res.engine_searches
        router.engine.total_expansions += res.engine_expansions
        router.engine.total_guided_searches += res.engine_guided_searches
        router.engine.total_guidance_builds += res.engine_guidance_builds
        self._fold_obs_digest(net, res)
        result.routes[net.net_id] = router.route_net(
            net, precomputed=res.to_precomputed()
        )

    def _fold_obs_digest(self, net: Net, res: SubproblemResult) -> None:
        """Merge the worker's telemetry digest into the parent backend.

        Process-pool workers run with their own (discarded) copy of the
        observability backend, so their spans and counters are shipped
        back as a picklable digest and replayed here — under the live
        ``parallel_batch`` span — so span counts and counter totals match
        a sequential run. Thread/serial executors share the parent's
        backend and already recorded live: folding would double-count.
        """
        if self.executor_kind != "process" or res.obs_digest is None:
            return
        ob = obs.get_active()
        if ob is None:
            return
        for name, count, total_s in res.obs_digest.get("spans", ()):
            if count:
                ob.tracer.record_external(
                    name, total_s, count=count, net_id=net.net_id
                )
        for name, labels, amount in res.obs_digest.get("counters", ()):
            if amount:
                ob.registry.counter(name, **dict(labels)).inc(amount)

    def _fallback(self, net: Net, result, reason: str) -> None:
        self.stats.fallbacks += 1
        self.stats.fallback_reasons[reason] = (
            self.stats.fallback_reasons.get(reason, 0) + 1
        )
        obs.counter_inc("parallel_fallbacks_total", reason=reason)
        result.routes[net.net_id] = self.router.route_net(net)


# ---------------------------------------------------------------------- #
# Region-sharded routing (the active decomposition; see repro.router.sharding)
# ---------------------------------------------------------------------- #


class _ShardDirtyTracker:
    """Full-cell grid change listener, bucketed by shard tile.

    Chain validation needs *cell-level* dirt (a worker's chain assumed
    specific cells, not whole columns) and per-net lookups must not scan
    every commit of the run — so changed ``(layer, x, y)`` cells are
    bucketed by the tile that contains them. A net's read window lies
    inside a single tile by construction, so validation scans exactly
    one bucket: the boundary paths and unclean writes that landed in
    that tile, typically a few hundred cells.
    """

    def __init__(self, grid: ShardGrid) -> None:
        self._grid = grid
        self.buckets: Dict[int, Set[Tuple[int, int, int]]] = {}
        self.reset = False

    def on_cells_changed(self, cells: Iterable[Tuple[int, int, int]]) -> None:
        shard_of = self._grid.shard_of
        buckets = self.buckets
        for cell in cells:
            sid = shard_of(cell[1], cell[2])
            bucket = buckets.get(sid)
            if bucket is None:
                bucket = buckets[sid] = set()
            bucket.add(cell)

    def on_grid_reset(self) -> None:
        self.reset = True


class ShardedRouter:
    """Drives one routing pass with region shards on a persistent pool.

    Setup: publish the occupancy snapshot to shared memory, split the
    plan's shards round-robin over workers, and submit each worker one
    :class:`~repro.router.pool.ShardStreamTask` — its shards' interior
    nets merged in canonical order. Workers chain-solve their streams
    against private tile snapshots while the main process consumes nets
    strictly in canonical order: boundary nets route live (the
    sequential reconciliation pass), interior nets await their worker
    result.

    A result for net *i* (read window ``W``, shard ``s``) is accepted
    only when the worker's view of ``W`` provably matches the live grid:

    * every cell of ``W`` that changed since the snapshot (tracked by
      :class:`_ShardDirtyTracker`) was written by a *cleanly accepted*
      chain predecessor of ``s`` — a net whose speculative path was
      committed verbatim (success, zero rip-ups, no eviction), so the
      worker's local application of it equals the live commit; and
    * no *unclean* chain predecessor (one whose speculative path was
      rejected, or accepted but then re-routed by the rip-up loop)
      assumed cells inside ``W`` — the worker baked a path into its tile
      that the live grid does not hold.

    Anything else falls back to a live sequential route of that net —
    discarding speculation is always safe — so committed results are
    bit-identical to ``workers=1`` for every worker count, pool kind and
    timing. Engine counters and obs digests of accepted results are
    folded exactly like the batch router's.
    """

    #: Seconds of pool silence tolerated before a liveness check; after
    #: :data:`STALL_LIMIT_S` of total silence the pass degrades to live
    #: routing for every net still owed a result.
    POLL_TIMEOUT_S = 1.0
    STALL_LIMIT_S = 600.0

    def __init__(
        self,
        router,
        workers: int,
        plan: ShardPlan,
        executor: str = "process",
    ) -> None:
        if plan.grid is None:
            raise ValueError("sharded routing needs a plan with a shard grid")
        self.router = router
        self.workers = max(1, int(workers))
        self.plan = plan
        self.pool_kind = "process" if executor == "process" else "inline"
        self.stats = ParallelStats(
            workers=self.workers,
            executor=f"shard-{self.pool_kind}",
            mode="sharded",
            shard_plan=plan.to_dict(),
            interior_nets=plan.interior_nets,
            boundary_nets=plan.boundary_nets,
        )
        # Consumption-side state, (re)built per route() call.
        self._buffered: Dict[int, SubproblemResult] = {}
        self._received: Set[int] = set()
        self._dead_nets: Set[int] = set()
        self._dead_seen: Set[int] = set()
        self._net_worker: Dict[int, int] = {}
        self._stream_nets: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------ #

    def route(self, ordered: Sequence[Net], result) -> None:
        """Route ``ordered`` into ``result.routes``, in canonical order."""
        from .pool import (
            InlineShardPool,
            ShardNetSpec,
            ShardStreamTask,
            SharedOccupancy,
            WorkerPool,
        )

        router = self.router
        plan = self.plan
        emit_decision_event(self.stats.decision_trace)
        order_index = {net.net_id: i for i, net in enumerate(ordered)}
        interior: Dict[int, Tuple[int, Bounds]] = {}
        for sid, members in plan.interior.items():
            for net, win in members:
                interior[net.net_id] = (sid, win)

        tracker = _ShardDirtyTracker(plan.grid)
        shared = SharedOccupancy(router.grid)
        pool = (
            WorkerPool(self.workers)
            if self.pool_kind == "process"
            else InlineShardPool(self.workers)
        )
        clean: Dict[int, Set[Tuple[int, int, int]]] = {}
        unclean: Dict[int, Set[Tuple[int, int, int]]] = {}
        try:
            desc = shared.descriptor()
            engine = router.engine
            streams = assign_streams(plan, self.workers)
            for wi, sids in enumerate(streams):
                specs = [
                    ShardNetSpec(
                        net_id=net.net_id,
                        shard_id=sid,
                        sources=[
                            (net.source.layer, p) for p in net.source.candidates
                        ],
                        targets=[
                            (net.target.layer, p) for p in net.target.candidates
                        ],
                    )
                    for sid in sids
                    for net, _ in plan.interior[sid]
                ]
                specs.sort(key=lambda spec: order_index[spec.net_id])
                for spec in specs:
                    self._net_worker[spec.net_id] = wi
                self._stream_nets[wi] = [spec.net_id for spec in specs]
                pool.submit(
                    wi,
                    ShardStreamTask(
                        descriptor=desc,
                        tiles={
                            sid: plan.grid.tile_bounds(sid) for sid in sids
                        },
                        nets=specs,
                        die_width=router.grid.width,
                        die_height=router.grid.height,
                        horizontal=list(engine._horizontal),
                        params=router.params,
                        overlay_terms=engine._overlay_terms,
                        use_reference=bool(engine.use_reference),
                        guidance=engine.guidance,
                        guidance_trigger=engine.guidance_trigger,
                        kernel=engine.kernel,
                    ),
                )
            obs.counter_inc("shard_streams_total", len(streams))
            # Listen from here on: the snapshot is already published and
            # nothing routed yet, so "dirty" means "changed since the
            # workers' view" exactly.
            router.grid.add_change_listener(tracker)
            for net in ordered:
                entry = interior.get(net.net_id)
                if entry is None:
                    self.stats.sequential_nets += 1
                    result.routes[net.net_id] = router.route_net(net)
                    continue
                sid, win = entry
                res = self._await(net.net_id, pool)
                if res is None:
                    self._fallback(net, result, "worker_died")
                    continue
                if res.outcome in ("window_exceeded", "stale_generation", "error"):
                    # The worker applied nothing for these outcomes, so
                    # the shard's chain state is unaffected.
                    self._fallback(net, result, res.outcome)
                    continue
                if not self._region_clean(sid, win, tracker, clean, unclean):
                    self._fallback(net, result, "chain_broken")
                    if res.outcome == "found":
                        unclean.setdefault(sid, set()).update(res.nodes)
                    continue
                self._accept(net, sid, res, result, clean, unclean)
        finally:
            try:
                router.grid.remove_change_listener(tracker)
            except Exception:
                pass
            pool.close()
            shared.close()
            for wi, count in sorted(self.stats.pool_utilization.items()):
                obs.counter_inc(
                    "shard_pool_results_total", count, worker=str(wi)
                )

    # ------------------------------------------------------------------ #

    def _await(self, net_id: int, pool) -> Optional[SubproblemResult]:
        """Drain the result queue until ``net_id`` arrives (or its worker
        dies); other nets' results are buffered for their turn."""
        if net_id in self._buffered:
            return self._buffered.pop(net_id)
        idle_s = 0.0
        while True:
            if net_id in self._dead_nets:
                return None
            try:
                msg = pool.get(timeout=self.POLL_TIMEOUT_S)
            except queue_mod.Empty:
                idle_s += self.POLL_TIMEOUT_S
                for wi in pool.dead_workers():
                    if wi in self._dead_seen:
                        continue
                    self._dead_seen.add(wi)
                    self._dead_nets.update(
                        nid
                        for nid in self._stream_nets.get(wi, ())
                        if nid not in self._received
                    )
                if idle_s >= self.STALL_LIMIT_S:
                    # Total stall: give up on everything still owed.
                    for nets in self._stream_nets.values():
                        self._dead_nets.update(
                            nid for nid in nets if nid not in self._received
                        )
                continue
            idle_s = 0.0
            if not hasattr(msg, "result"):  # StreamDone
                continue
            res = msg.result
            if res.net_id in self._received:
                continue
            self._received.add(res.net_id)
            wi = self._net_worker.get(res.net_id, -1)
            key = str(wi)
            self.stats.pool_utilization[key] = (
                self.stats.pool_utilization.get(key, 0) + 1
            )
            if res.net_id == net_id:
                return res
            self._buffered[res.net_id] = res

    def _region_clean(
        self,
        sid: int,
        win: Bounds,
        tracker: _ShardDirtyTracker,
        clean: Dict[int, Set[Tuple[int, int, int]]],
        unclean: Dict[int, Set[Tuple[int, int, int]]],
    ) -> bool:
        """Does the worker's view of ``win`` match the live grid?"""
        if tracker.reset:
            return False
        xlo, xhi, ylo, yhi = win
        known = clean.get(sid, ())
        for cell in tracker.buckets.get(sid, ()):
            if xlo <= cell[1] <= xhi and ylo <= cell[2] <= yhi:
                if cell not in known:
                    return False
        for cell in unclean.get(sid, ()):
            if xlo <= cell[1] <= xhi and ylo <= cell[2] <= yhi:
                return False
        return True

    def _accept(
        self,
        net: Net,
        sid: int,
        res: SubproblemResult,
        result,
        clean: Dict[int, Set[Tuple[int, int, int]]],
        unclean: Dict[int, Set[Tuple[int, int, int]]],
    ) -> None:
        router = self.router
        self.stats.hits += 1
        if self.pool_kind == "process":
            self.stats.off_process_nets += 1
        obs.counter_inc("parallel_hits_total", outcome=res.outcome)
        router.engine.total_searches += res.engine_searches
        router.engine.total_expansions += res.engine_expansions
        router.engine.total_guided_searches += res.engine_guided_searches
        router.engine.total_guidance_builds += res.engine_guidance_builds
        self._fold_obs_digest(net, res)
        evictions_before = len(router._evicted_routes)
        route = router.route_net(net, precomputed=res.to_precomputed())
        result.routes[net.net_id] = route
        if res.outcome == "found":
            # Clean = the speculative path was committed verbatim, so the
            # worker's local application of it matches the live grid.
            committed_verbatim = (
                route.success
                and route.ripups == 0
                and len(router._evicted_routes) == evictions_before
            )
            target = clean if committed_verbatim else unclean
            target.setdefault(sid, set()).update(res.nodes)

    def _fold_obs_digest(self, net: Net, res: SubproblemResult) -> None:
        """Same contract as :meth:`ParallelRouter._fold_obs_digest`:
        process-pool digests are replayed, inline pools recorded live."""
        if self.pool_kind != "process" or res.obs_digest is None:
            return
        ob = obs.get_active()
        if ob is None:
            return
        for name, count, total_s in res.obs_digest.get("spans", ()):
            if count:
                ob.tracer.record_external(
                    name, total_s, count=count, net_id=net.net_id
                )
        for name, labels, amount in res.obs_digest.get("counters", ()):
            if amount:
                ob.registry.counter(name, **dict(labels)).inc(amount)

    def _fallback(self, net: Net, result, reason: str) -> None:
        self.stats.fallbacks += 1
        self.stats.fallback_reasons[reason] = (
            self.stats.fallback_reasons.get(reason, 0) + 1
        )
        obs.counter_inc("parallel_fallbacks_total", reason=reason)
        result.routes[net.net_id] = self.router.route_net(net)
