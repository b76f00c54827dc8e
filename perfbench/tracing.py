"""Self-time tracing of the router's layers, installed from outside ``src/``.

:class:`SelfTimer` replaces public functions and methods with wrappers that
time each call. A call's *self time* is its duration minus the time spent in
nested wrapped calls, so the self times of all wrapped layers inside one
``SadpRouter.route_all`` add up to that call's duration: ``route_all``'s own
self time is the remainder nothing else claims.

Nesting is tracked per thread, so the service workload (an inline worker
thread, the HTTP thread and two client threads) is attributed correctly.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

CountFn = Callable[["SelfTimer", tuple, dict, Any], None]


class SelfTimer:
    """Accumulates per-layer self time, call counts and extra counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[counter] += amount

    def wrap(self, owner: Any, attr: str, name: str, count: Optional[CountFn] = None) -> None:
        """Replace ``owner.attr`` by a timing wrapper recorded as ``name``."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with tracer._lock:
                    tracer.self_s[name] += dt - frame[0]
                    tracer.total_s[name] += dt
                    tracer.calls[name] += 1
            if count is not None:
                count(tracer, args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, original, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


def _count_route_all(tracer: SelfTimer, args, kwargs, out) -> None:
    engine = args[0].engine
    tracer.add("astar.searches", engine.total_searches)
    tracer.add("astar.expansions", engine.total_expansions)
    tracer.add("astar.guided_searches", engine.total_guided_searches)
    tracer.add("sadp_router.ripups", out.total_ripups)
    tracer.add("sadp_router.color_flips", out.color_flips)


def _count_search(tracer: SelfTimer, args, kwargs, out) -> None:
    if out is None:
        tracer.add("astar.failed")


def _count_scenarios(tracer: SelfTimer, args, kwargs, out) -> None:
    tracer.add("scenario_detect.scenarios", len(out))


def _count_offenders(tracer: SelfTimer, args, kwargs, out) -> None:
    if out:
        tracer.add("ocg.rejects")


def _count_conflicts(tracer: SelfTimer, args, kwargs, out) -> None:
    if out:
        tracer.add("cut_conflict.hits")


def _count_flip(tracer: SelfTimer, args, kwargs, out) -> None:
    graph = args[0]
    scope = args[1] if len(args) > 1 else kwargs.get("scope")
    tracer.add("flip.nets", len(scope) if scope is not None else len(graph.vertices))


def _count_cells(tracer: SelfTimer, args, kwargs, out) -> None:
    cells = args[1]
    tracer.add("grid.cells_written", len(cells))


def _count_register(tracer: SelfTimer, args, kwargs, out) -> None:
    tracer.add("sadp_router.commits_accepted")


def _count_publish(tracer: SelfTimer, args, kwargs, out) -> None:
    nbytes, published = out
    if published:
        tracer.add("store.bytes_written", nbytes)


def install_layers(tracer: SelfTimer) -> None:
    """Wrap every layer the benchmark reports, by module-derived name."""
    from repro import decompose, obs
    from repro.core import CutConflictChecker, SoAOverlayConstraintGraph, VectorScenarioDetector
    from repro.grid import RoutingGrid
    from repro.pipeline import ArtifactStore, stages
    from repro.router import sadp_router
    from repro.router.astar import AStarRouter
    from repro.router.overlay_cache import OverlayCostCache

    wrap = tracer.wrap
    wrap(sadp_router.SadpRouter, "route_all", "sadp_router.route_all", _count_route_all)
    wrap(AStarRouter, "search", "astar.search", _count_search)
    wrap(OverlayCostCache, "grid_for", "overlay_cache.grid_for")
    for attr in ("on_cells_changed", "on_grid_reset", "invalidate_net"):
        wrap(OverlayCostCache, attr, "overlay_cache.invalidate")
    wrap(VectorScenarioDetector, "add_net", "scenario_detect.add_net", _count_scenarios)
    wrap(SoAOverlayConstraintGraph, "add_scenarios", "ocg.add_scenarios", _count_offenders)
    wrap(SoAOverlayConstraintGraph, "remove_net", "ocg.remove_net")
    wrap(CutConflictChecker, "conflicts_with", "cut_conflict.conflicts_with", _count_conflicts)
    wrap(CutConflictChecker, "register_net", "cut_conflict.register_net", _count_register)
    wrap(sadp_router, "flip_colors", "flip.flip_colors", _count_flip)
    wrap(sadp_router, "pseudo_color", "flip.pseudo_color")
    wrap(RoutingGrid, "occupy_many", "grid.occupy_many", _count_cells)
    wrap(RoutingGrid, "release_net", "grid.release_net")
    for stage in stages.default_stages():
        wrap(type(stage), "run", f"pipeline.stage.{stage.name}")
    wrap(ArtifactStore, "publish", "store.publish", _count_publish)
    wrap(ArtifactStore, "load", "store.load")
    wrap(decompose, "synthesize_masks", "decompose.synthesize_masks")
    wrap(decompose, "verify_decomposition", "decompose.verify")
    # Fold the obs phase totals of every observability session that ends
    # while tracing (the service opens one per job) into the cross-check.
    from repro.obs.export import phase_totals

    original_session = obs.session

    @contextmanager
    def session(*args, **kwargs):
        with original_session(*args, **kwargs) as ob:
            try:
                yield ob
            finally:
                for phase, seconds in phase_totals(ob).items():
                    tracer.add(f"obs.{phase}", seconds)

    tracer._undo.append((obs, "session", original_session, True))
    obs.session = session


#: Layers whose self times make up ``route_all`` (plus its remainder).
ROUTE_LAYERS = (
    "astar.search",
    "overlay_cache.grid_for",
    "overlay_cache.invalidate",
    "scenario_detect.add_net",
    "ocg.add_scenarios",
    "ocg.remove_net",
    "cut_conflict.conflicts_with",
    "cut_conflict.register_net",
    "flip.flip_colors",
    "flip.pseudo_color",
    "grid.occupy_many",
    "grid.release_net",
)

#: The program's own obs phases and the traced layers that do the same work.
XCHECK = {
    "search": ("astar.search", "overlay_cache.grid_for"),
    "graph": ("scenario_detect.add_net", "ocg.add_scenarios"),
    "flip": ("flip.flip_colors", "flip.pseudo_color"),
    "commit": ("cut_conflict.conflicts_with", "grid.occupy_many", "cut_conflict.register_net"),
}


#: Per-layer metrics that only the service workload exercises; the route
#: workloads report them as 0.
SERVICE_ONLY = (
    "service.queue_wait_p50_s",
    "service.queue_wait_p90_s",
    "service.run_s",
    "service.fetch_s",
    "pipeline.stage_hit_ratio",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: SelfTimer) -> Dict[str, float]:
    """The traced per-layer metrics (times in s, counts, ratios)."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    add_calls = calls["ocg.add_scenarios"]
    out = {
        "astar.search_s": s["astar.search"],
        "astar.searches": counts["astar.searches"],
        "astar.expansions": counts["astar.expansions"],
        "astar.guided_searches": counts["astar.guided_searches"],
        "astar.failed_ratio": _ratio(counts["astar.failed"], calls["astar.search"]),
        "overlay_cache.grid_for_s": s["overlay_cache.grid_for"],
        "overlay_cache.invalidate_s": s["overlay_cache.invalidate"],
        "scenario_detect.add_net_s": s["scenario_detect.add_net"],
        "scenario_detect.scenarios": counts["scenario_detect.scenarios"],
        "ocg.add_scenarios_s": s["ocg.add_scenarios"],
        "ocg.add_scenarios_calls": add_calls,
        "ocg.us_per_call": _ratio(s["ocg.add_scenarios"] * 1e6, add_calls),
        "ocg.remove_net_s": s["ocg.remove_net"],
        "ocg.odd_cycle_reject_ratio": _ratio(counts["ocg.rejects"], add_calls),
        "cut_conflict.conflicts_with_s": s["cut_conflict.conflicts_with"],
        "cut_conflict.checks": calls["cut_conflict.conflicts_with"],
        "cut_conflict.hit_ratio": _ratio(
            counts["cut_conflict.hits"], calls["cut_conflict.conflicts_with"]
        ),
        "cut_conflict.register_net_s": s["cut_conflict.register_net"],
        "flip.flip_colors_s": s["flip.flip_colors"],
        "flip.calls": calls["flip.flip_colors"],
        "flip.nets_per_call": _ratio(counts["flip.nets"], calls["flip.flip_colors"]),
        "flip.pseudo_color_s": s["flip.pseudo_color"],
        "grid.occupy_many_s": s["grid.occupy_many"],
        "grid.cells_written": counts["grid.cells_written"],
        "grid.release_net_s": s["grid.release_net"],
        "sadp_router.commit_accept_ratio": _ratio(
            counts["sadp_router.commits_accepted"], calls["grid.occupy_many"]
        ),
        "sadp_router.ripups": counts["sadp_router.ripups"],
        "sadp_router.color_flips": counts["sadp_router.color_flips"],
        "sadp_router.remainder_s": s["sadp_router.route_all"],
        "sadp_router.route_all_s": tracer.total_s["sadp_router.route_all"],
        "trace.layer_sum_s": s["sadp_router.route_all"]
        + sum(s[name] for name in ROUTE_LAYERS),
        "store.publish_s": s["store.publish"],
        "store.load_s": s["store.load"],
        "store.bytes_written": counts["store.bytes_written"],
        "decompose.synthesize_masks_s": s["decompose.synthesize_masks"],
        "decompose.verify_s": s["decompose.verify"],
    }
    for stage in ("load_design", "build_grid", "route", "decompose", "verify", "report"):
        out[f"pipeline.stage.{stage}_s"] = s[f"pipeline.stage.{stage}"]
    for phase, layers in XCHECK.items():
        traced = sum(s[name] for name in layers)
        out[f"xcheck.{phase}_ratio"] = _ratio(counts[f"obs.{phase}"], traced)
    return out
