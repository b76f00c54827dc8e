"""Perf regression bench: interleaved fast-vs-reference route_all timing.

Measures the router's end-to-end wall time on scaled paper workloads with
observability **off** (the production configuration), comparing the
flat-index fast A* path against the dict-based reference implementation,
and the guidance-pruned fast path against the unguided one. Rounds are
interleaved — reference, fast, guided, … — so thermal drift and
background noise hit all modes equally, and the per-mode minimum over
rounds is reported (the least-noise estimate of true cost).

Results land in ``BENCH_perf.json``::

    python -m repro.bench.perf --out BENCH_perf.json

and a committed baseline gates regressions in CI::

    python -m repro.bench.perf --workloads Test1 --rounds 2 \\
        --check BENCH_perf.json --tolerance 0.30

The check compares *speedup ratios* (reference time / fast time — end to
end and per core-engine phase), not absolute wall times, so a baseline
recorded on one machine is meaningful on any runner: the ratio cancels
machine speed, and the tolerance absorbs runner noise.

The ``reference`` mode pins both slow paths — the dict-based A* *and*
the object-per-edge constraint-graph/coloring/commit core — while every
other mode runs the vectorized SoA core, so the headline speedup is the
full old-vs-new A/B and ``core_phase_speedup`` isolates the core
engine's share (graph+flip+commit) of it.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import os

from .. import obs
from ..obs.export import phase_totals
from ..obs.provenance import collect_provenance
from ..router import SadpRouter
from ..router.kernel import HAVE_NUMBA, kernel_backend_name
from .workloads import (
    FULL_TIER_SCALES,
    FULL_TIER_WORKLOADS,
    generate_benchmark,
    spec_by_name,
)

#: Schema of one tier's flat payload (what :func:`run_perf` returns).
SCHEMA = "repro-bench-perf/1"

#: Schema of the tiered ``BENCH_perf.json`` envelope: ``{"tiers":
#: {"quick": <flat payload>, "full": <flat payload>}}`` plus hoisted
#: host/provenance. :func:`iter_tier_payloads` normalises both shapes.
SCHEMA_TIERED = "repro-bench-perf/2"

#: Workload scales: chosen so a full default run finishes in a couple of
#: minutes while Test5 is large enough for a stable speedup estimate.
DEFAULT_SCALES: Dict[str, float] = {
    "Test1": 0.20,
    "Test2": 0.15,
    "Test3": 0.15,
    "Test5": 0.12,
    "Test6": 0.20,
}

#: The bench samples the paper's suite at both ends: the fixed-pin family
#: at three sizes (Test1-Test3 small/mid, Test5 large) plus the
#: multi-candidate variant Test6, whose many tiny searches mostly finish
#: before the guidance trigger.
DEFAULT_WORKLOADS = ("Test1", "Test2", "Test3", "Test5", "Test6")

#: Bench modes and the router configuration each one measures.
#: ``fast`` is the unguided flat-array path (the guidance-off side of the
#: A/B); ``guided`` enables the future-cost corridor maps; ``kernel``
#: runs the same guided configuration through the compiled search kernel
#: (interpreted fallback when numba is absent — still bit-identical, so
#: the equivalence gate holds either way). Every other mode pins
#: ``kernel="python"`` so a numba install never leaks into their timing.
#: ``core`` picks the constraint-graph/coloring/commit engine:
#: ``reference`` keeps the object-per-edge implementation so the A/B
#: measures the vectorized SoA engine (everything else) against it;
#: :func:`check_core_equivalence` gates their bit-identity.
_MODE_CONFIG = {
    "reference": dict(
        use_reference=True, guidance="off", kernel="python", core="object"
    ),
    "fast": dict(
        use_reference=False, guidance="off", kernel="python", core="vector"
    ),
    "guided": dict(
        use_reference=False, guidance="auto", kernel="python", core="vector"
    ),
    "parallel": dict(
        use_reference=False, guidance="auto", kernel="python", core="vector"
    ),
    "kernel": dict(
        use_reference=False, guidance="auto", kernel="numba", core="vector"
    ),
}

#: Phases owned by the core engine (the A* search phase is shared).
CORE_PHASES = ("graph", "flip", "commit")

#: Per-phase speedup ratios are only recorded when both sides spent at
#: least this long in the phase — below it the ratio is timer noise.
MIN_PHASE_S = 0.01


@dataclass
class _Run:
    """Raw counters of one fresh route_all."""

    wall_s: float
    expansions: int
    searches: int
    guided_searches: int
    guidance_builds: int
    routability_pct: float
    overlay_units: float
    parallel_stats: Optional[dict]


@dataclass
class ModeSample:
    """One mode's best-of-rounds measurement (plus its phase split)."""

    route_all_s: float
    rounds_s: List[float]
    expansions: int
    searches: int
    routability_pct: float
    overlay_units: float
    guided_searches: int = 0
    guidance_builds: int = 0
    #: Per-phase runtime split of this mode's own instrumented run —
    #: every sample carries its own phases (the split used to be
    #: emitted once per workload, which misattributed the reference
    #: and parallel profiles to the fast path).
    phases: Dict[str, float] = field(default_factory=dict)
    phases_route_all_s: float = 0.0
    #: Which backend actually executed a ``kernel``-mode sample:
    #: ``"numba"`` (compiled) or ``"interpreted"`` (numba absent, same
    #: code run by CPython). None for every other mode.
    kernel_backend: Optional[str] = None

    @property
    def expansions_per_s(self) -> float:
        return self.expansions / self.route_all_s if self.route_all_s > 0 else 0.0

    @property
    def expansions_per_search(self) -> float:
        return self.expansions / self.searches if self.searches else 0.0

    def to_dict(self) -> dict:
        out = {
            "route_all_s": round(self.route_all_s, 6),
            "rounds_s": [round(r, 6) for r in self.rounds_s],
            "expansions": self.expansions,
            "searches": self.searches,
            "expansions_per_s": round(self.expansions_per_s, 1),
            "expansions_per_search": round(self.expansions_per_search, 1),
            "routability_pct": round(self.routability_pct, 2),
            "overlay_units": self.overlay_units,
        }
        if self.guided_searches or self.guidance_builds:
            out["guided_searches"] = self.guided_searches
            out["guidance_builds"] = self.guidance_builds
        if self.phases:
            out["phases_s"] = {k: round(v, 6) for k, v in self.phases.items()}
            out["phases_route_all_s"] = round(self.phases_route_all_s, 6)
        if self.kernel_backend is not None:
            out["kernel_backend"] = self.kernel_backend
        return out


@dataclass
class WorkloadResult:
    circuit: str
    scale: float
    seed: int
    fast: ModeSample
    reference: Optional[ModeSample] = None
    guided: Optional[ModeSample] = None
    kernel: Optional[ModeSample] = None
    parallel: Optional[ModeSample] = None
    parallel_stats: Optional[dict] = None
    #: Dry-run ``workers="auto"`` rationale for this instance — answers
    #: "what would auto do here, and why" from the payload alone, even
    #: when the timed runs used explicit workers.
    auto_probe: Optional[dict] = None

    @property
    def speedup(self) -> Optional[float]:
        if self.reference is None or self.fast.route_all_s <= 0:
            return None
        return self.reference.route_all_s / self.fast.route_all_s

    @property
    def guidance_speedup(self) -> Optional[float]:
        if self.guided is None or self.guided.route_all_s <= 0:
            return None
        return self.fast.route_all_s / self.guided.route_all_s

    @property
    def expansion_reduction(self) -> Optional[float]:
        """Unguided / guided expansion count (>= 1.0 by construction)."""
        if self.guided is None or self.guided.expansions <= 0:
            return None
        return self.fast.expansions / self.guided.expansions

    @property
    def kernel_speedup(self) -> Optional[float]:
        """Interpreted fast path over compiled kernel, same guidance
        config (the ``guided`` sample when present, ``fast`` otherwise).

        None on the interpreted fallback: that backend times CPython
        running kernel-shaped code, so its ratio says nothing about
        compilation and would pollute speedup trend lines recorded on
        numba-free hosts (the bit-identity gate still runs there).
        """
        if self.kernel is None or self.kernel.route_all_s <= 0:
            return None
        if self.kernel.kernel_backend == "interpreted":
            return None
        base = self.guided if self.guided is not None else self.fast
        return base.route_all_s / self.kernel.route_all_s

    @property
    def kernel_vs_reference(self) -> Optional[float]:
        if (
            self.kernel is None
            or self.reference is None
            or self.kernel.route_all_s <= 0
            or self.kernel.kernel_backend == "interpreted"
        ):
            return None
        return self.reference.route_all_s / self.kernel.route_all_s

    @property
    def core_phase_speedup(self) -> Optional[float]:
        """Combined graph+flip+commit time, object core over vector core.

        Both samples carry their own instrumented phase split; the ratio
        isolates the core-engine phases from the (shared) A* search, so
        it moves only when the constraint-graph/coloring/commit engine
        itself gets faster or slower.
        """
        if self.reference is None or not self.reference.phases:
            return None
        if not self.fast.phases:
            return None
        ref = sum(self.reference.phases.get(p, 0.0) for p in CORE_PHASES)
        fast = sum(self.fast.phases.get(p, 0.0) for p in CORE_PHASES)
        if fast <= 0:
            return None
        return ref / fast

    @property
    def phase_speedups(self) -> Optional[Dict[str, float]]:
        """Per-phase reference/fast ratios for the core-engine phases.

        Phases where either side spent under :data:`MIN_PHASE_S` are
        omitted — a 2 ms phase ratio is timer noise, and the baseline
        gate must not fail CI over it.
        """
        if self.reference is None or not self.reference.phases:
            return None
        if not self.fast.phases:
            return None
        out: Dict[str, float] = {}
        for phase in CORE_PHASES:
            ref = self.reference.phases.get(phase, 0.0)
            fast = self.fast.phases.get(phase, 0.0)
            if ref >= MIN_PHASE_S and fast >= MIN_PHASE_S:
                out[phase] = round(ref / fast, 4)
        return out or None

    @property
    def parallel_speedup(self) -> Optional[float]:
        if self.parallel is None or self.parallel.route_all_s <= 0:
            return None
        return self.fast.route_all_s / self.parallel.route_all_s

    def to_dict(self) -> dict:
        out = {
            "name": self.circuit,
            "circuit": self.circuit,
            "scale": self.scale,
            "seed": self.seed,
            "fast": self.fast.to_dict(),
        }
        if self.reference is not None:
            out["reference"] = self.reference.to_dict()
            out["speedup"] = round(self.speedup, 4)
            out["walltime_reduction_pct"] = round(
                (1.0 - self.fast.route_all_s / self.reference.route_all_s) * 100.0, 2
            )
            if self.core_phase_speedup is not None:
                out["core_phase_speedup"] = round(self.core_phase_speedup, 4)
            if self.phase_speedups:
                out["phase_speedups"] = self.phase_speedups
        if self.guided is not None:
            out["guided"] = self.guided.to_dict()
            out["guidance_speedup"] = round(self.guidance_speedup, 4)
            out["expansion_reduction"] = round(self.expansion_reduction, 4)
        if self.kernel is not None:
            out["kernel"] = self.kernel.to_dict()
            # Explicit null (not absent) on the interpreted fallback: a
            # consumer diffing payloads over time sees "not measurable
            # here" instead of a silently missing series.
            out["kernel_speedup"] = (
                round(self.kernel_speedup, 4)
                if self.kernel_speedup is not None
                else None
            )
            if self.kernel_vs_reference is not None:
                out["kernel_vs_reference"] = round(self.kernel_vs_reference, 4)
        if self.parallel is not None:
            out["parallel"] = self.parallel.to_dict()
            out["parallel_speedup"] = round(self.parallel_speedup, 4)
            if self.parallel_stats is not None:
                out["parallel_stats"] = self.parallel_stats
        if self.auto_probe is not None:
            out["auto_decision_probe"] = self.auto_probe
        return out


def _make_router(
    circuit: str,
    scale: float,
    seed: int,
    mode: str,
    workers: Union[int, str] = 1,
    executor: str = "process",
    shard: str = "auto",
) -> SadpRouter:
    """A fresh router instance configured for one bench mode."""
    spec = spec_by_name(circuit)
    grid, nets = generate_benchmark(spec, scale=scale, seed=seed)
    cfg = _MODE_CONFIG[mode]
    router = SadpRouter(
        grid,
        nets,
        workers=workers if mode == "parallel" else 1,
        executor=executor,
        guidance=cfg["guidance"],
        shard=shard if mode == "parallel" else "auto",
        kernel=cfg["kernel"],
        core=cfg["core"],
    )
    router.engine.use_reference = cfg["use_reference"]
    return router


def _run_once(
    circuit: str,
    scale: float,
    seed: int,
    mode: str,
    workers: Union[int, str] = 1,
    executor: str = "process",
    shard: str = "auto",
) -> _Run:
    """One fresh instance + route_all with the mode's configuration."""
    router = _make_router(circuit, scale, seed, mode, workers, executor, shard)
    t0 = time.perf_counter()
    result = router.route_all()
    wall = time.perf_counter() - t0
    stats = (
        router.parallel_stats.to_dict()
        if router.parallel_stats is not None
        else None
    )
    return _Run(
        wall_s=wall,
        expansions=router.engine.total_expansions,
        searches=router.engine.total_searches,
        guided_searches=router.engine.total_guided_searches,
        guidance_builds=router.engine.total_guidance_builds,
        routability_pct=result.routability * 100.0,
        overlay_units=result.overlay_units,
        parallel_stats=stats,
    )


def _phase_split(
    circuit: str,
    scale: float,
    seed: int,
    mode: str = "fast",
    workers: Union[int, str] = 1,
    executor: str = "process",
    shard: str = "auto",
) -> Tuple[Dict[str, float], float]:
    """One instrumented (untimed-for-comparison) run for the phase split.

    Returns (phase seconds, route_all seconds of that same run). The
    buckets are disjoint — ``commit`` is measured as the commit span's
    *self* time — so their sum never exceeds the route_all total. For
    the ``parallel`` mode the split covers main-process spans only
    (worker processes do not propagate tracer state).
    """
    router = _make_router(circuit, scale, seed, mode, workers, executor, shard)
    with obs.session():
        before = dict(phase_totals())
        router.route_all()
        after = phase_totals()
        ob = obs.get_active()
        route_all_s = (
            ob.tracer.totals_by_name().get("route_all", 0.0)
            if ob is not None
            else 0.0
        )
    phases = {
        phase: after.get(phase, 0.0) - before.get(phase, 0.0)
        for phase in ("search", "graph", "flip", "commit")
    }
    return phases, route_all_s


def _wants_parallel(workers: Union[int, str]) -> bool:
    return workers == "auto" or (isinstance(workers, int) and workers > 1)


def _probe_auto_decision(
    circuit: str, scale: float, seed: int, shard: str = "auto"
) -> Optional[dict]:
    """Dry-run the ``workers="auto"`` resolver on a fresh instance.

    Pure planning (shard geometry + batch-scheduler scan, no routing);
    the returned rationale dict is what ``_resolve_workers`` would log
    for this instance on *this host* — including the host's core count,
    so a ``"serial"`` probe on a one-core box is distinguishable from a
    genuinely unshardable workload.
    """
    spec = spec_by_name(circuit)
    grid, nets = generate_benchmark(spec, scale=scale, seed=seed)
    router = SadpRouter(grid, nets, workers="auto", shard=shard)
    ordered = list(router.netlist.ordered_for_routing(router.order))
    router._resolve_workers(ordered)
    return router._auto_rationale


def run_perf(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    scales: Optional[Dict[str, float]] = None,
    seed: int = 2014,
    rounds: int = 3,
    include_reference: bool = True,
    include_guidance: bool = True,
    include_kernel: bool = False,
    include_phases: bool = True,
    workers: Union[int, str] = 1,
    executor: str = "process",
    shard: str = "auto",
    include_probe: bool = False,
    verbose: bool = True,
) -> dict:
    """Run the perf bench; returns one tier's flat payload.

    With ``include_guidance`` each workload runs a guidance-on/off A/B
    of the fast path (``guided`` sample, ``guidance_speedup``,
    ``expansion_reduction``); :func:`check_guidance_equivalence` gates
    that the guided run produced identical metrics from strictly fewer
    (or equal) expansions. With ``include_kernel`` each workload also
    times the compiled search kernel in the guided configuration
    (``kernel`` sample, tagged with the executing backend);
    :func:`check_kernel_equivalence` gates its bit-identity. With ``workers`` > 1 or ``"auto"`` each
    workload also runs through the parallel routing engine — ``shard``
    picks region sharding ("on"/"auto") vs the batch scheduler ("off")
    — and the payload grows ``parallel`` / ``parallel_speedup`` /
    ``parallel_stats``; :func:`check_parallel_equivalence` gates those.
    ``include_probe`` additionally records each workload's
    ``auto_decision_probe`` (the dry-run ``workers="auto"`` rationale).
    """
    if obs.is_enabled():
        raise RuntimeError(
            "perf bench must run with observability off (it measures the "
            "production configuration); call obs.disable() first"
        )
    scales = {**DEFAULT_SCALES, **(scales or {})}
    use_parallel = _wants_parallel(workers)
    results: List[WorkloadResult] = []
    for circuit in workloads:
        scale = scales.get(circuit, 0.15)
        modes = ["fast"]
        if include_reference:
            modes.insert(0, "reference")
        if include_guidance:
            modes.append("guided")
        if include_kernel:
            modes.append("kernel")
        if use_parallel:
            modes.append("parallel")
        samples: Dict[str, List[_Run]] = {m: [] for m in modes}
        for rnd in range(rounds):
            # Interleaved so all modes see the same machine drift, and
            # rotated so no mode always occupies the same slot of the
            # round — a speed trend within a round would otherwise bias
            # whichever mode consistently ran first (or last).
            for mode in modes[rnd % len(modes) :] + modes[: rnd % len(modes)]:
                samples[mode].append(
                    _run_once(
                        circuit, scale, seed, mode, workers, executor, shard
                    )
                )

        def best(mode: str) -> ModeSample:
            runs = samples[mode]
            idx = min(range(len(runs)), key=lambda i: runs[i].wall_s)
            run = runs[idx]
            sample = ModeSample(
                route_all_s=run.wall_s,
                rounds_s=[r.wall_s for r in runs],
                expansions=run.expansions,
                searches=run.searches,
                routability_pct=run.routability_pct,
                overlay_units=run.overlay_units,
                guided_searches=run.guided_searches,
                guidance_builds=run.guidance_builds,
            )
            if mode == "kernel":
                sample.kernel_backend = kernel_backend_name()
            if include_phases:
                sample.phases, sample.phases_route_all_s = _phase_split(
                    circuit, scale, seed, mode, workers, executor, shard
                )
            return sample

        wl = WorkloadResult(
            circuit=circuit,
            scale=scale,
            seed=seed,
            fast=best("fast"),
            reference=best("reference") if include_reference else None,
            guided=best("guided") if include_guidance else None,
            kernel=best("kernel") if include_kernel else None,
        )
        if use_parallel:
            wl.parallel = best("parallel")
            runs = samples["parallel"]
            idx = min(range(len(runs)), key=lambda i: runs[i].wall_s)
            wl.parallel_stats = runs[idx].parallel_stats
        if include_probe:
            wl.auto_probe = _probe_auto_decision(circuit, scale, seed, shard)
        results.append(wl)
        if verbose:
            line = (
                f"{circuit:7s} scale {scale:.2f}: fast {wl.fast.route_all_s:.3f}s"
                f" ({wl.fast.expansions_per_s:,.0f} exp/s)"
            )
            if wl.reference is not None:
                line += (
                    f", reference {wl.reference.route_all_s:.3f}s"
                    f" -> speedup {wl.speedup:.2f}x"
                )
            if wl.guided is not None:
                line += (
                    f", guided {wl.guided.route_all_s:.3f}s"
                    f" -> {wl.guidance_speedup:.2f}x"
                    f" ({wl.expansion_reduction:.1f}x fewer expansions)"
                )
            if wl.kernel is not None:
                kern_ratio = (
                    f"{wl.kernel_speedup:.2f}x"
                    if wl.kernel_speedup is not None
                    else "n/a (interpreted)"
                )
                line += (
                    f", kernel[{wl.kernel.kernel_backend}] "
                    f"{wl.kernel.route_all_s:.3f}s"
                    f" -> {kern_ratio}"
                )
            if wl.parallel is not None:
                line += (
                    f", parallel({workers}w) {wl.parallel.route_all_s:.3f}s"
                    f" -> {wl.parallel_speedup:.2f}x"
                )
            print(line)
    payload = {
        "schema": SCHEMA,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            # Parallel samples are meaningless without knowing how many
            # cores the box had — a 1.0x "speedup" on one core is the
            # expected result, not a regression.
            "cpus": os.cpu_count() or 1,
        },
        "provenance": collect_provenance(),
        "config": {
            "rounds": rounds,
            "seed": seed,
            "workloads": list(workloads),
            "scales": {c: scales.get(c, 0.15) for c in workloads},
            "observability": "off",
            "timing": "interleaved, best-of-rounds",
            "workers": workers,
            "executor": executor,
            "shard": shard,
            # Repeated per tier (the tiered envelope hoists ``host`` to
            # the top) so a quick-tier fragment read on its own still
            # says how many cores the box had — parallel numbers are
            # uninterpretable without it.
            "host_cpus": os.cpu_count() or 1,
        },
        "workloads": [wl.to_dict() for wl in results],
    }
    summary: Dict[str, object] = {}

    def _geo(values: List[float]) -> float:
        product = 1.0
        for v in values:
            product *= v
        return product ** (1.0 / len(values))

    speedups = [wl.speedup for wl in results if wl.speedup is not None]
    if speedups:
        summary["geomean_speedup"] = round(_geo(speedups), 4)
        summary["min_speedup"] = round(min(speedups), 4)
    cspeedups = [
        wl.core_phase_speedup
        for wl in results
        if wl.core_phase_speedup is not None
    ]
    if cspeedups:
        summary["geomean_core_phase_speedup"] = round(_geo(cspeedups), 4)
        summary["min_core_phase_speedup"] = round(min(cspeedups), 4)
    gspeedups = [
        wl.guidance_speedup for wl in results if wl.guidance_speedup is not None
    ]
    if gspeedups:
        summary["geomean_guidance_speedup"] = round(_geo(gspeedups), 4)
        summary["min_guidance_speedup"] = round(min(gspeedups), 4)
        reductions = [
            wl.expansion_reduction
            for wl in results
            if wl.expansion_reduction is not None
        ]
        summary["geomean_expansion_reduction"] = round(_geo(reductions), 4)
    if any(wl.kernel is not None for wl in results):
        # Always name the backend that ran; the speedup aggregates join
        # only when it was the compiled one (interpreted ratios are
        # nulled per workload and would poison a geomean).
        summary["kernel_backend"] = kernel_backend_name()
    kspeedups = [
        wl.kernel_speedup for wl in results if wl.kernel_speedup is not None
    ]
    if kspeedups:
        summary["geomean_kernel_speedup"] = round(_geo(kspeedups), 4)
        summary["min_kernel_speedup"] = round(min(kspeedups), 4)
        kvr = [
            wl.kernel_vs_reference
            for wl in results
            if wl.kernel_vs_reference is not None
        ]
        if kvr:
            summary["geomean_kernel_vs_reference"] = round(_geo(kvr), 4)
    pspeedups = [
        wl.parallel_speedup for wl in results if wl.parallel_speedup is not None
    ]
    if pspeedups:
        summary["geomean_parallel_speedup"] = round(_geo(pspeedups), 4)
        summary["min_parallel_speedup"] = round(min(pspeedups), 4)
        off_fracs = [
            (wl.parallel_stats or {}).get("off_process_fraction")
            for wl in results
        ]
        off_fracs = [f for f in off_fracs if f is not None]
        if off_fracs:
            summary["max_off_process_fraction"] = round(max(off_fracs), 4)
    if summary:
        payload["summary"] = summary
    return payload


def build_tiered_payload(tiers: Dict[str, dict]) -> dict:
    """Assemble the v2 ``BENCH_perf.json`` envelope from tier payloads.

    Host and provenance are identical across tiers of one invocation, so
    they are hoisted to the top level and dropped from the per-tier
    payloads (each tier keeps its own ``config``, ``workloads`` and
    ``summary``).
    """
    out: Dict[str, object] = {"schema": SCHEMA_TIERED, "tiers": {}}
    for name, tier in tiers.items():
        tier = dict(tier)
        out.setdefault("host", tier.pop("host", {}))
        out.setdefault("provenance", tier.pop("provenance", {}))
        tier.pop("host", None)
        tier.pop("provenance", None)
        tier.pop("schema", None)
        out["tiers"][name] = tier  # type: ignore[index]
    return out


def iter_tier_payloads(payload: dict):
    """Yield ``(tier_name, flat_payload)`` for either schema version.

    A v1 flat payload (or a bare ``{"workloads": [...]}`` fragment) is
    treated as a single ``"quick"`` tier, so every consumer — the
    equivalence gates, the phase table, the ledger recorder, the
    baseline check — reads old and new files alike.
    """
    if "tiers" in payload:
        yield from payload["tiers"].items()
    else:
        yield "quick", payload


def render_phase_table(payload: dict) -> str:
    """Text table of the per-variant phase splits of a bench payload.

    One row per (workload, variant): each sample now carries its own
    ``phases_s``, so the table shows where *that* configuration spends
    its time instead of reusing the sequential fast split for all of
    them.
    """
    phases = ("search", "graph", "flip", "commit")
    header = (
        f"{'tier':6s} {'circuit':9s} {'variant':9s} "
        + " ".join(f"{p + '_s':>9s}" for p in phases)
        + f" {'other_s':>9s} {'total_s':>9s}"
    )
    lines = [header, "-" * len(header)]
    for tier, flat in iter_tier_payloads(payload):
        for wl in flat.get("workloads", []):
            for variant in ("reference", "fast", "guided", "kernel", "parallel"):
                sample = wl.get(variant)
                if not sample or "phases_s" not in sample:
                    continue
                split = sample["phases_s"]
                total = sample.get("phases_route_all_s", 0.0)
                other = max(0.0, total - sum(split.values()))
                lines.append(
                    f"{tier:6s} {wl['circuit']:9s} {variant:9s} "
                    + " ".join(f"{split.get(p, 0.0):9.3f}" for p in phases)
                    + f" {other:9.3f} {total:9.3f}"
                )
    return "\n".join(lines)


def check_parallel_equivalence(payload: dict) -> List[str]:
    """Determinism gate: parallel runs must match sequential exactly.

    The batch scheduler guarantees bit-identical results for any worker
    count; this check enforces the observable half of that guarantee —
    identical routability and overlay units between the ``fast``
    (sequential) and ``parallel`` samples of every workload. Returns a
    list of problems (empty = pass).
    """
    problems: List[str] = []
    for tier, flat in iter_tier_payloads(payload):
        for wl in flat.get("workloads", []):
            par = wl.get("parallel")
            if par is None:
                continue
            fast = wl["fast"]
            if par["routability_pct"] != fast["routability_pct"]:
                problems.append(
                    f"{tier}/{wl['circuit']}: parallel routability "
                    f"{par['routability_pct']} != sequential "
                    f"{fast['routability_pct']}"
                )
            if par["overlay_units"] != fast["overlay_units"]:
                problems.append(
                    f"{tier}/{wl['circuit']}: parallel overlay "
                    f"{par['overlay_units']} != sequential "
                    f"{fast['overlay_units']}"
                )
    return problems


def check_guidance_equivalence(payload: dict) -> List[str]:
    """Correctness gate for the guidance A/B.

    Corridor pruning is designed to be invisible: the guided fast path
    must commit the same routes (identical routability and overlay
    units, same search count) while expanding no more nodes than the
    unguided one. Returns a list of problems (empty = pass).
    """
    problems: List[str] = []
    for tier, flat in iter_tier_payloads(payload):
        for wl in flat.get("workloads", []):
            guided = wl.get("guided")
            if guided is None:
                continue
            fast = wl["fast"]
            for metric in ("routability_pct", "overlay_units", "searches"):
                if guided[metric] != fast[metric]:
                    problems.append(
                        f"{tier}/{wl['circuit']}: guided {metric} "
                        f"{guided[metric]} != unguided {fast[metric]}"
                    )
            if guided["expansions"] > fast["expansions"]:
                problems.append(
                    f"{tier}/{wl['circuit']}: guided expansions "
                    f"{guided['expansions']} > unguided {fast['expansions']} "
                    "(pruning must never add work)"
                )
    return problems


def check_kernel_equivalence(payload: dict) -> List[str]:
    """Correctness gate for the compiled kernel.

    The kernel runs the same guided configuration as the ``guided``
    sample and must be bit-identical to it — same committed routes
    (routability, overlay units), same search/expansion counts, same
    guidance activity. When only the unguided ``fast`` sample is present
    the comparison drops to the metrics both configurations share.
    Returns a list of problems (empty = pass).
    """
    problems: List[str] = []
    for tier, flat in iter_tier_payloads(payload):
        for wl in flat.get("workloads", []):
            kern = wl.get("kernel")
            if kern is None:
                continue
            base = wl.get("guided")
            if base is not None:
                metrics = (
                    "routability_pct",
                    "overlay_units",
                    "searches",
                    "expansions",
                    "guided_searches",
                    "guidance_builds",
                )
                base_name = "guided"
            else:
                base = wl["fast"]
                metrics = ("routability_pct", "overlay_units", "searches")
                base_name = "fast"
            for metric in metrics:
                if kern.get(metric, 0) != base.get(metric, 0):
                    problems.append(
                        f"{tier}/{wl['circuit']}: kernel {metric} "
                        f"{kern.get(metric, 0)} != {base_name} "
                        f"{base.get(metric, 0)}"
                    )
    return problems


def check_core_equivalence(payload: dict) -> List[str]:
    """Bit-identity gate for the vectorized core engine.

    The ``reference`` sample runs the object-per-edge constraint
    graph/coloring/commit engine (``core="object"``); every other mode
    runs the SoA vector engine. The rewrite is a pure representation
    change, so the committed result must be exactly identical — any
    routability or overlay drift means the vector engine changed a
    decision, not just its speed. Returns problems (empty = pass).
    """
    problems: List[str] = []
    for tier, flat in iter_tier_payloads(payload):
        for wl in flat.get("workloads", []):
            ref = wl.get("reference")
            if ref is None:
                continue
            fast = wl["fast"]
            for metric in ("routability_pct", "overlay_units", "searches"):
                if ref.get(metric) != fast.get(metric):
                    problems.append(
                        f"{tier}/{wl['circuit']}: vector-core {metric} "
                        f"{fast.get(metric)} != object-core reference "
                        f"{ref.get(metric)}"
                    )
    return problems


def check_against_baseline(
    current: dict, baseline: dict, tolerance: float = 0.30
) -> List[str]:
    """Regression gate: compare speedup ratios per workload.

    A workload regresses when its measured reference/fast speedup —
    end-to-end, or any per-phase core ratio both runs recorded in
    ``phase_speedups`` (graph, flip, commit) — falls more than
    ``tolerance`` (fractional) below the baseline's. Ratios are
    machine-portable; the tolerance absorbs runner noise. Returns a
    list of problems (empty = pass). Workloads and phases missing from
    either side are skipped — the gate checks what both runs measured.
    """
    problems: List[str] = []
    base_tiers = dict(iter_tier_payloads(baseline))
    checked = 0
    for tier, flat in iter_tier_payloads(current):
        base_flat = base_tiers.get(tier)
        if base_flat is None:
            continue
        base_by_circuit = {
            wl["circuit"]: wl for wl in base_flat.get("workloads", [])
        }
        for wl in flat.get("workloads", []):
            base = base_by_circuit.get(wl["circuit"])
            if base is None or "speedup" not in wl or "speedup" not in base:
                continue
            checked += 1
            floor = base["speedup"] * (1.0 - tolerance)
            if wl["speedup"] < floor:
                problems.append(
                    f"{tier}/{wl['circuit']}: speedup {wl['speedup']:.2f}x "
                    f"is below {floor:.2f}x (baseline {base['speedup']:.2f}x "
                    f"minus {tolerance:.0%} tolerance)"
                )
            base_phases = base.get("phase_speedups") or {}
            for phase, ratio in (wl.get("phase_speedups") or {}).items():
                base_ratio = base_phases.get(phase)
                if base_ratio is None:
                    continue
                phase_floor = base_ratio * (1.0 - tolerance)
                if ratio < phase_floor:
                    problems.append(
                        f"{tier}/{wl['circuit']}: {phase}-phase speedup "
                        f"{ratio:.2f}x is below {phase_floor:.2f}x "
                        f"(baseline {base_ratio:.2f}x minus "
                        f"{tolerance:.0%} tolerance)"
                    )
    if checked == 0:
        problems.append("no overlapping workloads between run and baseline")
    return problems


def record_to_ledger(
    payload: dict,
    ledger_dir: Optional[str] = None,
    gate: bool = False,
) -> List[str]:
    """Append each workload's fast sample to the run ledger.

    With ``gate=True``, every new record is first compared (via
    :func:`~repro.obs.ledger.diff_runs`) against the most recent prior
    ``bench-perf`` record with the same workload and config hash; a
    regression verdict becomes a problem string. Returns the list of
    problems (empty = pass, or nothing to compare against yet).
    """
    from ..obs.ledger import Ledger, diff_runs, make_record

    problems: List[str] = []
    with Ledger(ledger_dir) as ledger:
        for _tier, flat in iter_tier_payloads(payload):
            config_base = dict(flat.get("config", {}))
            config_base.pop("workloads", None)
            config_base.pop("scales", None)
            for wl in flat.get("workloads", []):
                fast = wl["fast"]
                workload = f"{wl['circuit']}@{wl['scale']}"
                record = make_record(
                    "bench-perf",
                    workload,
                    {**config_base, "scale": wl["scale"], "seed": wl["seed"]},
                    outcome="ok",
                    wall_s=fast["route_all_s"],
                    phases=dict(fast.get("phases_s", {})),
                    counters={
                        "astar_nodes_expanded_total": float(fast["expansions"]),
                        "astar_searches_total": float(fast["searches"]),
                    },
                    parallel_decision=(wl.get("parallel_stats") or {}).get(
                        "decision_trace"
                    ),
                    meta={
                        "speedup": wl.get("speedup"),
                        "guidance_speedup": wl.get("guidance_speedup"),
                        "parallel_speedup": wl.get("parallel_speedup"),
                    },
                )
                baseline = (
                    ledger.latest(
                        workload=workload,
                        config_hash=record.config_hash,
                        command="bench-perf",
                        outcome="ok",
                    )
                    if gate
                    else None
                )
                ledger.record(record)
                if baseline is not None:
                    diff = diff_runs(baseline, record)
                    if diff.verdict == "regression":
                        rows = ", ".join(
                            f"{row.section}:{row.name} "
                            f"{row.a:.4g} -> {row.b:.4g}"
                            for row in diff.regressions
                        )
                        problems.append(
                            f"{workload}: regression vs "
                            f"{baseline.run_id}: {rows}"
                        )
    return problems


def check_full_tier_engaged(payload: dict) -> List[str]:
    """Gate: the full tier must engage (or predict) a non-serial mode.

    A workload counts as engaged when its timed parallel run used the
    sharded mode or recorded a non-serial auto decision, *or* when its
    ``auto_decision_probe`` says ``workers="auto"`` would pick one. The
    probe matters on explicit-worker runs (auto fields stay empty) and
    keeps the gate meaningful: a full tier where every probe says
    "serial" means the sharding heuristics regressed. Returns problems
    (empty = at least one workload engaged).
    """
    tiers = dict(iter_tier_payloads(payload))
    flat = tiers.get("full")
    if flat is None:
        return ["no full tier in payload (run with --tier full or both)"]
    engaged = []
    for wl in flat.get("workloads", []):
        stats = wl.get("parallel_stats") or {}
        probe = wl.get("auto_decision_probe") or {}
        if (
            stats.get("mode") == "sharded"
            or stats.get("auto_decision") not in (None, "", "serial")
            or probe.get("decision") not in (None, "serial")
        ):
            engaged.append(wl["circuit"])
    if not engaged:
        return [
            "every full-tier workload resolved (and would resolve) to "
            "serial — sharding never engages"
        ]
    return []


def full_tier_skip_reason(payload: dict) -> Optional[str]:
    """Why the full tier's parallel gates should be *skipped*, if at all.

    On a one-core host every auto decision is "serial — single-core
    host" by construction: failing ``--require-engaged`` or a parallel
    speedup floor there reports the runner's hardware, not a sharding
    regression. When every full-tier workload's decision (timed trace
    or dry-run probe) gives that reason, the gates are skipped with an
    explicit marker instead. Any other reason returns None — the gates
    run and judge as usual.
    """
    tiers = dict(iter_tier_payloads(payload))
    flat = tiers.get("full")
    if flat is None:
        return None
    reasons = []
    for wl in flat.get("workloads", []):
        trace = (wl.get("parallel_stats") or {}).get("decision_trace") or {}
        probe = wl.get("auto_decision_probe") or {}
        reasons.append(trace.get("reason") or probe.get("reason") or "")
    if reasons and all(r == "single-core host" for r in reasons):
        return "single-core host"
    return None


def _decision_lines(payload: dict) -> List[str]:
    """Human-readable ``--workers auto`` rationale per workload."""
    lines: List[str] = []
    for tier, flat in iter_tier_payloads(payload):
        for wl in flat.get("workloads", []):
            trace = (wl.get("parallel_stats") or {}).get("decision_trace")
            probe = wl.get("auto_decision_probe")
            if trace:
                line = (
                    f"{wl['circuit']}: parallel decision = "
                    f"{trace.get('decision', '?')}"
                    f" — {trace.get('reason', '')}"
                )
                if trace.get("decision") == "sharded" or "shard_nets" in trace:
                    line += (
                        f" (grid {trace.get('shard_shard_grid', '?')},"
                        f" {trace.get('shard_interior_nets', 0)} interior /"
                        f" {trace.get('shard_boundary_nets', 0)} boundary)"
                    )
                else:
                    line += (
                        f" (scanned {trace.get('candidates_scanned', 0)},"
                        f" halo rejects {trace.get('halo_rejects', 0)},"
                        f" {trace.get('multi_net_batches', 0)} multi-net"
                        " batches)"
                    )
                lines.append(line)
            elif probe:
                lines.append(
                    f"{wl['circuit']}: auto would pick "
                    f"{probe.get('decision', '?')} — {probe.get('reason', '')}"
                )
    return lines


def _parse_workers(value: str) -> Union[int, str]:
    if value == "auto":
        return "auto"
    return int(value)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perf", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workloads",
        default=",".join(DEFAULT_WORKLOADS),
        help="comma-separated TestN names",
    )
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument(
        "--scale-mult",
        type=float,
        default=1.0,
        help="multiplier on the per-workload default scales",
    )
    parser.add_argument("--out", default=None, help="write BENCH_perf.json here")
    parser.add_argument(
        "--no-reference",
        action="store_true",
        help="skip the reference-path runs (fast-only timing)",
    )
    parser.add_argument(
        "--no-guidance",
        action="store_true",
        help="skip the guidance-on/off A/B runs",
    )
    parser.add_argument(
        "--no-kernel",
        action="store_true",
        help="skip the compiled-kernel rows (and their equivalence gate)",
    )
    parser.add_argument(
        "--no-phases", action="store_true", help="skip the instrumented phase split"
    )
    parser.add_argument(
        "--phase-table",
        action="store_true",
        help="print the per-variant phase table after the run",
    )
    parser.add_argument(
        "--workers",
        type=_parse_workers,
        default=1,
        help="also time the parallel batch router with N workers (or "
        "'auto' for the scheduler-predicted choice) and gate its results "
        "against the sequential run",
    )
    parser.add_argument(
        "--executor",
        choices=("process", "thread", "serial"),
        default="process",
        help="worker pool kind for the parallel runs",
    )
    parser.add_argument(
        "--shard",
        choices=("auto", "on", "off"),
        default="auto",
        help="region sharding for the parallel runs: auto (engage when "
        "the plan clears the interior-net bar), on (force, minimal 2x2 "
        "tiling if needed), off (PR-3 batch scheduler only)",
    )
    parser.add_argument(
        "--tier",
        choices=("quick", "full", "both"),
        default="quick",
        help="quick = the small default workloads; full = Test5-Test10 "
        "at sharding-relevant scales (fast+parallel only); both = the "
        "two-tier BENCH_perf.json payload",
    )
    parser.add_argument(
        "--full-workers",
        type=_parse_workers,
        default="auto",
        metavar="N",
        help="worker count for the full tier's parallel runs (or 'auto')",
    )
    parser.add_argument(
        "--require-engaged",
        action="store_true",
        help="fail unless at least one full-tier workload engages (or "
        "would engage) a non-serial parallel mode — the 'is sharding "
        "real on this host' gate",
    )
    parser.add_argument(
        "--min-parallel-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail if the full tier's geomean parallel speedup is below X",
    )
    parser.add_argument(
        "--check",
        default=None,
        help="baseline BENCH_perf.json to gate speedup regressions against",
    )
    parser.add_argument(
        "--ledger",
        action="store_true",
        help="append each workload's fast sample to the run ledger",
    )
    parser.add_argument(
        "--ledger-gate",
        action="store_true",
        help="also diff each sample against the latest comparable ledger "
        "record and fail on a regression verdict (implies --ledger)",
    )
    parser.add_argument(
        "--ledger-dir",
        default=None,
        metavar="DIR",
        help="run ledger directory (default .repro_runs, or $REPRO_LEDGER_DIR)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional speedup drop vs the baseline (runner noise)",
    )
    args = parser.parse_args(argv)

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    explicit_workloads = args.workloads != ",".join(DEFAULT_WORKLOADS)
    tiers: Dict[str, dict] = {}
    if args.tier in ("quick", "both"):
        scales = {
            c: min(s * args.scale_mult, 1.0) for c, s in DEFAULT_SCALES.items()
        }
        print(f"== quick tier ({', '.join(workloads)}) ==")
        tiers["quick"] = run_perf(
            workloads=workloads,
            scales=scales,
            seed=args.seed,
            rounds=args.rounds,
            include_reference=not args.no_reference,
            include_guidance=not args.no_guidance,
            include_kernel=not args.no_kernel,
            include_phases=not args.no_phases,
            workers=args.workers,
            executor=args.executor,
            shard=args.shard,
        )
    if args.tier in ("full", "both"):
        # The full tier measures the parallel question only — fast vs
        # parallel on sharding-sized instances; reference/guidance A/Bs
        # and the instrumented phase split stay in the quick tier.
        full_workloads = (
            workloads if explicit_workloads else list(FULL_TIER_WORKLOADS)
        )
        full_scales = {
            c: min(s * args.scale_mult, 1.0)
            for c, s in FULL_TIER_SCALES.items()
        }
        print(f"== full tier ({', '.join(full_workloads)}) ==")
        tiers["full"] = run_perf(
            workloads=full_workloads,
            scales=full_scales,
            seed=args.seed,
            rounds=args.rounds,
            include_reference=False,
            include_guidance=False,
            # Full-tier instances are too large for the interpreted
            # fallback; the kernel rows join only when numba compiles.
            include_kernel=HAVE_NUMBA and not args.no_kernel,
            include_phases=False,
            workers=args.full_workers,
            executor=args.executor,
            shard=args.shard,
            include_probe=True,
        )
    payload = build_tiered_payload(tiers)
    if "quick" in tiers and not args.no_reference:
        c_problems = check_core_equivalence(payload)
        if c_problems:
            for problem in c_problems:
                print(f"CORE MISMATCH: {problem}", file=sys.stderr)
            return 1
        print("core engine equivalence (vector vs object reference): OK")
    if "quick" in tiers and not args.no_guidance:
        g_problems = check_guidance_equivalence(payload)
        if g_problems:
            for problem in g_problems:
                print(f"GUIDANCE MISMATCH: {problem}", file=sys.stderr)
            return 1
        print("guidance on/off equivalence: OK")
    if not args.no_kernel:
        k_problems = check_kernel_equivalence(payload)
        if k_problems:
            for problem in k_problems:
                print(f"KERNEL MISMATCH: {problem}", file=sys.stderr)
            return 1
        print(
            f"kernel equivalence vs python fast path: OK "
            f"(backend: {kernel_backend_name()})"
        )
    ran_parallel = ("quick" in tiers and _wants_parallel(args.workers)) or (
        "full" in tiers and _wants_parallel(args.full_workers)
    )
    if ran_parallel:
        eq_problems = check_parallel_equivalence(payload)
        if eq_problems:
            for problem in eq_problems:
                print(f"PARALLEL MISMATCH: {problem}", file=sys.stderr)
            return 1
        print("parallel equivalence vs sequential: OK")
    for line in _decision_lines(payload):
        print(line)
    for tier_name, flat in tiers.items():
        summary = flat.get("summary", {})
        if "geomean_speedup" in summary:
            print(
                f"[{tier_name}] geomean speedup "
                f"{summary['geomean_speedup']:.2f}x "
                f"(min {summary['min_speedup']:.2f}x)"
            )
        if "geomean_core_phase_speedup" in summary:
            print(
                f"[{tier_name}] geomean core-phase speedup "
                f"(graph+flip+commit) "
                f"{summary['geomean_core_phase_speedup']:.2f}x "
                f"(min {summary['min_core_phase_speedup']:.2f}x)"
            )
        if "geomean_guidance_speedup" in summary:
            print(
                f"[{tier_name}] geomean guidance speedup "
                f"{summary['geomean_guidance_speedup']:.2f}x "
                f"(min {summary['min_guidance_speedup']:.2f}x, "
                f"{summary['geomean_expansion_reduction']:.1f}x fewer "
                "expansions)"
            )
        if "geomean_kernel_speedup" in summary:
            print(
                f"[{tier_name}] geomean kernel speedup "
                f"{summary['geomean_kernel_speedup']:.2f}x "
                f"(min {summary['min_kernel_speedup']:.2f}x, "
                f"backend {summary.get('kernel_backend', '?')})"
            )
        if "geomean_parallel_speedup" in summary:
            print(
                f"[{tier_name}] geomean parallel speedup "
                f"{summary['geomean_parallel_speedup']:.2f}x "
                f"(min {summary['min_parallel_speedup']:.2f}x, "
                f"max off-process fraction "
                f"{summary.get('max_off_process_fraction', 0.0):.2f})"
            )
    skip_reason = full_tier_skip_reason(payload)
    if args.require_engaged:
        if skip_reason is not None:
            payload.setdefault("gates", {})["full_tier_engaged"] = {
                "status": "skipped",
                "reason": skip_reason,
            }
            print(f"full tier parallel engagement: SKIPPED ({skip_reason})")
        else:
            problems = check_full_tier_engaged(payload)
            if problems:
                for problem in problems:
                    print(f"NOT ENGAGED: {problem}", file=sys.stderr)
                return 1
            payload.setdefault("gates", {})["full_tier_engaged"] = {
                "status": "ok"
            }
            print("full tier parallel engagement: OK")
    if args.min_parallel_speedup is not None:
        if skip_reason is not None:
            payload.setdefault("gates", {})["min_parallel_speedup"] = {
                "status": "skipped",
                "reason": skip_reason,
            }
            print(
                f"full tier parallel speedup gate: SKIPPED ({skip_reason})"
            )
        else:
            geo = tiers.get("full", {}).get("summary", {}).get(
                "geomean_parallel_speedup"
            )
            if geo is None or geo < args.min_parallel_speedup:
                print(
                    f"PARALLEL SPEEDUP: full-tier geomean "
                    f"{geo if geo is not None else 'n/a'} is below the "
                    f"required {args.min_parallel_speedup}",
                    file=sys.stderr,
                )
                return 1
            payload.setdefault("gates", {})["min_parallel_speedup"] = {
                "status": "ok"
            }
            print(
                f"full tier geomean parallel speedup {geo:.2f}x >= "
                f"{args.min_parallel_speedup}"
            )
    if args.phase_table:
        print(render_phase_table(payload))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        problems = check_against_baseline(payload, baseline, args.tolerance)
        if problems:
            for problem in problems:
                print(f"PERF REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"perf check vs {args.check}: OK (tolerance {args.tolerance:.0%})")
    if args.ledger or args.ledger_gate:
        ledger_problems = record_to_ledger(
            payload, ledger_dir=args.ledger_dir, gate=args.ledger_gate
        )
        if ledger_problems:
            for problem in ledger_problems:
                print(f"LEDGER REGRESSION: {problem}", file=sys.stderr)
            return 1
        gate_note = " (gated vs prior records)" if args.ledger_gate else ""
        recorded = sum(
            len(flat.get("workloads", []))
            for _, flat in iter_tier_payloads(payload)
        )
        print(f"ledger: {recorded} records appended{gate_note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
