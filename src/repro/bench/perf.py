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

The ``reference`` mode routes with
:func:`repro.router.reference.reference_router` — the dict-based A*, the
object scenario detector and the object-per-edge constraint graph —
while every other mode runs the production router, so the headline
speedup is the full oracle-vs-production A/B and ``core_phase_speedup``
isolates the core engine's share (graph+flip+commit) of it.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..obs.export import phase_totals
from ..obs.provenance import collect_provenance
from ..router import SadpRouter
from ..router.reference import reference_router
from .workloads import generate_benchmark, spec_by_name

#: Schema of one tier's flat payload (what :func:`run_perf` returns).
SCHEMA = "repro-bench-perf/1"

#: Schema of the tiered ``BENCH_perf.json`` envelope: ``{"tiers":
#: {"quick": <flat payload>}}`` plus hoisted host/provenance (older files
#: also carry a ``"full"`` tier). :func:`iter_tier_payloads` normalises
#: both shapes.
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
#: ``reference`` routes on the oracles (:func:`reference_router`), so the
#: A/B measures the production router against them;
#: :func:`check_core_equivalence` gates their bit-identity. ``fast`` is
#: the unguided production router (the guidance-off side of the A/B);
#: ``guided`` enables the future-cost corridor maps.
_MODE_CONFIG = {
    "reference": dict(guidance="off"),
    "fast": dict(guidance="off"),
    "guided": dict(guidance="auto"),
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
    routability_pct: float
    overlay_units: float


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
    #: Per-phase runtime split of this mode's own instrumented run —
    #: every sample carries its own phases (the split used to be
    #: emitted once per workload, which misattributed the reference
    #: profile to the fast path).
    phases: Dict[str, float] = field(default_factory=dict)
    phases_route_all_s: float = 0.0

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
        if self.guided_searches:
            out["guided_searches"] = self.guided_searches
        if self.phases:
            out["phases_s"] = {k: round(v, 6) for k, v in self.phases.items()}
            out["phases_route_all_s"] = round(self.phases_route_all_s, 6)
        return out


@dataclass
class WorkloadResult:
    circuit: str
    scale: float
    seed: int
    fast: ModeSample
    reference: Optional[ModeSample] = None
    guided: Optional[ModeSample] = None

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
        return out


def _make_router(circuit: str, scale: float, seed: int, mode: str) -> SadpRouter:
    """A fresh router instance configured for one bench mode."""
    spec = spec_by_name(circuit)
    grid, nets = generate_benchmark(spec, scale=scale, seed=seed)
    build = reference_router if mode == "reference" else SadpRouter
    return build(grid, nets, **_MODE_CONFIG[mode])


def _run_once(circuit: str, scale: float, seed: int, mode: str) -> _Run:
    """One fresh instance + route_all with the mode's configuration."""
    router = _make_router(circuit, scale, seed, mode)
    t0 = time.perf_counter()
    result = router.route_all()
    wall = time.perf_counter() - t0
    return _Run(
        wall_s=wall,
        expansions=router.engine.total_expansions,
        searches=router.engine.total_searches,
        guided_searches=router.engine.total_guided_searches,
        routability_pct=result.routability * 100.0,
        overlay_units=result.overlay_units,
    )


def _phase_split(
    circuit: str, scale: float, seed: int, mode: str = "fast"
) -> Tuple[Dict[str, float], float]:
    """One instrumented (untimed-for-comparison) run for the phase split.

    Returns (phase seconds, route_all seconds of that same run). The
    buckets are disjoint — ``commit`` is measured as the commit span's
    *self* time — so their sum never exceeds the route_all total.
    """
    router = _make_router(circuit, scale, seed, mode)
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


def run_perf(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    scales: Optional[Dict[str, float]] = None,
    seed: int = 2014,
    rounds: int = 3,
    include_reference: bool = True,
    include_guidance: bool = True,
    include_phases: bool = True,
    verbose: bool = True,
) -> dict:
    """Run the perf bench; returns one tier's flat payload.

    With ``include_guidance`` each workload runs a guidance-on/off A/B
    of the fast path (``guided`` sample, ``guidance_speedup``,
    ``expansion_reduction``); :func:`check_guidance_equivalence` gates
    that the guided run produced identical metrics from strictly fewer
    (or equal) expansions.
    """
    if obs.is_enabled():
        raise RuntimeError(
            "perf bench must run with observability off (it measures the "
            "production configuration); call obs.disable() first"
        )
    scales = {**DEFAULT_SCALES, **(scales or {})}
    results: List[WorkloadResult] = []
    for circuit in workloads:
        scale = scales.get(circuit, 0.15)
        modes = ["fast"]
        if include_reference:
            modes.insert(0, "reference")
        if include_guidance:
            modes.append("guided")
        samples: Dict[str, List[_Run]] = {m: [] for m in modes}
        for rnd in range(rounds):
            # Interleaved so all modes see the same machine drift, and
            # rotated so no mode always occupies the same slot of the
            # round — a speed trend within a round would otherwise bias
            # whichever mode consistently ran first (or last).
            for mode in modes[rnd % len(modes) :] + modes[: rnd % len(modes)]:
                samples[mode].append(_run_once(circuit, scale, seed, mode))

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
            )
            if include_phases:
                sample.phases, sample.phases_route_all_s = _phase_split(
                    circuit, scale, seed, mode
                )
            return sample

        wl = WorkloadResult(
            circuit=circuit,
            scale=scale,
            seed=seed,
            fast=best("fast"),
            reference=best("reference") if include_reference else None,
            guided=best("guided") if include_guidance else None,
        )
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
            print(line)
    payload = {
        "schema": SCHEMA,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
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
            for variant in ("reference", "fast", "guided"):
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


def check_core_equivalence(payload: dict) -> List[str]:
    """Bit-identity gate for the vectorized core engine.

    The ``reference`` sample runs on the oracles (the object-per-edge
    constraint graph/coloring/commit engine and the dict A*, see
    :func:`reference_router`); every other mode runs the SoA vector
    engine. The rewrite is a pure representation change, so the
    committed result must be exactly identical — any routability or
    overlay drift means the vector engine changed a decision, not just
    its speed. Returns problems (empty = pass).
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
                    meta={
                        "speedup": wl.get("speedup"),
                        "guidance_speedup": wl.get("guidance_speedup"),
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
        "--no-phases", action="store_true", help="skip the instrumented phase split"
    )
    parser.add_argument(
        "--phase-table",
        action="store_true",
        help="print the per-variant phase table after the run",
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
    scales = {c: min(s * args.scale_mult, 1.0) for c, s in DEFAULT_SCALES.items()}
    print(f"== quick tier ({', '.join(workloads)}) ==")
    quick = run_perf(
        workloads=workloads,
        scales=scales,
        seed=args.seed,
        rounds=args.rounds,
        include_reference=not args.no_reference,
        include_guidance=not args.no_guidance,
        include_phases=not args.no_phases,
    )
    payload = build_tiered_payload({"quick": quick})
    if not args.no_reference:
        c_problems = check_core_equivalence(payload)
        if c_problems:
            for problem in c_problems:
                print(f"CORE MISMATCH: {problem}", file=sys.stderr)
            return 1
        print("core engine equivalence (vector vs object reference): OK")
    if not args.no_guidance:
        g_problems = check_guidance_equivalence(payload)
        if g_problems:
            for problem in g_problems:
                print(f"GUIDANCE MISMATCH: {problem}", file=sys.stderr)
            return 1
        print("guidance on/off equivalence: OK")
    summary = quick.get("summary", {})
    if "geomean_speedup" in summary:
        print(
            f"geomean speedup {summary['geomean_speedup']:.2f}x "
            f"(min {summary['min_speedup']:.2f}x)"
        )
    if "geomean_core_phase_speedup" in summary:
        print(
            f"geomean core-phase speedup (graph+flip+commit) "
            f"{summary['geomean_core_phase_speedup']:.2f}x "
            f"(min {summary['min_core_phase_speedup']:.2f}x)"
        )
    if "geomean_guidance_speedup" in summary:
        print(
            f"geomean guidance speedup "
            f"{summary['geomean_guidance_speedup']:.2f}x "
            f"(min {summary['min_guidance_speedup']:.2f}x, "
            f"{summary['geomean_expansion_reduction']:.1f}x fewer "
            "expansions)"
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
