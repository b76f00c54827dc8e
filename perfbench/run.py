#!/usr/bin/env python3
"""End-to-end benchmark of the SADP router, run from the repository root.

    python3 perfbench/run.py --workload route-test1 --seed 1 --seconds 30 --trace 0

Workloads (see ``WORKLOADS``):

* ``route-test1`` -- the paper's Test1 at scale 1.0 (1,500 fixed-pin nets,
  170x170 tracks, 3 layers), serial ``SadpRouter.route_all``.
* ``route-test6`` -- Test6 at scale 1.0 (multi-candidate pins), the same
  layers in a different mix; repeated passes.
* ``service-mix`` -- an in-process ``RoutingService`` (one inline worker,
  empty store) driven as a closed loop by two ``ServiceClient``
  connections: 100 all-stage jobs of Test1 at scale 0.15, half duplicates
  of one design, half fresh designs.

The inputs are fixed per workload (design seeds, job order), so every run
of a check does identical work and the quality metrics repeat exactly;
``--seed`` is recorded only. ``--holdout`` swaps in the held-out design
seed for confirming a claim on inputs not used while writing it.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``). The line before it records host facts and the
engine branches that ran. The exit code is non-zero when a correctness gate
fails or the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from speed import MARGIN_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: Seconds of repeated set-ups (at least ``MIN_SETUPS`` of them), timed
#: before the measured work. ``setup_s`` is their median; the batch spans
#: ~10 speed-probe samples. With a second batch after the passes, the
#: Test1 median flipped between ~22 ms and ~28 ms from run to run.
SETUP_SECONDS = 1.0
MIN_SETUPS = 5
#: Track window (centred) whose masks are synthesized and verified after
#: routing a paper-scale die; full-die decomposition costs minutes.
VERIFY_CLIP_TRACKS = 24

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "route-test1": {"kind": "route", "circuit": "Test1", "scale": 1.0, "seed": 2014, "holdout": 2015},
    "route-test6": {"kind": "route", "circuit": "Test6", "scale": 1.0, "seed": 2014, "holdout": 2015},
    "service-mix": {
        "kind": "service", "circuit": "Test1", "scale": 0.15, "seed": 2014, "holdout": 2015, "jobs": 100,
    },
}

#: Tiny-scale variants for the benchmark's own smoke test.
SMOKE_SCALE = 0.1
SMOKE_JOBS = 6

QUALITY = (
    "routability_pct",
    "overlay_units",
    "wirelength",
    "vias",
    "phys_hard_overlays",
    "phys_cut_conflicts",
)

UNITS = {
    "setup_s": "s",
    "route_s": "s",
    "nets_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "jobs_per_s": "1/s",
    "ok_pct": "%",
    "peak_rss_mb": "MB",
    "routability_pct": "%",
    "overlay_units": "units",
    "wirelength": "tracks",
    "vias": "count",
    "phys_hard_overlays": "count",
    "phys_cut_conflicts": "count",
}


Window = Tuple[float, float]


class GateFailure(Exception):
    """A correctness gate did not hold."""


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def isolate_state(tmp: Path) -> None:
    """Point every path the program writes at the run's temp dir."""
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
    os.environ["REPRO_LEDGER_DIR"] = str(tmp / "ledger")


def check_digest(key: str, quality: Dict[str, float], write: bool) -> None:
    """Gate on the stored quality digest of ``key`` (or store it)."""
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    observed = {k: round(float(quality[k]), 6) for k in QUALITY}
    if write:
        digests[key] = observed
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    expected = digests.get(key)
    if expected is None:
        raise GateFailure(f"no stored quality digest for {key}")
    if expected != observed:
        diff = {k: (expected.get(k), observed[k]) for k in QUALITY if expected.get(k) != observed[k]}
        raise GateFailure(f"quality differs from the digest of {key}: {diff}")


def verify_layers(grid, result) -> Tuple[int, int]:
    """Synthesize and verify the centred clip of every layer.

    Returns (physical hard overlays, physical cut conflicts); raises when a
    layer does not print correctly.
    """
    from repro import decompose
    from repro.geometry import Rect

    size = min(VERIFY_CLIP_TRACKS, grid.width, grid.height)
    x0 = (grid.width - size) // 2
    y0 = (grid.height - size) // 2
    clip = Rect(x0, y0, x0 + size, y0 + size)
    hard = conflicts = 0
    for layer in range(grid.num_layers):
        targets = decompose.routing_to_targets(grid, result, layer, clip=clip)
        if not targets:
            continue
        report = decompose.verify_decomposition(decompose.synthesize_masks(targets, grid.rules))
        if not report.prints_correctly:
            raise GateFailure(f"layer {layer} clip does not print correctly")
        hard += report.overlay.hard_overlay_count
        conflicts += len(report.cut_conflicts)
    return hard, conflicts


def route_quality(result) -> Dict[str, float]:
    return {
        "routability_pct": 100.0 * result.routability,
        "overlay_units": result.overlay_units,
        "wirelength": result.total_wirelength,
        "vias": result.total_vias,
    }


def gate_result(result, label: str) -> None:
    if result.cut_conflicts != 0:
        raise GateFailure(f"{label}: {result.cut_conflicts} cut conflicts")
    if result.hard_overlays != 0:
        raise GateFailure(f"{label}: {result.hard_overlays} hard overlays within the model")


# ---------------------------------------------------------------------- #
# Route workloads
# ---------------------------------------------------------------------- #


def build_router(spec, scale: float, seed: int):
    from repro.bench.workloads import generate_benchmark
    from repro.router import SadpRouter

    grid, nets = generate_benchmark(spec, scale=scale, seed=seed)
    return SadpRouter(grid, nets)


def time_setups(build, after=None) -> List[Window]:
    """Time ``build()`` repeatedly for ``SETUP_SECONDS``; ``after`` gets each
    result once its window is closed."""
    windows: List[Window] = []
    start = time.perf_counter()
    while len(windows) < MIN_SETUPS or time.perf_counter() - start < SETUP_SECONDS:
        gc.collect()
        t0 = time.perf_counter()
        out = build()
        windows.append((t0, time.perf_counter()))
        if after is not None:
            after(out)
        out = None
    return windows


def route_pass(router) -> Tuple[Any, Window]:
    t0 = time.perf_counter()
    result = router.route_all()
    window = (t0, time.perf_counter())
    gate_result(result, "route_all")
    for layer, graph in enumerate(router.graphs):
        if graph.has_hard_odd_cycle():
            raise GateFailure(f"layer {layer} constraint graph has a hard odd cycle")
    return result, window


def run_route(cfg: Dict[str, Any], design_seed: int, seconds: float, trace: bool, probe) -> Dict[str, Any]:
    from repro.bench.workloads import spec_by_name

    spec = spec_by_name(cfg["circuit"])
    setups = time_setups(lambda: build_router(spec, cfg["scale"], design_seed))
    gc.collect()
    router = build_router(spec, cfg["scale"], design_seed)
    passes: List[Window] = []
    qualities = []
    start = time.perf_counter()
    while True:
        result, window = route_pass(router)
        passes.append(window)
        qualities.append(route_quality(result))
        fastest = min(b - a for a, b in passes)
        if trace or time.perf_counter() - start + fastest > seconds:
            break
        router = result = None
        gc.collect()
        router = build_router(spec, cfg["scale"], design_seed)
    if any(q != qualities[0] for q in qualities):
        raise GateFailure("repeated passes of one design gave different results")
    quality = dict(qualities[0])
    quality["phys_hard_overlays"], quality["phys_cut_conflicts"] = verify_layers(router.grid, result)
    out: Dict[str, Any] = {
        "setups": [probe.scaled(*w) for w in setups],
        "passes": [probe.scaled(*w) for w in passes],
        "quality": quality,
        "facts": {
            "wall_setups_s": [b - a for a, b in setups],
            "wall_passes_s": [b - a for a, b in passes],
            "core": router.core,
            "parallel": router.parallel_stats.mode if router.parallel_stats else "serial (workers=1)",
            "searches": router.engine.total_searches,
            "guided_searches": router.engine.total_guided_searches,
            "nets": len(router.netlist),
        },
    }
    if trace:
        out["trace"] = traced_route_pass(spec, cfg, design_seed, out["passes"][0], quality, probe)
    return out


def traced_route_pass(spec, cfg, design_seed: int, untraced_s: float, quality, probe) -> Dict[str, float]:
    """One pass with every layer wrapped and obs on, plus the clip verify."""
    from repro import obs

    from tracing import SERVICE_ONLY, SelfTimer, install_layers, layer_metrics

    router = build_router(spec, cfg["scale"], design_seed)
    tracer = SelfTimer()
    install_layers(tracer)
    try:
        with obs.session():
            result, window = route_pass(router)
        verify_layers(router.grid, result)
    finally:
        tracer.restore()
    if any(quality[k] != v for k, v in route_quality(result).items()):
        raise GateFailure("the traced pass routed differently from the untraced one")
    metrics = layer_metrics(tracer)
    metrics.update({name: 0.0 for name in SERVICE_ONLY})
    metrics["trace.overhead_ratio"] = probe.scaled(*window) / untraced_s
    return metrics


# ---------------------------------------------------------------------- #
# Service workload
# ---------------------------------------------------------------------- #


def job_plan(design_seed: int, jobs: int) -> List[int]:
    """Design seeds of the submissions: fresh designs alternating with
    duplicates of one design. The order is fixed because it sets how often
    a job queues behind a fresh one, which sets the latency tail."""
    plan: List[int] = []
    for k in range(jobs):
        plan.append(design_seed if k % 2 else design_seed * 100 + k // 2)
    return plan


def start_service(tmp: Path, tag: str):
    from repro.service import RoutingService

    return RoutingService(
        workers=0,
        cache_dir=str(tmp / f"store-{tag}"),
        spool_dir=str(tmp / f"spool-{tag}"),
        ledger=False,
        ledger_dir=str(tmp / "ledger"),
    ).start_background()


def service_round(cfg, plan: List[int], tmp: Path, tag: str, with_quality: bool, probe) -> Dict[str, Any]:
    """Drive one fresh service through ``plan`` with a two-client closed loop."""
    from repro.service import ServiceClient, ServiceError

    svc = start_service(tmp, tag)
    records: List[Dict[str, Any]] = []
    lock = threading.Lock()
    cursor = [0]

    def client_loop(cid: int) -> None:
        client = ServiceClient(svc.url, timeout_s=60.0, tenant=f"client{cid}")
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(plan):
                return
            payload = {"circuit": cfg["circuit"], "scale": cfg["scale"], "seed": plan[index]}
            record: Dict[str, Any] = {"index": index, "seed": plan[index], "status": "error"}
            t0 = time.perf_counter()
            try:
                job = client.submit(payload)
                # The event stream returns once the job is terminal; it
                # loads the server far less than polling the snapshot.
                client.events(job["job_id"], wait=True)
                snap = client.job(job["job_id"])
                record.update(snap, window=(t0, time.perf_counter()))
                if snap["status"] == "done":
                    f0 = time.perf_counter()
                    client.artifact(job["job_id"], "report")
                    record["fetch_s"] = time.perf_counter() - f0
            except (ServiceError, OSError) as exc:
                record["error"] = str(exc)
            with lock:
                records.append(record)

    threads = [threading.Thread(target=client_loop, args=(k,), daemon=True) for k in range(2)]
    start = time.perf_counter()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        end = time.perf_counter()
        records.sort(key=lambda r: r["index"])
        for rec in records:
            if "window" in rec:
                rec["latency"] = probe.scaled(*rec["window"])
                rec["route_s"] = [s * probe.factor(*rec["window"]) for s in route_stage_seconds(rec)]
        out: Dict[str, Any] = {"records": records, "makespan": probe.scaled(start, end), "wall_makespan_s": end - start}
        if with_quality:
            out["quality"], out["routed_nets"] = service_quality(ServiceClient(svc.url), out["records"])
    finally:
        svc.stop()
    return out


def service_quality(client, records: List[Dict[str, Any]]) -> Tuple[Dict[str, float], int]:
    """Aggregate quality over the distinct designs, gating each one.

    A design counts once, from its first finished job. A failed or refused
    job counts against ``ok_pct``; a design that no job finished fails the
    gate, since its quality is part of the digest.
    """
    from repro.router.io import result_from_dict

    by_seed: Dict[int, str] = {}
    for rec in records:
        if rec["status"] == "done":
            by_seed.setdefault(rec["seed"], rec["job_id"])
    missing = sorted({r["seed"] for r in records} - set(by_seed))
    if missing:
        rec = next(r for r in records if r["seed"] == missing[0])
        raise GateFailure(f"no job of design seed {missing[0]} finished: {rec.get('error', rec['status'])}")
    routed = nets = 0
    quality = {k: 0.0 for k in QUALITY}
    for seed, job_id in sorted(by_seed.items()):
        result = result_from_dict(client.artifact(job_id, "routing")["payload"]["result"])
        gate_result(result, f"design seed {seed}")
        routed += result.routed_count
        nets += len(result.routes)
        for key, value in route_quality(result).items():
            quality[key] += value
        for layer in client.artifact(job_id, "verify")["payload"]["layers"]:
            if not layer["prints_correctly"]:
                raise GateFailure(f"design seed {seed} layer {layer['layer']} does not print correctly")
            quality["phys_hard_overlays"] += layer["hard_overlay_count"]
            quality["phys_cut_conflicts"] += layer["cut_conflicts"]
    quality["routability_pct"] = 100.0 * routed / nets
    return quality, nets


def time_service_setups(cfg, plan: List[int], tmp: Path) -> List[Window]:
    """Time set-ups of a service start-up (construction + listening) plus
    the design generation and router construction of every distinct design
    in ``plan``, the work the jobs do before they route."""
    from repro.bench.workloads import spec_by_name

    spec = spec_by_name(cfg["circuit"])
    seeds = sorted(set(plan))
    count = itertools.count()

    def build():
        svc = start_service(tmp, f"setup{next(count)}")
        for seed in seeds:
            build_router(spec, cfg["scale"], seed)
        return svc

    windows = time_setups(build, after=lambda svc: svc.stop())
    # Stay idle until the probe samples that rescale the set-ups are taken:
    # samples taken while job threads hold the GIL read the kernel slow.
    time.sleep(MARGIN_S)
    return windows


def run_service(cfg, design_seed: int, tmp: Path, trace: bool, probe) -> Dict[str, Any]:
    # Timed before the jobs: after them, the median bare start-up varied
    # 0.2-0.5 ms from run to run.
    plan = job_plan(design_seed, cfg["jobs"])
    setups = time_service_setups(cfg, plan, tmp)
    timed = service_round(cfg, plan, tmp, "timed", True, probe)
    out: Dict[str, Any] = {
        "setups": [probe.scaled(*w) for w in setups],
        "timed": timed,
        "quality": timed["quality"],
        "facts": {
            **service_facts(timed["records"]),
            "wall_setups_s": [b - a for a, b in setups],
            "wall_makespan_s": timed["wall_makespan_s"],
        },
    }
    if trace:
        from tracing import SelfTimer, install_layers, layer_metrics

        tracer = SelfTimer()
        install_layers(tracer)
        try:
            traced = service_round(cfg, plan, tmp, "traced", False, probe)
        finally:
            tracer.restore()
        if any(r["status"] != "done" for r in traced["records"]):
            raise GateFailure("a job of the traced round did not finish")
        metrics = layer_metrics(tracer)
        metrics.update(service_layers(traced["records"]))
        metrics["trace.overhead_ratio"] = mean_route_s(traced["records"]) / mean_route_s(timed["records"])
        out["trace"] = metrics
    return out


def service_facts(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Engine branches of the service's routers: the job config's defaults
    (the service exposes no router object) and the jobs' search counts."""
    import inspect

    from repro.pipeline import PipelineConfig
    from repro.router import SadpRouter

    workers = PipelineConfig(circuit="Test1").workers
    return {
        "core": inspect.signature(SadpRouter).parameters["core"].default,
        "parallel": f"serial (workers={workers})" if workers == 1 else f"workers={workers}",
        "searches": sum(r["counters"].get("astar_searches_total", 0) for r in records),
    }


def route_stage_seconds(record: Dict[str, Any]) -> List[float]:
    """Wall seconds of the job's route stage, when it ran (not cached)."""
    return [s["seconds"] for s in record["stages"] if s["stage"] == "route" and s["status"] == "run"]


def mean_route_s(records: List[Dict[str, Any]]) -> float:
    return statistics.mean(s for rec in records for s in rec.get("route_s", ()))


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #


def route_metrics(out: Dict[str, Any]) -> Tuple[Dict[str, float], int, int]:
    passes = out["passes"]
    nets = out["facts"]["nets"]
    metrics = {
        "setup_s": statistics.median(out["setups"]),
        # The mean pass of the run (one pass for Test1).
        "route_s": statistics.mean(passes),
        "nets_per_s": nets / statistics.mean(passes),
        # A route workload's job is one route_all pass.
        "job_p50_s": statistics.median(passes),
        "job_p90_s": percentile(passes, 0.9),
        "jobs_per_s": len(passes) / sum(passes),
        # A pass cannot fail without failing a gate, so this reads 100.
        "ok_pct": 100.0,
    }
    return metrics, len(passes), 0


def service_metrics(out: Dict[str, Any]) -> Tuple[Dict[str, float], int, int]:
    timed = out["timed"]
    records = timed["records"]
    done = [r for r in records if r["status"] == "done"]
    failed = len(records) - len(done)
    latencies = [r["latency"] for r in done]
    route_s = [s for rec in done for s in rec["route_s"]]
    metrics = {
        "setup_s": statistics.median(out["setups"]),
        # The mean route stage of the executed (fresh) jobs.
        "route_s": statistics.mean(route_s),
        "nets_per_s": timed["routed_nets"] / sum(route_s),
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": percentile(latencies, 0.9),
        "jobs_per_s": len(done) / timed["makespan"],
        # Failed, cancelled and refused (429) jobs count against it.
        "ok_pct": 100.0 * len(done) / len(records),
    }
    return metrics, len(records), failed


def service_layers(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Service-level per-layer metrics of the traced round, from snapshots."""
    waits = [r["started_unix"] - r["created_unix"] for r in records]
    runs = [r["finished_unix"] - r["started_unix"] for r in records]
    stages = [s for r in records for s in r["stages"]]
    hits = sum(1 for s in stages if s["status"] in ("hit", "coalesced"))
    return {
        "service.queue_wait_p50_s": statistics.median(waits),
        "service.queue_wait_p90_s": percentile(waits, 0.9),
        "service.run_s": statistics.median(runs),
        "service.fetch_s": statistics.median(r["fetch_s"] for r in records),
        "pipeline.stage_hit_ratio": hits / len(stages),
    }


def host_facts(workload: str, design_seed: int, args) -> Dict[str, Any]:
    import numpy

    from repro.router.kernel import kernel_backend_name

    return {
        "workload": workload,
        "design_seed": design_seed,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernel_backend_name(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("nets_per_call"):
        return "nets"
    return "count"


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=0, help="recorded only: the inputs are fixed per workload (see --holdout)"
    )
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true", help="route the held-out design seed")
    parser.add_argument("--smoke", action="store_true", help="tiny-scale variant (smoke test)")
    parser.add_argument(
        "--write-digest", action="store_true", help="store this run's quality as the digest instead of checking it"
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    cfg = dict(WORKLOADS[args.workload])
    if args.smoke:
        cfg["scale"] = SMOKE_SCALE
        cfg["jobs"] = SMOKE_JOBS
    design_seed = cfg["holdout"] if args.holdout else cfg["seed"]
    digest_key = f"{'smoke:' if args.smoke else ''}{args.workload}@{design_seed}"

    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_parent))
    isolate_state(tmp)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        try:
            import repro  # noqa: F401
            from repro import obs
        except ImportError as exc:
            print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        obs.disable()
        facts = host_facts(args.workload, design_seed, args)
        correct = True
        error = ""
        out: Dict[str, Any] = {}
        try:
            with SpeedProbe() as probe:
                if cfg["kind"] == "route":
                    out = run_route(cfg, design_seed, args.seconds, bool(args.trace), probe)
                    metrics, attempted, failed = route_metrics(out)
                else:
                    out = run_service(cfg, design_seed, tmp, bool(args.trace), probe)
                    metrics, attempted, failed = service_metrics(out)
            out["facts"]["probe_kernel_ms"] = 1e3 * probe.mean_kernel_s()
            out["facts"]["probe_max_busy_cores"] = probe.max_busy_cores()
            out["facts"]["probe_unscaled_intervals"] = probe.unscaled
            check_digest(digest_key, out["quality"], args.write_digest)
            if args.trace:
                result_metrics = {
                    k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(out["trace"].items())
                }
            else:
                metrics["peak_rss_mb"] = peak_rss_mb()
                metrics.update(out["quality"])
                result_metrics = {k: {"value": metrics[k], "unit": UNITS[k]} for k in UNITS}
        except GateFailure as exc:
            correct = False
            error = str(exc)
            attempted, failed, result_metrics = 1, 1, {}
        facts.update(out.get("facts", {}))
        if out:
            facts["scaled_setups_s"] = out["setups"]
            if "passes" in out:
                facts["scaled_passes_s"] = out["passes"]
        if error:
            facts["error"] = error
            print(f"perfbench: correctness gate failed: {error}", file=sys.stderr)
        print("facts " + json.dumps(facts, sort_keys=True, default=str))
        print(
            json.dumps(
                {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics},
                sort_keys=True,
            )
        )
        return 0 if correct else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
