"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``route``
    Route a text netlist on a fresh grid, print the report, optionally
    save JSON/SVG artifacts::

        python -m repro route nets.txt --width 40 --height 40 \
            --out result.json --svg layer0.svg --report

``pipeline``
    The staged flow with content-hash caching: ``run`` executes
    load_design → build_grid → route → decompose → verify → report
    against a ``.repro_cache/`` artifact store (re-runs with an unchanged
    prefix are cache hits), ``show`` prints the plan or the store
    contents, ``clean`` empties the store::

        python -m repro pipeline run nets.txt --width 40 --height 40
        python -m repro pipeline run Test1 --scale 0.2
        python -m repro pipeline show --cache-dir .repro_cache
        python -m repro pipeline clean

``bench``
    Route one of the paper's benchmarks (Test1..Test10) at a given scale,
    with the proposed router or a baseline::

        python -m repro bench Test1 --scale 0.2 --router gao-pan

``serve``
    The multi-tenant routing job service: an async HTTP API
    (``POST /jobs``, event streams, artifacts, ``/metrics``) over a
    bounded worker pool and the shared artifact store::

        python -m repro serve --port 8347 --service-workers 2

``scenarios``
    Print the scenario color-rule table (the paper's Table II).

``pipeline clean`` doubles as the cache GC (``--max-age-days`` /
``--max-bytes``); every ``.repro_cache/`` default honours the
``REPRO_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from .errors import ReproError

#: ``--router`` choices: ``repro.pipeline.KNOWN_ROUTERS``, restated because
#: a command must not import the pipeline before it runs.
ROUTERS = ("ours", "gao-pan", "cut16", "du")


def _route_exit_code(result) -> int:
    """Nonzero when anything is wrong with the committed result: an
    unrouted net or a remaining cut conflict."""
    if result.cut_conflicts != 0:
        return 1
    if result.routed_count != len(result.routes):
        return 1
    return 0


def _print_route_outputs(args: argparse.Namespace, run) -> None:
    """The route/pipeline-run shared tail: summary, report, JSON, SVG."""
    from .analysis.report import instrumentation_digest
    from .router import save_result

    result = run.artifact("routing").result()
    print(result.summary())
    if args.report:
        report = run.artifact("report").report()
        # Re-attach the live instrumentation digest (run-local, never
        # part of the cached artifact).
        report.instrumentation = instrumentation_digest()
        print()
        print(report.to_text())
    if args.out:
        path = save_result(result, args.out)
        print(f"result saved to {path}")
    if args.svg:
        from .pipeline import replay_onto_grid
        from .viz import render_routing_svg

        grid = replay_onto_grid(run.artifact("grid").build(), result)
        path = render_routing_svg(
            grid, result.colorings, args.svg, layer=args.svg_layer
        )
        print(f"layer M{args.svg_layer + 1} rendered to {path}")


def _cmd_route(args: argparse.Namespace) -> int:
    """Thin wrapper over the pipeline, on a store in a temporary
    directory: a one-shot run leaves no cache behind."""
    import tempfile

    from .pipeline import ArtifactStore, Pipeline, PipelineConfig, observed_command

    config = PipelineConfig(
        netlist=args.netlist,
        width=args.width,
        height=args.height,
        num_layers=args.layers,
    )
    with observed_command(args, command="route", netlist=args.netlist):
        targets = ("report",) if args.report else ("route",)
        with tempfile.TemporaryDirectory() as tmp:
            run = Pipeline(config, store=ArtifactStore(tmp)).run(targets=targets)
        _print_route_outputs(args, run)
        result = run.artifact("routing").result()
    return _route_exit_code(result)


def _cmd_pipeline_run(args: argparse.Namespace) -> int:
    from .pipeline import ALL_STAGES, Pipeline, observed_command

    config = _pipeline_config_from_args(args)
    with observed_command(args, command="pipeline run", design=args.design):
        pipe = Pipeline(config)
        run = pipe.run(targets=ALL_STAGES, force=args.force)
        print(run.to_text())
        _print_route_outputs(args, run)
        verify = run.artifact("verify")
        layers = verify.layer_reports()
        conflicts = sum(entry["cut_conflicts"] for entry in layers)
        hard = sum(entry["hard_overlay_count"] for entry in layers)
        print(
            f"decomposition: {'ok' if verify.ok else 'NOT ok'} — "
            f"{len(layers)} layers verified, {conflicts} cut conflicts, "
            f"{hard} hard overlays"
        )
        result = run.artifact("routing").result()
    return _route_exit_code(result)


def _cmd_pipeline_show(args: argparse.Namespace) -> int:
    from .pipeline import ALL_STAGES, ArtifactStore, Pipeline

    if args.design:
        pipe = Pipeline(_pipeline_config_from_args(args))
        for record in pipe.plan(targets=ALL_STAGES):
            print(record.describe())
        return 0
    cache_dir = _resolve_cache_dir(args)
    store = ArtifactStore(cache_dir)
    entries = store.entries()
    if not entries:
        print(f"{cache_dir}: empty")
        return 0
    total = 0
    for entry in entries:
        total += entry.bytes
        print(f"{entry.kind:10s} {entry.stage:12s} {entry.bytes:10d} B {entry.hash}")
    print(f"{len(entries)} artifacts, {total} bytes in {cache_dir}")
    return 0


def _cmd_pipeline_clean(args: argparse.Namespace) -> int:
    from .pipeline import ArtifactStore

    cache_dir = _resolve_cache_dir(args)
    store = ArtifactStore(cache_dir)
    if args.max_age_days is not None or args.max_bytes is not None:
        count = store.gc(
            max_age_days=args.max_age_days, max_bytes=args.max_bytes
        )
        print(f"gc removed {count} artifacts from {cache_dir}")
        return 0
    count = store.clean()
    print(f"removed {count} artifacts from {cache_dir}")
    return 0


def _resolve_cache_dir(args: argparse.Namespace) -> str:
    """``--cache-dir`` wins; otherwise ``$REPRO_CACHE_DIR`` or the
    ``.repro_cache`` default."""
    from .pipeline import default_cache_dir

    return getattr(args, "cache_dir", None) or default_cache_dir()


def _pipeline_config_from_args(args: argparse.Namespace):
    """Resolve the positional ``design`` into a netlist-file or benchmark
    config."""
    from .pipeline import PipelineConfig

    design = args.design
    if Path(design).exists():
        return PipelineConfig(
            netlist=design,
            width=args.width,
            height=args.height,
            num_layers=args.layers,
            router=args.router,
            cache_dir=_resolve_cache_dir(args),
        )
    if design.lower().startswith("test"):
        return PipelineConfig(
            circuit=design,
            scale=args.scale,
            seed=args.seed,
            num_layers=args.layers,
            router=args.router,
            cache_dir=_resolve_cache_dir(args),
        )
    raise ReproError(
        f"design {design!r} is neither an existing netlist file nor a "
        f"benchmark name (Test1..Test10)"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import RoutingService

    service = RoutingService(
        host=args.host,
        port=args.port,
        workers=args.service_workers,
        cache_dir=getattr(args, "cache_dir", None),
        spool_dir=args.spool_dir,
        max_active_per_tenant=args.max_active_per_tenant,
        ledger=not args.no_ledger,
        ledger_dir=args.ledger_dir,
    )
    mode = (
        f"{args.service_workers} worker processes"
        if args.service_workers > 0
        else "1 inline worker thread"
    )
    print(
        f"routing service: cache {service.cache_dir}, spool "
        f"{service.spool_dir}, {mode}",
        file=sys.stderr,
    )

    service.on_listening = lambda s: print(
        f"serving at {s.url} (POST /jobs)", file=sys.stderr
    )
    service.serve_forever()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import rows_to_table, run_cell
    from .bench.workloads import spec_by_name
    from .pipeline import observed_command

    spec = spec_by_name(args.circuit)
    with observed_command(
        args,
        command="bench",
        workload=f"{spec.name}@{args.scale}",
        circuit=spec.name,
        scale=args.scale,
        router=args.router,
    ):
        row = run_cell(spec, router=args.router, scale=args.scale, seed=args.seed)
        print(rows_to_table([row], caption=f"{spec.name} @ scale {args.scale}"))
    return 0


def _cmd_obs_history(args: argparse.Namespace) -> int:
    from .obs.ledger import Ledger

    ledger = Ledger(args.ledger_dir)
    records = ledger.history(
        limit=args.limit,
        workload=args.workload,
        command=args.filter_command,
    )
    if not records:
        print(f"no runs recorded in {ledger.root}")
        return 0
    for record in records:
        print(record.one_line())
    return 0


def _cmd_obs_show(args: argparse.Namespace) -> int:
    import json

    from .obs.ledger import Ledger

    record = Ledger(args.ledger_dir).get(args.run_id)
    print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    import json

    from .obs.ledger import DiffThresholds, Ledger, diff_runs

    ledger = Ledger(args.ledger_dir)
    a = ledger.get(args.run_a)
    b = ledger.get(args.run_b)
    diff = diff_runs(a, b, DiffThresholds())
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2))
    else:
        print(diff.to_text())
    if args.gate and diff.verdict == "regression":
        return 1
    return 0


def _cmd_obs_flame(args: argparse.Namespace) -> int:
    from .obs import collapsed_stacks

    lines = collapsed_stacks(args.logfile)
    if not lines:
        print(f"{args.logfile}: no spans to fold", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


def _cmd_validate_trace(args: argparse.Namespace) -> int:
    from .obs import validate_run_jsonl

    problems = validate_run_jsonl(args.logfile)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{args.logfile}: INVALID ({len(problems)} problems)", file=sys.stderr)
        return 1
    print(f"{args.logfile}: OK")
    return 0


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    from .core.scenarios import table2_rows

    print("Table II — color rules per potential overlay scenario")
    print(f"{'type':5s} {'rule':>9s} {'minSO':>6s} {'maxSO':>6s}")
    for row in table2_rows():
        print(f"{row[0]:5s} {row[1]:>9s} {row[2]:>6s} {row[3]:>6s}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Overlay-aware SADP-cut detailed router (DAC'14 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    route = sub.add_parser("route", help="route a text netlist")
    route.add_argument("netlist", help="netlist file (see repro.netlist.io)")
    route.add_argument("--width", type=int, required=True, help="grid width in tracks")
    route.add_argument("--height", type=int, required=True, help="grid height in tracks")
    route.add_argument("--layers", type=int, default=3, help="routing layers (default 3)")
    _add_output_flags(route)
    _add_obs_flags(route)
    route.set_defaults(func=_cmd_route)

    pipeline = sub.add_parser(
        "pipeline", help="staged pipeline with artifact caching"
    )
    psub = pipeline.add_subparsers(dest="pipeline_command", required=True)

    prun = psub.add_parser(
        "run", help="run the full staged flow (cache-hit on unchanged prefixes)"
    )
    prun.add_argument(
        "design", help="netlist file, or a benchmark name (Test1..Test10)"
    )
    prun.add_argument("--width", type=int, help="grid width in tracks (netlist designs)")
    prun.add_argument("--height", type=int, help="grid height in tracks (netlist designs)")
    prun.add_argument("--layers", type=int, default=3, help="routing layers (default 3)")
    prun.add_argument("--scale", type=float, default=0.15, help="benchmark scale (0, 1]")
    prun.add_argument("--seed", type=int, default=2014, help="benchmark seed")
    prun.add_argument(
        "--router",
        choices=ROUTERS,
        default="ours",
        help="which router the route stage uses",
    )
    prun.add_argument(
        "--force", action="store_true", help="re-execute every stage (refresh the cache)"
    )
    _add_cache_flag(prun)
    _add_output_flags(prun)
    _add_obs_flags(prun)
    prun.set_defaults(func=_cmd_pipeline_run)

    pshow = psub.add_parser(
        "show", help="show the stage plan for a design, or the store contents"
    )
    pshow.add_argument(
        "design",
        nargs="?",
        help="netlist file or benchmark name (omit to list the store)",
    )
    pshow.add_argument("--width", type=int, help="grid width in tracks (netlist designs)")
    pshow.add_argument("--height", type=int, help="grid height in tracks (netlist designs)")
    pshow.add_argument("--layers", type=int, default=3)
    pshow.add_argument("--scale", type=float, default=0.15)
    pshow.add_argument("--seed", type=int, default=2014)
    pshow.add_argument("--router", choices=ROUTERS, default="ours")
    _add_cache_flag(pshow)
    pshow.set_defaults(func=_cmd_pipeline_show)

    pclean = psub.add_parser(
        "clean", help="delete cached artifacts (all, or by GC policy)"
    )
    pclean.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="N",
        help="GC: drop entries not used within N days instead of wiping",
    )
    pclean.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="B",
        help="GC: evict least-recently-used entries until the store "
        "fits B bytes",
    )
    _add_cache_flag(pclean)
    pclean.set_defaults(func=_cmd_pipeline_clean)

    bench = sub.add_parser("bench", help="run a paper benchmark")
    bench.add_argument("circuit", help="Test1..Test10")
    bench.add_argument("--scale", type=float, default=0.15, help="instance scale (0, 1]")
    bench.add_argument("--seed", type=int, default=2014)
    bench.add_argument(
        "--router",
        choices=ROUTERS,
        default="ours",
        help="which router to run",
    )
    _add_obs_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve", help="run the routing job service (HTTP + worker pool)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8347, help="listen port (0 picks a free one)"
    )
    serve.add_argument(
        "--service-workers",
        type=int,
        default=2,
        metavar="N",
        help="worker processes draining the job queue "
        "(0 = one inline worker thread)",
    )
    serve.add_argument(
        "--spool-dir",
        default=None,
        help="where submitted design texts land (default <cache>/spool)",
    )
    serve.add_argument(
        "--max-active-per-tenant",
        type=int,
        default=8,
        metavar="N",
        help="per-tenant quota on queued+running jobs (0 = unlimited)",
    )
    serve.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not record completed jobs in the run ledger",
    )
    _add_cache_flag(serve)
    _add_ledger_dir_flag(serve)
    serve.set_defaults(func=_cmd_serve)

    scen = sub.add_parser("scenarios", help="print the Table II color rules")
    scen.set_defaults(func=_cmd_scenarios)

    obs_parser = sub.add_parser(
        "obs", help="inspect the run ledger and observability artifacts"
    )
    osub = obs_parser.add_subparsers(dest="obs_command", required=True)

    ohistory = osub.add_parser("history", help="list recorded runs, newest first")
    ohistory.add_argument("--limit", type=int, default=20, help="max rows (default 20)")
    ohistory.add_argument("--workload", help="filter by workload (exact match)")
    ohistory.add_argument(
        "--command", dest="filter_command", help="filter by command (route/bench/...)"
    )
    _add_ledger_dir_flag(ohistory)
    ohistory.set_defaults(func=_cmd_obs_history)

    oshow = osub.add_parser("show", help="dump one run record as JSON")
    oshow.add_argument("run_id", help="run id (unique prefix accepted)")
    _add_ledger_dir_flag(oshow)
    oshow.set_defaults(func=_cmd_obs_show)

    odiff = osub.add_parser(
        "diff", help="compare run B against run A: phases, counters, RSS, verdict"
    )
    odiff.add_argument("run_a", help="baseline run id (unique prefix accepted)")
    odiff.add_argument("run_b", help="candidate run id (unique prefix accepted)")
    odiff.add_argument("--json", action="store_true", help="machine-readable output")
    odiff.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 on a regression verdict (for CI)",
    )
    _add_ledger_dir_flag(odiff)
    odiff.set_defaults(func=_cmd_obs_diff)

    oflame = osub.add_parser(
        "flame",
        help="fold a JSONL run log into collapsed stacks "
        "(pipe into flamegraph.pl or paste into speedscope)",
    )
    oflame.add_argument("logfile", help="run log written by --trace")
    oflame.set_defaults(func=_cmd_obs_flame)

    validate = sub.add_parser(
        "validate-trace", help="check a JSONL run log against the schema"
    )
    validate.add_argument("logfile", help="run log written by --trace")
    validate.set_defaults(func=_cmd_validate_trace)
    return parser


def _add_cache_flag(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--cache-dir",
        default=None,
        help="artifact store directory "
        "(default .repro_cache, or $REPRO_CACHE_DIR)",
    )


def _add_output_flags(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument("--out", help="save the routing result as JSON")
    sub_parser.add_argument("--svg", help="render a routed layer as SVG")
    sub_parser.add_argument("--svg-layer", type=int, default=0, help="layer to render")
    sub_parser.add_argument(
        "--report", action="store_true", help="print the full analysis report"
    )


def _add_obs_flags(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--metrics",
        action="store_true",
        help="enable observability and print the per-phase timing table",
    )
    sub_parser.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        help="enable observability and write the merged JSONL run log",
    )
    sub_parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not record this run in the run ledger",
    )
    _add_ledger_dir_flag(sub_parser)


def _add_ledger_dir_flag(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--ledger-dir",
        default=None,
        metavar="DIR",
        help="run ledger directory (default .repro_runs, or $REPRO_LEDGER_DIR)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        # An OSError names its path (an unwritable --out, --svg or
        # --trace); exit 2, not the 1 of an unrouted net.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
