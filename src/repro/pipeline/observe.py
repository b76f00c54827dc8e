"""Shared CLI observability wiring.

Every pipeline-driven command used to copy the same enable/print/export/
disable dance (``_cmd_route`` and ``_cmd_bench`` each had a private
``_obs_begin``/``_obs_finish`` pair). :func:`observed_command` is the one
place that handles the observability flags now:

* ``--metrics`` / ``--trace FILE.jsonl`` — print the per-phase table /
  export the JSONL run log, exactly as before;
* the **run ledger** (on by default, ``--no-ledger`` opts out) — every
  invocation appends a :class:`~repro.obs.ledger.RunRecord` with config
  hash, per-phase seconds, counter totals, the process's peak RSS and
  provenance, so ``repro obs history`` / ``repro obs diff`` can compare
  any two runs.

On exit it prints/exports what was asked, records the ledger entry
(success *and* failure — the record's ``outcome`` says which), and
switches observability back off — even when the command raises.
"""

from __future__ import annotations

import resource
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

#: argparse attributes folded into the ledger's config hash — the knobs
#: that change what a run computes (not how it is reported).
_CONFIG_KEYS = (
    "width",
    "height",
    "layers",
    "scale",
    "seed",
    "router",
)


class ObservedCommand:
    """Mutable handle yielded by :func:`observed_command`."""

    def __init__(self, meta: Dict[str, Any]) -> None:
        #: Run-log metadata (merged into the JSONL meta line).
        self.meta = meta
        #: The ledger id of the recorded run (set on exit when the
        #: ledger is on).
        self.run_id: Optional[str] = None


def _config_from_args(args: Any, meta: Dict[str, Any]) -> Dict[str, Any]:
    config = {k: getattr(args, k) for k in _CONFIG_KEYS if hasattr(args, k)}
    config.update(
        (k, v) for k, v in meta.items() if k not in ("command", "workload")
    )
    return config


def _workload_from_meta(meta: Dict[str, Any]) -> str:
    for key in ("workload", "circuit", "design", "netlist"):
        if meta.get(key):
            return str(meta[key])
    return ""


def _peak_rss_mb() -> float:
    """This process's high-water RSS in MB (10^6 bytes).

    One CLI command is one process, so this is the run's peak. Linux
    reports ``ru_maxrss`` in KiB.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(kib * 1024 / 1e6, 3)


def record_run(
    ob,
    *,
    command: str,
    workload: str,
    config: Dict[str, Any],
    outcome: str,
    wall_s: float,
    ledger_dir: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
    resources: Optional[Dict[str, float]] = None,
):
    """Append one :class:`RunRecord` built from the live backend.

    Shared by :func:`observed_command` and the service's workers;
    returns the record.
    """
    from ..obs.export import phase_totals
    from ..obs.ledger import Ledger, make_record

    counters = {
        entry["metric"]: 0.0
        for entry in ob.registry.snapshot()
        if entry["kind"] == "counter"
    }
    for name in counters:
        counters[name] = ob.registry.total(name)
    record = make_record(
        command,
        workload,
        config,
        outcome=outcome,
        wall_s=wall_s,
        phases={k: round(v, 6) for k, v in phase_totals(ob).items()},
        counters=counters,
        resources=resources or {},
        meta=meta or {},
    )
    Ledger(ledger_dir).record(record)
    return record


@contextmanager
def observed_command(args: Any, **meta: Any) -> Iterator[ObservedCommand]:
    """Scope a CLI command's observability per its ``--metrics``/``--trace``
    /ledger flags.

    ``args`` is the parsed argparse namespace; commands without any obs
    flags simply run unobserved. The yielded handle's ``meta`` feeds the
    JSONL export; its ``run_id`` reports the ledger entry afterwards.
    """
    wants_metrics = bool(getattr(args, "metrics", False))
    trace_path = getattr(args, "trace", None)
    # The ledger defaults on for every command that grew the flag pair;
    # commands without them (scenarios, validate-trace) stay unrecorded.
    wants_ledger = hasattr(args, "no_ledger") and not getattr(
        args, "no_ledger"
    )
    ledger_dir = getattr(args, "ledger_dir", None)
    handle = ObservedCommand(dict(meta))
    if not (wants_metrics or trace_path or wants_ledger):
        yield handle
        return

    from .. import obs

    ob = obs.enable()
    outcome = "error"
    t0 = time.perf_counter()
    try:
        yield handle
        if wants_metrics:
            print()
            print(obs.phase_table())
            print()
            print(ob.registry.to_text())
        if trace_path:
            path = obs.export_run_jsonl(trace_path, meta=handle.meta)
            print(f"run log written to {path}")
        outcome = "ok"
    finally:
        wall_s = time.perf_counter() - t0
        if wants_ledger:
            try:
                record = record_run(
                    ob,
                    command=str(meta.get("command", "run")),
                    workload=_workload_from_meta(meta),
                    config=_config_from_args(args, meta),
                    outcome=outcome,
                    wall_s=wall_s,
                    ledger_dir=ledger_dir,
                    resources={"peak_rss_mb": _peak_rss_mb()},
                )
                handle.run_id = record.run_id
                if outcome == "ok":
                    # failed runs are still recorded, but the hint line
                    # must not land in front of the error message
                    print(
                        f"run {record.run_id} recorded "
                        f"(repro obs history / repro obs diff)",
                        file=sys.stderr,
                    )
            except Exception as exc:  # never fail the command over telemetry
                print(f"ledger: record failed: {exc}", file=sys.stderr)
        obs.disable()
