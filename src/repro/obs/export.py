"""JSONL run-log export, validation, and the per-phase runtime table.

One run log is a JSON-Lines file merging three event streams:

* ``{"type": "meta", ...}`` — exactly one, the first line: schema
  version, tool version, environment provenance (git sha, package
  versions), plus caller-supplied run context.
* ``{"type": "span", ...}`` — one per finished tracer span.
* ``{"type": "metric", ...}`` — one per registry instrument (snapshot
  taken at export time).
* ``{"type": "resource", ...}`` — at most one: the resource sampler's
  run summary and per-span peaks, when a sampler ran.
* ``{"type": "router_event", ...}`` — one per :class:`RouterTrace`
  event, when a trace is supplied.

The format is documented in ``docs/OBSERVABILITY.md``;
:func:`validate_run_jsonl` enforces it (CI's smoke job runs it against a
freshly routed trace).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

SCHEMA_VERSION = 1

#: (phase label, span names folded into it) — the bench/report breakdown.
PHASE_SPANS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("search", ("astar_search",)),
    ("graph", ("ocg_update",)),
    ("flip", ("pseudo_color", "color_flip")),
    ("commit", ("cut_check",)),
    ("decompose", ("synthesize_masks",)),
)

#: Span names whose *self* time (duration minus nested children) is folded
#: into a phase. ``commit_net`` wraps the whole commit path — occupancy
#: writes, scenario bookkeeping, cut registration — but also contains the
#: ``ocg_update``/``pseudo_color``/``cut_check`` spans priced elsewhere;
#: counting only its self time keeps the phase split disjoint, making
#: ``sum(phases) <= route_all`` hold by construction.
SELF_PHASE_SPANS: Dict[str, Tuple[str, ...]] = {"commit": ("commit_net",)}


def _backend(observability):
    if observability is not None:
        return observability
    from . import get_active

    return get_active()


def export_run_jsonl(
    path: Union[str, Path],
    observability=None,
    router_trace=None,
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write the merged run log; returns the path written.

    ``observability`` defaults to the active backend; passing neither an
    explicit backend nor having one enabled still produces a valid (if
    span/metric-empty) log, so callers need no conditional plumbing.
    """
    ob = _backend(observability)
    path = Path(path)
    lines: List[Dict[str, Any]] = []

    from .. import __version__
    from .provenance import collect_provenance

    head: Dict[str, Any] = {
        "type": "meta",
        "schema": SCHEMA_VERSION,
        "tool": "repro",
        "version": __version__,
        "provenance": collect_provenance(),
    }
    if meta:
        head.update(meta)
    lines.append(head)

    if ob is not None:
        for sp in ob.tracer.finished:
            record = sp.to_dict()
            record["type"] = "span"
            lines.append(record)
        for entry in ob.registry.snapshot():
            record = dict(entry)
            record["type"] = "metric"
            lines.append(record)
        sampler = getattr(ob, "sampler", None)
        if sampler is not None and sampler.samples:
            lines.append(
                {
                    "type": "resource",
                    "summary": sampler.summary(),
                    "by_span": sampler.by_span(),
                }
            )

    if router_trace is not None:
        for event in router_trace.events:
            lines.append(
                {
                    "type": "router_event",
                    "kind": event.kind,
                    "net_id": event.net_id,
                    "details": event.details,
                }
            )

    with path.open("w", encoding="utf-8") as fh:
        for record in lines:
            fh.write(json.dumps(record, sort_keys=True, default=str))
            fh.write("\n")
    return path


# ---------------------------------------------------------------------- #
# Validation
# ---------------------------------------------------------------------- #

_METRIC_KINDS = {"counter", "gauge", "histogram"}


def _check_span(record: Dict[str, Any], where: str, errors: List[str]) -> None:
    for key, types in (
        ("name", str),
        ("span_id", int),
        ("start_s", (int, float)),
        ("duration_s", (int, float)),
        ("attrs", dict),
    ):
        if not isinstance(record.get(key), types):
            errors.append(f"{where}: span field {key!r} missing or mistyped")
    parent = record.get("parent_id")
    if parent is not None and not isinstance(parent, int):
        errors.append(f"{where}: span parent_id must be int or null")
    end = record.get("end_s")
    if end is not None and not isinstance(end, (int, float)):
        errors.append(f"{where}: span end_s must be number or null")


def _check_metric(record: Dict[str, Any], where: str, errors: List[str]) -> None:
    if not isinstance(record.get("metric"), str):
        errors.append(f"{where}: metric field 'metric' missing or mistyped")
    kind = record.get("kind")
    if kind not in _METRIC_KINDS:
        errors.append(f"{where}: metric kind {kind!r} not one of {sorted(_METRIC_KINDS)}")
    labels = record.get("labels")
    if not isinstance(labels, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
    ):
        errors.append(f"{where}: metric labels must be a str->str object")
    value = record.get("value")
    if kind == "histogram":
        if not isinstance(value, dict) or "count" not in value:
            errors.append(f"{where}: histogram value must be a summary object")
    elif kind in _METRIC_KINDS and not isinstance(value, (int, float)):
        errors.append(f"{where}: {kind} value must be a number")


def _check_resource(record: Dict[str, Any], where: str, errors: List[str]) -> None:
    if not isinstance(record.get("summary"), dict):
        errors.append(f"{where}: resource summary must be an object")
    by_span = record.get("by_span")
    if by_span is not None and not isinstance(by_span, dict):
        errors.append(f"{where}: resource by_span must be an object or absent")


def _check_router_event(record: Dict[str, Any], where: str, errors: List[str]) -> None:
    if not isinstance(record.get("kind"), str):
        errors.append(f"{where}: router_event kind missing or mistyped")
    net_id = record.get("net_id")
    if net_id is not None and not isinstance(net_id, int):
        errors.append(f"{where}: router_event net_id must be int or null")
    if not isinstance(record.get("details"), dict):
        errors.append(f"{where}: router_event details must be an object")


def validate_run_jsonl(path: Union[str, Path]) -> List[str]:
    """Check a run log against the documented schema.

    Returns a list of human-readable problems; an empty list means the
    file is valid. Never raises on malformed content — every problem is
    reported as a finding instead.
    """
    path = Path(path)
    errors: List[str] = []
    try:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    if not raw_lines:
        return [f"{path}: empty file — expected at least a meta line"]

    spans: List[Tuple[str, Dict[str, Any]]] = []
    resource_seen = False
    for lineno, raw in enumerate(raw_lines, start=1):
        where = f"line {lineno}"
        if not raw.strip():
            errors.append(f"{where}: blank line")
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            errors.append(f"{where}: not valid JSON ({exc.msg})")
            continue
        if not isinstance(record, dict):
            errors.append(f"{where}: record must be a JSON object")
            continue
        rtype = record.get("type")
        if lineno == 1:
            if rtype != "meta":
                errors.append("line 1: first record must have type 'meta'")
            elif record.get("schema") != SCHEMA_VERSION:
                errors.append(
                    f"line 1: unsupported schema {record.get('schema')!r} "
                    f"(expected {SCHEMA_VERSION})"
                )
            continue
        if rtype == "meta":
            errors.append(f"{where}: duplicate meta record")
        elif rtype == "span":
            _check_span(record, where, errors)
            spans.append((where, record))
        elif rtype == "metric":
            _check_metric(record, where, errors)
        elif rtype == "resource":
            if resource_seen:
                errors.append(f"{where}: duplicate resource record")
            resource_seen = True
            _check_resource(record, where, errors)
        elif rtype == "router_event":
            _check_router_event(record, where, errors)
        else:
            errors.append(f"{where}: unknown record type {rtype!r}")

    # Cross-record span-tree checks: every parent must exist (an
    # orphaned span end means the exporter dropped or mangled part of
    # the tree), durations must be non-negative, and a span in a
    # *finished* run log must actually have ended.
    span_ids = {
        record["span_id"]
        for _, record in spans
        if isinstance(record.get("span_id"), int)
    }
    for where, record in spans:
        parent = record.get("parent_id")
        if isinstance(parent, int) and parent not in span_ids:
            errors.append(
                f"{where}: orphaned span — parent_id {parent} matches no "
                f"exported span"
            )
        duration = record.get("duration_s")
        if isinstance(duration, (int, float)) and duration < 0:
            errors.append(f"{where}: negative span duration {duration}")
        start = record.get("start_s")
        end = record.get("end_s")
        if end is None:
            errors.append(f"{where}: span never ended (end_s is null)")
        elif isinstance(start, (int, float)) and isinstance(end, (int, float)):
            if end < start:
                errors.append(
                    f"{where}: span ends before it starts "
                    f"(end_s {end} < start_s {start})"
                )
    return errors


# ---------------------------------------------------------------------- #
# Per-phase breakdown
# ---------------------------------------------------------------------- #


def phase_totals(observability=None) -> Dict[str, float]:
    """Seconds per pipeline phase, folded per :data:`PHASE_SPANS`."""
    ob = _backend(observability)
    if ob is None:
        return {}
    totals = ob.tracer.totals_by_name()
    self_totals = ob.tracer.self_totals_by_name()
    out: Dict[str, float] = {}
    for phase, names in PHASE_SPANS:
        seconds = sum(totals.get(name, 0.0) for name in names)
        for name in SELF_PHASE_SPANS.get(phase, ()):
            seconds += self_totals.get(name, 0.0)
        out[phase] = seconds
    return out


def _span_to_phase() -> Dict[str, str]:
    """span name -> phase label, per the PHASE_SPANS folding."""
    mapping: Dict[str, str] = {}
    for phase, names in PHASE_SPANS:
        for name in names:
            mapping[name] = phase
        for name in SELF_PHASE_SPANS.get(phase, ()):
            mapping[name] = phase
    return mapping


def resource_phase_columns(observability=None) -> Dict[str, Dict[str, float]]:
    """Per-phase resource attribution from the sampler, when one ran.

    Returns ``{phase: {"peak_rss_mb": ..., "mean_cpu_pct": ...}}`` for
    every phase at least one sample landed in (a sample belongs to the
    phase of the innermost span open when it was taken). Empty when no
    sampler ran — callers can unconditionally merge.
    """
    ob = _backend(observability)
    sampler = getattr(ob, "sampler", None) if ob is not None else None
    if sampler is None or not sampler.samples:
        return {}
    to_phase = _span_to_phase()
    out: Dict[str, Dict[str, float]] = {}
    acc: Dict[str, List] = {}
    for sample in sampler.samples:
        phases = {to_phase[name] for name in sample.span_names if name in to_phase}
        for phase in phases:
            acc.setdefault(phase, []).append(sample)
    for phase, group in acc.items():
        out[phase] = {
            "peak_rss_mb": round(max(s.rss_bytes for s in group) / 1e6, 3),
            "mean_cpu_pct": round(sum(s.cpu_pct for s in group) / len(group), 2),
        }
    return out


def phase_table(observability=None, total_span: str = "route_all") -> str:
    """The per-phase runtime table (search / graph / flip / ...).

    ``total_span`` names the span whose duration is 100%; phases outside
    the listed ones show up as 'other'. When the resource sampler ran,
    the table grows peak-RSS and mean-CPU columns attributed per phase.
    """
    ob = _backend(observability)
    if ob is None:
        return "observability disabled — no phase data"
    totals = ob.tracer.totals_by_name()
    counts = ob.tracer.counts_by_name()
    total = totals.get(total_span, 0.0)
    phases = phase_totals(ob)
    resources = resource_phase_columns(ob)

    header = f"{'phase':12s} {'seconds':>10s} {'share':>7s} {'spans':>8s}"
    if resources:
        header += f" {'peakMB':>8s} {'cpu%':>7s}"
    lines = ["per-phase runtime", header, "-" * len(header)]
    accounted = 0.0
    for phase, names in PHASE_SPANS:
        seconds = phases.get(phase, 0.0)
        n = sum(counts.get(name, 0) for name in names) + sum(
            counts.get(name, 0) for name in SELF_PHASE_SPANS.get(phase, ())
        )
        if n == 0:
            continue
        accounted += seconds
        share = f"{100.0 * seconds / total:6.1f}%" if total > 0 else "      -"
        line = f"{phase:12s} {seconds:10.4f} {share:>7s} {n:8d}"
        if resources:
            res = resources.get(phase)
            if res is not None:
                line += f" {res['peak_rss_mb']:8.1f} {res['mean_cpu_pct']:7.1f}"
            else:
                line += f" {'-':>8s} {'-':>7s}"
        lines.append(line)
    if total > 0:
        other = max(0.0, total - accounted)
        lines.append(f"{'other':12s} {other:10.4f} {100.0 * other / total:6.1f}% {'-':>8s}")
        lines.append(f"{'total':12s} {total:10.4f} {'100.0%':>7s} {'-':>8s}")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Collapsed-stack (flamegraph) export
# ---------------------------------------------------------------------- #


def collapsed_stacks(path: Union[str, Path]) -> List[str]:
    """Fold a run log's span tree into collapsed-stack lines.

    Output lines are ``root;child;leaf <self_time_us>`` — the input
    format of ``flamegraph.pl`` and speedscope ("collapsed"/"folded").
    Each span contributes its *self* time (duration minus direct
    children) at its stack path; identical paths are summed. Roots are
    whole-run spans like ``route_all``.
    """
    path = Path(path)
    spans: List[Dict[str, Any]] = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and record.get("type") == "span":
            spans.append(record)

    by_id = {sp["span_id"]: sp for sp in spans if isinstance(sp.get("span_id"), int)}
    child_time: Dict[int, float] = {}
    for sp in spans:
        parent = sp.get("parent_id")
        if isinstance(parent, int):
            child_time[parent] = child_time.get(parent, 0.0) + float(
                sp.get("duration_s") or 0.0
            )

    def stack_path(sp: Dict[str, Any]) -> str:
        names: List[str] = []
        seen = set()
        node: Optional[Dict[str, Any]] = sp
        while node is not None:
            name = str(node.get("name", "?")).replace(";", ":").replace(" ", "_")
            names.append(name)
            parent = node.get("parent_id")
            if not isinstance(parent, int) or parent in seen:
                break
            seen.add(parent)
            node = by_id.get(parent)
        return ";".join(reversed(names))

    folded: Dict[str, int] = {}
    for sp in spans:
        duration = float(sp.get("duration_s") or 0.0)
        self_s = duration - child_time.get(sp.get("span_id"), 0.0)
        self_us = int(round(max(0.0, self_s) * 1e6))
        if self_us <= 0:
            continue
        key = stack_path(sp)
        folded[key] = folded.get(key, 0) + self_us
    return [f"{key} {value}" for key, value in sorted(folded.items())]
