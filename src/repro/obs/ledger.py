"""Append-only run ledger: every run recorded, attributed, diffable.

The ledger is the repo's memory of its own performance. Every CLI
``route`` / ``pipeline run`` / ``bench`` invocation (and each service
job) appends one :class:`RunRecord` — config hash, workload, git sha +
package provenance, per-phase seconds, counter totals, outcome, and for
a CLI run the process's peak RSS (one ``getrusage`` reading at exit) —
so regressions can be attributed change by change instead of eyeballed
from a point-in-time record.

Storage layout under ``.repro_runs/`` (override with ``--ledger-dir``
or ``REPRO_LEDGER_DIR``):

* ``records.jsonl`` — the whole state, strictly append-only: one JSON
  object per line, fsync'd, never rewritten. Reads scan it and skip the
  lines that do not parse (a writer killed mid-append tears only its own
  line).

:func:`diff_runs` compares two records — per-phase time deltas, counter
deltas, peak-RSS deltas — against :class:`DiffThresholds` and produces
a machine-checkable regression verdict (the CLI ``repro obs diff`` exit
code and the CI obs-smoke job both consume it).
"""

from __future__ import annotations

import json
import os
import secrets
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .provenance import collect_provenance

#: Default ledger location; ``REPRO_LEDGER_DIR`` overrides it (used by
#: CI and the test suite to keep run records out of the working tree).
DEFAULT_LEDGER_DIR = ".repro_runs"

RECORDS_FILE = "records.jsonl"

RECORD_SCHEMA = 1


def default_ledger_dir() -> str:
    return os.environ.get("REPRO_LEDGER_DIR") or DEFAULT_LEDGER_DIR


def _new_run_id(ts: float) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime(ts))
    return f"r{stamp}-{secrets.token_hex(3)}"


@dataclass
class RunRecord:
    """One ledger entry; everything JSON-serialisable by construction."""

    run_id: str
    ts: float  # wall-clock epoch seconds
    command: str  # "route" | "pipeline run" | "bench" | "service" | ...
    workload: str  # netlist path, "Test1@0.2", or workload-list string
    config_hash: str
    outcome: str = "ok"  # "ok" | "error" | "regression"
    wall_s: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    resources: Dict[str, float] = field(default_factory=dict)
    provenance: Dict[str, str] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": RECORD_SCHEMA,
            "run_id": self.run_id,
            "ts": self.ts,
            "command": self.command,
            "workload": self.workload,
            "config_hash": self.config_hash,
            "outcome": self.outcome,
            "wall_s": round(self.wall_s, 6),
            "phases": {k: round(v, 6) for k, v in self.phases.items()},
            "counters": self.counters,
            "resources": self.resources,
            "provenance": self.provenance,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        """Keys this class does not know, such as the ``parallel_decision``
        of records written before parallel routing was removed, are
        ignored."""
        return cls(
            run_id=str(data.get("run_id", "")),
            ts=float(data.get("ts", 0.0)),
            command=str(data.get("command", "")),
            workload=str(data.get("workload", "")),
            config_hash=str(data.get("config_hash", "")),
            outcome=str(data.get("outcome", "ok")),
            wall_s=float(data.get("wall_s", 0.0)),
            phases=dict(data.get("phases") or {}),
            counters=dict(data.get("counters") or {}),
            resources=dict(data.get("resources") or {}),
            provenance=dict(data.get("provenance") or {}),
            meta=dict(data.get("meta") or {}),
        )

    @property
    def when(self) -> str:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.ts))

    @property
    def peak_rss_mb(self) -> float:
        return float(self.resources.get("peak_rss_mb", 0.0))

    def one_line(self) -> str:
        rss = f" {self.peak_rss_mb:7.1f}MB" if self.resources else " " * 10
        return (
            f"{self.run_id:28s} {self.when} {self.command:12s} "
            f"{self.workload:20.20s} {self.config_hash:12.12s} "
            f"{self.wall_s:8.3f}s{rss} {self.outcome}"
        )


def make_record(
    command: str,
    workload: str,
    config: Dict[str, Any],
    ts: Optional[float] = None,
    **fields: Any,
) -> RunRecord:
    """Build a record with a fresh run id, config hash and provenance."""
    import hashlib

    ts = time.time() if ts is None else ts
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:12]
    meta = fields.pop("meta", {})
    return RunRecord(
        run_id=_new_run_id(ts),
        ts=ts,
        command=command,
        workload=workload,
        config_hash=digest,
        provenance=collect_provenance(),
        meta={"config": config, **meta},
        **fields,
    )


# ---------------------------------------------------------------------- #
# Storage
# ---------------------------------------------------------------------- #


class Ledger:
    """Append-only run store: one JSONL file, scanned on every read."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root if root is not None else default_ledger_dir())
        self.root.mkdir(parents=True, exist_ok=True)
        self.records_path = self.root / RECORDS_FILE
        if not self.records_path.exists():
            self.records_path.touch()

    def __len__(self) -> int:
        return len(self._records())

    def record(self, record: RunRecord) -> str:
        """Append one record; returns its run id."""
        payload = json.dumps(record.to_dict(), sort_keys=True, default=str)
        data = payload.encode("utf-8") + b"\n"
        with self.records_path.open("a+b") as fh:
            end = fh.seek(0, os.SEEK_END)
            if end:
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    data = b"\n" + data  # end a line torn by a killed writer
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        return record.run_id

    def _records(self, needle: str = "") -> Dict[str, RunRecord]:
        """Every record that parses, by run id in file order (a repeated id
        keeps its last line); torn or corrupt lines are skipped. Lines
        without ``needle`` in their JSON text are skipped unparsed."""
        text = json.dumps(needle)[1:-1].encode("utf-8")
        out: Dict[str, RunRecord] = {}
        with self.records_path.open("rb") as fh:
            for raw in fh:
                if text not in raw:
                    continue
                try:
                    record = RunRecord.from_dict(json.loads(raw))
                except (ValueError, TypeError, AttributeError):
                    continue
                if record.run_id:
                    out[record.run_id] = record
        return out

    def get(self, run_id: str) -> RunRecord:
        """Fetch by exact id or unique prefix; raises KeyError otherwise."""
        records = self._records(needle=run_id)
        if run_id in records:
            return records[run_id]
        matches = sorted(
            (r for r in records.values() if r.run_id.startswith(run_id)),
            key=lambda r: r.ts,
        )
        if not matches:
            raise KeyError(f"no run {run_id!r} in {self.root}")
        if len(matches) > 1:
            ids = ", ".join(r.run_id for r in matches)
            raise KeyError(f"run id prefix {run_id!r} is ambiguous: {ids}")
        return matches[0]

    def history(
        self,
        limit: int = 20,
        workload: Optional[str] = None,
        command: Optional[str] = None,
    ) -> List[RunRecord]:
        """Most recent runs first (by ``ts``, then run id), optionally
        filtered; a negative ``limit`` returns them all."""
        runs = [
            r
            for r in self._records().values()
            if (workload is None or r.workload == workload)
            and (command is None or r.command == command)
        ]
        runs.sort(key=lambda r: (r.ts, r.run_id), reverse=True)
        return runs if limit < 0 else runs[:limit]


# ---------------------------------------------------------------------- #
# Diffing
# ---------------------------------------------------------------------- #


@dataclass
class DiffThresholds:
    """What counts as a regression (fractional growth + absolute floor).

    Both conditions must hold — a phase that grew 40% but only by 2 ms
    is runner noise, not a regression; so is a counter that went from
    2 to 4.
    """

    wall_pct: float = 0.20
    wall_min_s: float = 0.05
    phase_pct: float = 0.25
    phase_min_s: float = 0.02
    counter_pct: float = 0.25
    counter_min: float = 32.0
    rss_pct: float = 0.25
    rss_min_mb: float = 16.0


@dataclass
class DiffRow:
    """One compared quantity."""

    section: str  # "wall" | "phase" | "counter" | "resource"
    name: str
    a: float
    b: float
    flag: str  # "ok" | "regression" | "improvement"

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def pct(self) -> Optional[float]:
        if self.a == 0:
            return None
        return 100.0 * self.delta / self.a


def _flag(a: float, b: float, pct: float, floor: float) -> str:
    delta = b - a
    if abs(delta) < floor:
        return "ok"
    if a <= 0:
        return "regression" if delta > 0 else "improvement"
    if delta > a * pct:
        return "regression"
    if -delta > a * pct:
        return "improvement"
    return "ok"


@dataclass
class RunDiff:
    """The comparison of two ledger records, B (new) against A (old)."""

    a: RunRecord
    b: RunRecord
    rows: List[DiffRow]
    comparable: bool  # same workload + config hash

    @property
    def regressions(self) -> List[DiffRow]:
        return [row for row in self.rows if row.flag == "regression"]

    @property
    def improvements(self) -> List[DiffRow]:
        return [row for row in self.rows if row.flag == "improvement"]

    @property
    def verdict(self) -> str:
        return "regression" if self.regressions else "ok"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "a": self.a.run_id,
            "b": self.b.run_id,
            "comparable": self.comparable,
            "verdict": self.verdict,
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "rows": [
                {
                    "section": row.section,
                    "name": row.name,
                    "a": row.a,
                    "b": row.b,
                    "delta": round(row.delta, 6),
                    "pct": None if row.pct is None else round(row.pct, 2),
                    "flag": row.flag,
                }
                for row in self.rows
            ],
        }

    def to_text(self) -> str:
        a, b = self.a, self.b
        lines = [
            f"run diff: A {a.run_id} ({a.when}) -> B {b.run_id} ({b.when})",
            f"workload  A {a.workload} [{a.config_hash}]  "
            f"B {b.workload} [{b.config_hash}]"
            + ("" if self.comparable else "  ** configs differ — deltas indicative only **"),
        ]
        prov_keys = sorted(set(a.provenance) | set(b.provenance))
        changed = [
            f"{k}: {a.provenance.get(k, '-')} -> {b.provenance.get(k, '-')}"
            for k in prov_keys
            if a.provenance.get(k) != b.provenance.get(k)
        ]
        if changed:
            lines.append("environment changed: " + "; ".join(changed))
        header = (
            f"{'section':9s} {'name':28s} {'A':>12s} {'B':>12s} "
            f"{'delta':>12s} {'pct':>8s}  flag"
        )
        lines += [header, "-" * len(header)]
        for row in self.rows:
            pct = f"{row.pct:+7.1f}%" if row.pct is not None else "       -"
            flag = "" if row.flag == "ok" else f"  {row.flag.upper()}"
            lines.append(
                f"{row.section:9s} {row.name:28.28s} {row.a:12.4f} "
                f"{row.b:12.4f} {row.delta:+12.4f} {pct}{flag}"
            )
        lines.append(
            f"verdict: {self.verdict} ({len(self.regressions)} regressions, "
            f"{len(self.improvements)} improvements)"
        )
        return "\n".join(lines)


def diff_runs(
    a: RunRecord, b: RunRecord, thresholds: Optional[DiffThresholds] = None
) -> RunDiff:
    """Compare run B (new) against run A (baseline)."""
    th = thresholds or DiffThresholds()
    rows: List[DiffRow] = [
        DiffRow(
            "wall",
            "wall_s",
            a.wall_s,
            b.wall_s,
            _flag(a.wall_s, b.wall_s, th.wall_pct, th.wall_min_s),
        )
    ]
    for phase in sorted(set(a.phases) | set(b.phases)):
        pa = float(a.phases.get(phase, 0.0))
        pb = float(b.phases.get(phase, 0.0))
        rows.append(
            DiffRow(
                "phase", phase, pa, pb, _flag(pa, pb, th.phase_pct, th.phase_min_s)
            )
        )
    for name in sorted(set(a.counters) | set(b.counters)):
        ca = float(a.counters.get(name, 0.0))
        cb = float(b.counters.get(name, 0.0))
        rows.append(
            DiffRow(
                "counter",
                name,
                ca,
                cb,
                _flag(ca, cb, th.counter_pct, th.counter_min),
            )
        )
    if "peak_rss_mb" in a.resources or "peak_rss_mb" in b.resources:
        ra, rb = a.peak_rss_mb, b.peak_rss_mb
        rows.append(
            DiffRow(
                "resource",
                "peak_rss_mb",
                ra,
                rb,
                _flag(ra, rb, th.rss_pct, th.rss_min_mb),
            )
        )
    comparable = (
        a.workload == b.workload and a.config_hash == b.config_hash
    )
    return RunDiff(a=a, b=b, rows=rows, comparable=comparable)
