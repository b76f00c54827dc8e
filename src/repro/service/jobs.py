"""Job model of the routing service: states, events, registry, spool.

A *job* is one pipeline run requested over HTTP. Its lifecycle is
``queued → running → done | failed | cancelled``; every transition and
every per-stage progress callback of the engine lands here as an
*event* — an append-only, timestamped dict the ``/jobs/<id>/events``
endpoint streams verbatim. The :class:`JobState` snapshot (what
``GET /jobs/<id>`` returns) is folded from those events, so the server
process never needs to share memory with the worker that executes the
pipeline.

Design texts submitted with a job are spooled content-addressed
(``spool/<sha16>.nets``): two tenants submitting byte-identical designs
share one spool file, and — because the ``load_design`` stage hashes the
file *content*, not its path — every downstream artifact too.
"""

from __future__ import annotations

import hashlib
import json
import secrets
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from ..errors import ReproError

#: Job states; the last three are terminal.
JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATUSES = ("done", "failed", "cancelled")


class ServiceError(ReproError):
    """Raised for invalid service requests (bad submission, unknown job,
    quota exceeded); carries the HTTP status the server should answer."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def new_job_id() -> str:
    return f"j{secrets.token_hex(6)}"


@dataclass
class JobState:
    """Snapshot of one job, JSON-serialisable by construction."""

    job_id: str
    tenant: str
    design: str  # human-readable workload label
    status: str = "queued"
    created_unix: float = 0.0
    started_unix: float = 0.0
    finished_unix: float = 0.0
    error: str = ""
    #: Per-stage outcomes in pipeline order (from ``stage_end`` events):
    #: ``{"stage", "status", "seconds", "bytes"}``.
    stages: List[Dict[str, Any]] = field(default_factory=list)
    #: artifact kind → content hash (resolves ``/artifacts/<kind>``),
    #: from each ``stage_end`` event.
    artifact_hashes: Dict[str, str] = field(default_factory=dict)
    #: Ledger run id recorded by the worker (empty when ledger is off).
    run_id: str = ""
    #: Counter totals from the worker's per-job registry.
    counters: Dict[str, float] = field(default_factory=dict)
    executed: int = 0
    cached: int = 0
    events_seen: int = 0

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def snapshot(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "design": self.design,
            "status": self.status,
            "created_unix": self.created_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "error": self.error,
            "stages": list(self.stages),
            "artifact_hashes": dict(self.artifact_hashes),
            "run_id": self.run_id,
            "counters": dict(self.counters),
            "executed": self.executed,
            "cached": self.cached,
            "events": self.events_seen,
        }


class JobRegistry:
    """Thread-safe in-memory job table plus per-job event logs.

    The asyncio server reads it from the event loop, the pool drainer
    thread writes worker events into it, and the inline worker writes
    directly — one lock covers all of it (operations are tiny).

    Cancellation is cooperative and file-based so it crosses the process
    boundary without shared primitives: :meth:`cancel` drops a sentinel
    file the worker's between-stage cancel check polls.

    :meth:`apply_event` calls ``listener(job_id, terminal)`` after each
    event, outside the lock, on whichever thread applied it (``terminal``
    is the job when the event ended it, else None); the server uses it to
    free the tenant's slot and wake that job's open event streams.
    """

    def __init__(
        self,
        spool_dir: Union[str, Path],
        listener: Optional[Callable[[str, Optional[JobState]], None]] = None,
    ) -> None:
        self.spool_dir = Path(spool_dir)
        self.listener = listener
        self._lock = threading.RLock()
        self._jobs: Dict[str, JobState] = {}
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._order: List[str] = []

    # ------------------------------------------------------------------ #
    # Spool
    # ------------------------------------------------------------------ #

    def spool_design(self, text: str) -> Path:
        """Persist a submitted design text content-addressed; identical
        submissions share one file (and one load_design artifact)."""
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        path = self.spool_dir / f"{digest}.nets"
        if not path.is_file():
            self.spool_dir.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".nets.{secrets.token_hex(4)}.tmp")
            tmp.write_text(text, encoding="utf-8")
            tmp.replace(path)
        return path

    def cancel_path(self, job_id: str) -> Path:
        return self.spool_dir / f"{job_id}.cancel"

    # ------------------------------------------------------------------ #
    # CRUD
    # ------------------------------------------------------------------ #

    def create(self, tenant: str, design: str) -> JobState:
        job = JobState(
            job_id=new_job_id(),
            tenant=tenant,
            design=design,
            created_unix=time.time(),
        )
        with self._lock:
            self._jobs[job.job_id] = job
            self._events[job.job_id] = [
                {
                    "ts": job.created_unix,
                    "event": "job_queued",
                    "job_id": job.job_id,
                    "tenant": tenant,
                    "design": design,
                }
            ]
            job.events_seen = 1
            self._order.append(job.job_id)
        return job

    def get(self, job_id: str) -> JobState:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        return job

    def list(self, tenant: Optional[str] = None) -> List[JobState]:
        with self._lock:
            jobs = [self._jobs[jid] for jid in self._order]
        if tenant is not None:
            jobs = [j for j in jobs if j.tenant == tenant]
        return jobs

    def snapshot(self, job_id: str) -> Dict[str, Any]:
        with self._lock:
            return self.get(job_id).snapshot()

    def events(self, job_id: str, since: int = 0) -> List[Dict[str, Any]]:
        """Events ``since`` (an index into the per-job log) onward."""
        with self._lock:
            self.get(job_id)  # 404 on unknown
            return list(self._events[job_id][since:])

    # ------------------------------------------------------------------ #
    # Event application (the single state-transition choke point)
    # ------------------------------------------------------------------ #

    def apply_event(self, payload: Dict[str, Any]) -> Optional[JobState]:
        """Fold one worker event into the job table; returns the job when
        it just reached a terminal state, else None. Once the lock is
        released, the listener hears of the event."""
        job_id = str(payload.get("job_id", ""))
        terminal = self._fold(job_id, payload)
        if self.listener is not None:
            self.listener(job_id, terminal)
        return terminal

    def _fold(self, job_id: str, payload: Dict[str, Any]) -> Optional[JobState]:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            payload.setdefault("ts", time.time())
            self._events[job_id].append(payload)
            job.events_seen += 1
            event = payload.get("event")
            became_terminal = False
            if event == "job_started" and not job.terminal:
                job.status = "running"
                job.started_unix = float(payload["ts"])
            elif event == "stage_end":
                job.stages.append(
                    {
                        "stage": payload.get("stage"),
                        "status": payload.get("status"),
                        "seconds": payload.get("seconds", 0.0),
                        "bytes": payload.get("bytes", 0),
                    }
                )
                for kind, h in (payload.get("hashes") or {}).items():
                    job.artifact_hashes[kind] = h
            elif event in ("job_done", "job_failed", "job_cancelled"):
                if not job.terminal:
                    became_terminal = True
                job.status = {
                    "job_done": "done",
                    "job_failed": "failed",
                    "job_cancelled": "cancelled",
                }[event]
                job.finished_unix = float(payload["ts"])
                job.error = str(payload.get("error", "")) or job.error
                job.run_id = str(payload.get("run_id", "")) or job.run_id
                job.counters = dict(payload.get("counters") or {})
                job.executed = int(payload.get("executed", job.executed))
                job.cached = int(payload.get("cached", job.cached))
            return job if became_terminal else None

    def cancel(self, job_id: str) -> JobState:
        """Request cancellation: drop the cross-process sentinel; a job
        still queued is failed fast (the worker skips it on pickup)."""
        job = self.get(job_id)
        if job.terminal:
            return job
        try:
            # circuit-only services may never have spooled a design
            self.spool_dir.mkdir(parents=True, exist_ok=True)
            self.cancel_path(job_id).touch()
        except OSError:
            pass
        if job.status == "queued":
            self.apply_event(
                {"event": "job_cancelled", "job_id": job_id, "error": "cancelled while queued"}
            )
        return job

    def is_cancelled(self, job_id: str) -> bool:
        return self.cancel_path(job_id).is_file()


def job_event(event: str, job_id: str, **extra: Any) -> Dict[str, Any]:
    """A well-formed event payload (shared by workers and the registry)."""
    out: Dict[str, Any] = {"ts": time.time(), "event": event, "job_id": job_id}
    out.update(extra)
    return out


def dumps_event(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, default=str)
