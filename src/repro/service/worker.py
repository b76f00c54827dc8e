"""Job execution: the pipeline run inside a worker, and the worker pools.

:func:`execute_job` is the one function that turns a queued job into
events — it runs the staged pipeline with a per-job observability
session (so ``stage:<name>`` span counts are exact per job), wires the
engine's progress callbacks into the event channel, polls the
cross-process cancellation sentinel between stages, and records the run
in the ledger. It is process-agnostic: the same code runs

* in a :class:`WorkerPool` — N persistent daemon processes draining a
  shared task queue, events flowing back over a result queue (the
  production shape: jobs survive GIL contention and crash in isolation);
* in an :class:`InlineWorkerPool` — one daemon *thread* in the server
  process (``--service-workers 0``; used by tests and tiny deployments
  — no fork, fully deterministic).

Both pools deliver events through a single ``on_event`` callback, which
the server points at :meth:`JobRegistry.apply_event`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from ..errors import PipelineCancelled, ReproError
from .jobs import job_event

#: Wall-clock budget a pool waits for workers to exit on stop().
_STOP_JOIN_S = 5.0


def execute_job(task: Dict[str, Any], emit: Callable[[Dict[str, Any]], None]) -> None:
    """Run one job's pipeline, emitting lifecycle + progress events.

    ``task`` is a plain picklable dict::

        {"job_id", "tenant", "config": {PipelineConfig kwargs},
         "targets": [...] | None, "cancel_path": str,
         "ledger": bool, "ledger_dir": str | None, "workload": str}

    Never raises: every failure mode becomes a ``job_failed`` (or
    ``job_cancelled``) event.
    """
    from .. import obs
    from ..pipeline import ALL_STAGES, Pipeline, PipelineConfig
    from ..pipeline.observe import record_run

    job_id = task["job_id"]
    cancel_path = task.get("cancel_path") or ""

    def cancelled() -> bool:
        return bool(cancel_path) and os.path.exists(cancel_path)

    if cancelled():
        emit(job_event("job_cancelled", job_id, error="cancelled before start"))
        return
    emit(job_event("job_started", job_id, pid=os.getpid()))
    t0 = time.perf_counter()
    outcome = "error"
    try:
        config = PipelineConfig(**task["config"])
        targets = tuple(task.get("targets") or ALL_STAGES)
        with obs.session() as ob:
            pipe = Pipeline(config)
            try:
                run = pipe.run(
                    targets=targets,
                    progress=lambda ev: emit(dict(ev, job_id=job_id)),
                    cancel=cancelled,
                )
                outcome = "ok"
            finally:
                wall_s = time.perf_counter() - t0
                route_spans = sum(
                    1 for s in ob.tracer.finished if s.name == "stage:route"
                )
                counters = {
                    entry["metric"]: ob.registry.total(entry["metric"])
                    for entry in ob.registry.snapshot()
                    if entry["kind"] == "counter"
                }
                run_id = ""
                if task.get("ledger", True):
                    try:
                        record = record_run(
                            ob,
                            command="service",
                            workload=str(task.get("workload", "")),
                            config=dict(task["config"]),
                            outcome=outcome,
                            wall_s=wall_s,
                            ledger_dir=task.get("ledger_dir"),
                            meta={"job_id": job_id, "tenant": task.get("tenant", "")},
                        )
                        run_id = record.run_id
                    except Exception:  # telemetry must never fail a job
                        pass
        emit(
            job_event(
                "job_done",
                job_id,
                executed=run.executed_count,
                cached=run.cached_count,
                route_spans=route_spans,
                counters=counters,
                run_id=run_id,
                seconds=round(time.perf_counter() - t0, 6),
            )
        )
    except PipelineCancelled as exc:
        emit(job_event("job_cancelled", job_id, error=str(exc), stage=exc.stage))
    except ReproError as exc:
        emit(job_event("job_failed", job_id, error=str(exc)))
    except Exception as exc:  # noqa: BLE001 - a worker must stay alive
        emit(
            job_event(
                "job_failed",
                job_id,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(limit=20),
            )
        )
    finally:
        if cancel_path:
            try:
                os.unlink(cancel_path)
            except OSError:
                pass


def _worker_main(task_queue, event_queue) -> None:
    """Worker-process loop: drain tasks until the ``None`` sentinel."""
    while True:
        task = task_queue.get()
        if task is None:
            break
        execute_job(task, event_queue.put)


class WorkerPool:
    """Bounded pool of persistent worker *processes* draining one queue.

    Events land on an internal result queue; a drainer thread in the
    server process forwards them to ``on_event`` in arrival order. The
    pool never restarts dead workers silently — a worker death surfaces
    as stuck jobs, which the supervisor can see in the job table.
    """

    def __init__(
        self,
        workers: int,
        on_event: Callable[[Dict[str, Any]], None],
    ) -> None:
        self.workers = max(1, int(workers))
        self.on_event = on_event
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(method)
        self._tasks = self._ctx.Queue()
        self._events = self._ctx.Queue()
        self._procs: List[Any] = []
        self._drainer: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    def start(self) -> "WorkerPool":
        if self._procs:
            return self
        for i in range(self.workers):
            proc = self._ctx.Process(
                target=_worker_main,
                args=(self._tasks, self._events),
                name=f"repro-service-worker-{i}",
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        self._drainer = threading.Thread(
            target=self._drain, name="repro-service-drainer", daemon=True
        )
        self._drainer.start()
        return self

    def _drain(self) -> None:
        while not self._stopping.is_set():
            try:
                payload = self._events.get(timeout=0.1)
            except queue.Empty:
                continue
            try:
                self.on_event(payload)
            except Exception:  # noqa: BLE001 - the drainer must not die
                pass

    def submit(self, task: Dict[str, Any]) -> None:
        self._tasks.put(task)

    def stop(self) -> None:
        for _ in self._procs:
            self._tasks.put(None)
        deadline = time.monotonic() + _STOP_JOIN_S
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
        self._stopping.set()
        if self._drainer is not None:
            self._drainer.join(timeout=2.0)
        self._procs = []


class InlineWorkerPool:
    """Thread-based pool with the same surface as :class:`WorkerPool`.

    Jobs run inside the server process — no fork, no pickling — which is
    what tests and single-tenant embedded use want. One thread drains
    the queue: per-job span counting uses the process-global obs
    backend, which a second job thread would share.
    """

    def __init__(self, on_event: Callable[[Dict[str, Any]], None]) -> None:
        self.on_event = on_event
        self._tasks: "queue.Queue[Optional[Dict[str, Any]]]" = queue.Queue()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "InlineWorkerPool":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-service-inline", daemon=True
            )
            self._thread.start()
        return self

    def _loop(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                break
            execute_job(task, self.on_event)

    def submit(self, task: Dict[str, Any]) -> None:
        self._tasks.put(task)

    def stop(self) -> None:
        if self._thread is not None:
            self._tasks.put(None)
            self._thread.join(timeout=_STOP_JOIN_S)
            self._thread = None
