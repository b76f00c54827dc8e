"""Routing-as-a-service: a stdlib-only async HTTP front-end.

One :class:`RoutingService` owns the whole serving stack:

* an ``asyncio`` HTTP/1.1 server (no third-party framework — requests
  are parsed from the stream reader, responses always ``Connection:
  close``) exposing the job API;
* a bounded worker pool (processes by default, an inline thread for
  ``workers=0``) draining the submission queue through
  :func:`~repro.service.worker.execute_job`;
* the shared content-addressed :class:`~repro.pipeline.ArtifactStore` —
  concurrency-safe since the store grew compare-and-publish + single
  flight, so identical designs across tenants cost one computation;
* per-tenant quotas and a service metrics registry rendered by
  ``repro.obs.prom`` at ``GET /metrics``.

API (all JSON)::

    POST /jobs                      submit {design_text,width,height} or
                                    {circuit,scale,seed}; 202 → {job_id}
    GET  /jobs                      job table (?tenant= filters)
    GET  /jobs/<id>                 state snapshot
    GET  /jobs/<id>/events          ndjson stream, live until terminal
                                    (?wait=0 dumps and closes); a blank
                                    line after 5 s without an event
    GET  /jobs/<id>/artifacts/<k>   artifact record for kind <k>
    POST /jobs/<id>/cancel          cooperative cancellation
    GET  /metrics                   Prometheus exposition
    GET  /healthz                   liveness

Events are pushed, not polled: the registry calls the service back on
whichever thread applied an event (worker, drainer, or the loop itself
for a cancelled queued job), and the service wakes that job's open
``/events`` streams on the loop with ``call_soon_threadsafe``.

The server is embeddable (``start_background()`` runs the loop in a
daemon thread and returns once the port is bound — tests and perfbench
use that) or foreground (``serve_forever()`` for ``repro serve``).
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Set, Tuple

from ..errors import ReproError
from ..obs.metrics import MetricsRegistry
from ..obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from ..obs.prom import to_prometheus
from ..pipeline import ALL_STAGES, ArtifactStore, PipelineConfig, default_cache_dir
from .jobs import JobRegistry, JobState, ServiceError, dumps_event
from .quotas import TenantQuotas
from .worker import InlineWorkerPool, WorkerPool

#: Submission keys forwarded into :class:`PipelineConfig` verbatim.
_CONFIG_PASSTHROUGH = ("router", "num_layers")

#: Every key a submission body may carry.
_SUBMISSION_KEYS = frozenset(
    ("design_text", "width", "height", "circuit", "scale", "seed", "targets", "tenant")
    + _CONFIG_PASSTHROUGH
)

#: Seconds an ``/events`` stream may stay silent before it writes a blank
#: line, so a long stage never trips the client's socket timeout.
_KEEPALIVE_S = 5.0
_MAX_BODY_BYTES = 8 << 20


def _json_bytes(obj: Any) -> bytes:
    return (json.dumps(obj, sort_keys=True, default=str) + "\n").encode("utf-8")


class RoutingService:
    """The multi-tenant routing job service (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        cache_dir: Optional[str] = None,
        spool_dir: Optional[str] = None,
        max_active_per_tenant: int = 8,
        ledger: bool = True,
        ledger_dir: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port  # rebound to the real port once listening
        self.cache_dir = cache_dir or default_cache_dir()
        self.spool_dir = spool_dir or str(Path(self.cache_dir) / "spool")
        self.ledger = ledger
        self.ledger_dir = ledger_dir
        self.store = ArtifactStore(self.cache_dir)
        self.registry = JobRegistry(self.spool_dir, listener=self._job_changed)
        self.metrics = MetricsRegistry()
        self.quotas = TenantQuotas(
            max_active=max_active_per_tenant, registry=self.metrics
        )
        if workers <= 0:
            self.pool: Any = InlineWorkerPool(self._on_event)
        else:
            self.pool = WorkerPool(workers, self._on_event)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: job id -> wake flags of its open event streams (loop thread only)
        self._streams: Dict[str, Set[asyncio.Event]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        #: Optional callback invoked (with the service) once the socket
        #: is bound — lets ``repro serve`` print the real port even for
        #: ``--port 0``.
        self.on_listening: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # Worker events
    # ------------------------------------------------------------------ #

    def _on_event(self, payload: Dict[str, Any]) -> None:
        """The pools' event callback, on the worker or drainer thread."""
        self.registry.apply_event(payload)
        if payload.get("event") == "stage_end":
            status = str(payload.get("status", ""))
            name = (
                "service_stage_runs_total"
                if status == "run"
                else "service_stage_cache_hits_total"
            )
            job_id = str(payload.get("job_id", ""))
            try:
                tenant = self.registry.get(job_id).tenant
            except ServiceError:
                tenant = ""
            self.metrics.counter(
                name, tenant=tenant, stage=str(payload.get("stage", ""))
            ).inc()

    def _job_changed(self, job_id: str, terminal: Optional[JobState]) -> None:
        """Registry listener, on whichever thread applied the event.

        A job that just ended frees its tenant's slot first, so a client
        that hears the end can submit again at once. Then the job's open
        event streams are woken on the loop."""
        if terminal is not None:
            seconds = max(0.0, terminal.finished_unix - terminal.created_unix)
            self.quotas.release(terminal.tenant, terminal.status, seconds)
        if self._loop is None:
            return  # not serving: no stream can be open
        try:
            self._loop.call_soon_threadsafe(self._wake_streams, job_id)
        except RuntimeError:
            pass  # the loop has closed, and with it every stream

    def _wake_streams(self, job_id: str) -> None:
        for wake in self._streams.get(job_id, ()):
            wake.set()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(self, payload: Dict[str, Any], tenant: str = "") -> Dict[str, Any]:
        """Validate a submission, admit it against the tenant quota, and
        queue the job; returns the initial job snapshot.

        Any invalid body raises a 400 :class:`ServiceError` before the
        job takes a queue slot."""
        if not isinstance(payload, dict):
            raise ServiceError("submission body must be a JSON object")
        unknown = sorted(set(payload) - _SUBMISSION_KEYS)
        if unknown:
            raise ServiceError(f"unknown submission keys {unknown}")
        tenant = str(payload.get("tenant") or tenant or "anon")
        try:
            config, design_label, targets = self._job_config(payload)
        except ServiceError:
            raise
        except (ReproError, TypeError, ValueError, OverflowError) as exc:
            raise ServiceError(f"bad submission: {exc}") from None
        reason = self.quotas.try_acquire(tenant)
        if reason is not None:
            raise ServiceError(reason, status=429)
        job = self.registry.create(tenant, design_label)
        task = {
            "job_id": job.job_id,
            "tenant": tenant,
            "config": config,
            "targets": targets,
            "cancel_path": str(self.registry.cancel_path(job.job_id)),
            "ledger": self.ledger,
            "ledger_dir": self.ledger_dir,
            "workload": design_label,
        }
        self.pool.submit(task)
        return job.snapshot()

    def _job_config(self, payload: Dict[str, Any]):
        """The job's validated ``(config, design label, targets)``."""
        config: Dict[str, Any] = {"cache_dir": self.cache_dir}
        for key in _CONFIG_PASSTHROUGH:
            if key in payload:
                config[key] = payload[key]
        if payload.get("design_text") is not None:
            width, height = payload.get("width"), payload.get("height")
            if not width or not height:
                raise ServiceError(
                    "design_text submissions need width and height (tracks)"
                )
            config.update(width=int(width), height=int(height))
            spooled = self.registry.spool_design(str(payload["design_text"]))
            config["netlist"] = str(spooled)
            design_label = f"design:{spooled.stem}"
        elif payload.get("circuit"):
            config.update(
                circuit=str(payload["circuit"]),
                scale=float(payload.get("scale", 0.15)),
                seed=int(payload.get("seed", 2014)),
            )
            design_label = (
                f"{config['circuit']}@{config['scale']}/seed{config['seed']}"
            )
        else:
            raise ServiceError(
                "submission needs design_text (+width/height) or circuit"
            )
        targets = payload.get("targets")
        if targets is not None:
            if not isinstance(targets, list):
                raise ServiceError("targets must be a list of stage names")
            targets = [str(t) for t in targets]
            unknown = set(targets) - set(ALL_STAGES)
            if unknown:
                raise ServiceError(f"unknown stages {sorted(unknown)}")
        PipelineConfig(**config).validate()
        return config, design_label, targets

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        request_line = await reader.readline()
        if not request_line:
            raise ConnectionError("empty request")
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            raise ServiceError("malformed request line", status=400) from None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise ServiceError("request body too large", status=413)
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    def _start_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str = "application/json",
        length: Optional[int] = None,
    ) -> None:
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
        }.get(status, "OK")
        head = [f"HTTP/1.1 {status} {reason}", f"Content-Type: {content_type}"]
        if length is not None:
            head.append(f"Content-Length: {length}")
        head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))

    def _send_json(
        self, writer: asyncio.StreamWriter, status: int, obj: Any
    ) -> None:
        body = _json_bytes(obj)
        self._start_response(writer, status, length=len(body))
        writer.write(body)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_request(reader, writer)
        except asyncio.CancelledError:
            # Server shutdown while a response (e.g. a long-lived event
            # stream) was in flight: drop the connection quietly.
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status_for_log = 500
        method = target = "?"
        try:
            method, target, headers, body = await self._read_request(reader)
            status_for_log = await self._dispatch(
                method, target, headers, body, writer
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            status_for_log = 0  # client went away; nothing to answer
        except ServiceError as exc:
            status_for_log = exc.status
            try:
                self._send_json(writer, exc.status, {"error": str(exc)})
            except ConnectionError:
                pass
        except Exception as exc:  # noqa: BLE001 - server must not die
            try:
                self._send_json(writer, 500, {"error": f"internal: {exc}"})
            except ConnectionError:
                pass
        finally:
            if status_for_log:
                self.metrics.counter(
                    "service_http_requests_total",
                    method=method,
                    code=str(status_for_log),
                ).inc()
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> int:
        path, _, query = target.partition("?")
        params = dict(
            pair.partition("=")[::2] for pair in query.split("&") if pair
        )
        parts = [p for p in path.split("/") if p]

        if path in ("/healthz", "/health"):
            self._send_json(writer, 200, {"ok": True, "jobs": len(self.registry.list())})
            return 200
        if path == "/metrics":
            text = to_prometheus(self.metrics).encode("utf-8")
            self._start_response(
                writer, 200, content_type=PROM_CONTENT_TYPE, length=len(text)
            )
            writer.write(text)
            return 200
        if parts and parts[0] == "jobs":
            return await self._dispatch_jobs(
                method, parts, params, headers, body, writer
            )
        raise ServiceError(f"no such route {path!r}", status=404)

    async def _dispatch_jobs(
        self,
        method: str,
        parts: list,
        params: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> int:
        if len(parts) == 1:
            if method == "POST":
                try:
                    payload = json.loads(body.decode("utf-8") or "{}")
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    raise ServiceError(f"bad JSON body: {exc}") from None
                snapshot = self.submit(
                    payload, tenant=headers.get("x-tenant", "")
                )
                self._send_json(writer, 202, snapshot)
                return 202
            if method == "GET":
                tenant = params.get("tenant") or None
                self._send_json(
                    writer,
                    200,
                    {"jobs": [j.snapshot() for j in self.registry.list(tenant)]},
                )
                return 200
            raise ServiceError("use GET or POST on /jobs", status=405)

        job_id = parts[1]
        if len(parts) == 2:
            if method != "GET":
                raise ServiceError("use GET on /jobs/<id>", status=405)
            self._send_json(writer, 200, self.registry.snapshot(job_id))
            return 200
        if parts[2] == "cancel" and len(parts) == 3:
            if method != "POST":
                raise ServiceError("use POST on /jobs/<id>/cancel", status=405)
            job = self.registry.cancel(job_id)
            self._send_json(writer, 200, job.snapshot())
            return 200
        if parts[2] == "events" and len(parts) == 3:
            if method != "GET":
                raise ServiceError("use GET on /jobs/<id>/events", status=405)
            await self._stream_events(
                writer, job_id, wait=params.get("wait", "1") != "0"
            )
            return 200
        if parts[2] == "artifacts" and len(parts) == 4:
            if method != "GET":
                raise ServiceError("use GET on artifacts", status=405)
            return self._send_artifact(writer, job_id, parts[3])
        raise ServiceError(f"no such route under /jobs/{job_id}", status=404)

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str, wait: bool
    ) -> None:
        self.registry.get(job_id)  # 404 before headers go out
        self._start_response(writer, 200, content_type="application/x-ndjson")
        wake = asyncio.Event()
        streams = self._streams.setdefault(job_id, set())
        streams.add(wake)
        sent = 0
        try:
            while True:
                # Cleared before the re-read: an event appended after it
                # sets the flag again, also while drain() waits below.
                wake.clear()
                for payload in self.registry.events(job_id, since=sent):
                    writer.write((dumps_event(payload) + "\n").encode("utf-8"))
                    sent += 1
                await writer.drain()
                job = self.registry.get(job_id)
                if not wait or (job.terminal and sent >= job.events_seen):
                    return
                try:
                    await asyncio.wait_for(wake.wait(), _KEEPALIVE_S)
                except asyncio.TimeoutError:
                    writer.write(b"\n")  # keepalive; drained next round
        finally:
            streams.discard(wake)
            if not streams:
                del self._streams[job_id]

    def _send_artifact(
        self, writer: asyncio.StreamWriter, job_id: str, kind: str
    ) -> int:
        job = self.registry.get(job_id)
        h = job.artifact_hashes.get(kind)
        if h is None:
            if not job.terminal:
                raise ServiceError(
                    f"job {job_id} is {job.status}; artifacts appear as "
                    f"stages finish",
                    status=409,
                )
            raise ServiceError(
                f"job {job_id} has no {kind!r} artifact "
                f"(kinds: {sorted(job.artifact_hashes)})",
                status=404,
            )
        art = self.store.load(h)
        if art is None:
            raise ServiceError(
                f"artifact {h} evicted from the store; resubmit the job",
                status=404,
            )
        body = _json_bytes(
            {"kind": art.kind, "hash": art.hash, "payload": art.payload}
        )
        self._start_response(writer, 200, length=len(body))
        writer.write(body)
        return 200

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        if self.on_listening is not None:
            try:
                self.on_listening(self)
            except Exception:  # noqa: BLE001 - cosmetic hook only
                pass
        async with self._server:
            try:
                await self._server.serve_forever()
            except asyncio.CancelledError:
                pass

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._serve())
        finally:
            self._ready.set()  # never leave start_background() hanging

    def start_background(self, timeout_s: float = 10.0) -> "RoutingService":
        """Start pool + server in a daemon thread; returns once the port
        is bound (``self.port`` then holds the real port)."""
        if self._thread is not None:
            return self
        self.pool.start()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-service-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise ServiceError("service failed to start listening", status=500)
        if self._server is None:
            raise ServiceError("service loop exited during startup", status=500)
        return self

    def serve_forever(self) -> None:
        """Foreground serving (``repro serve``); Ctrl-C or SIGTERM stops
        cleanly, worker processes included."""
        self.pool.start()
        # SIGTERM's default action ends the process without running the
        # ``finally`` below, which would leave the workers running. In the
        # main thread (the only one that may set a handler) it raises
        # KeyboardInterrupt instead, like Ctrl-C. The workers are already
        # forked, so they keep the default action.
        previous = None
        if threading.current_thread() is threading.main_thread():
            previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:
            pass
        finally:
            self.pool.stop()
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)

    def stop(self) -> None:
        if self._loop is not None and self._server is not None:
            server = self._server

            def _close() -> None:
                server.close()
                for task in asyncio.all_tasks(self._loop):
                    task.cancel()

            try:
                self._loop.call_soon_threadsafe(_close)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.pool.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"
