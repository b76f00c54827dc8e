"""Minimal stdlib HTTP client for the routing service.

Shared by perfbench's ``service-mix`` workload and the tests (the
service smoke test drives a live ``repro serve`` process with it) — one
connection per request (the server always answers ``Connection:
close``), JSON in/out, and a blocking :meth:`ServiceClient.wait` that
follows a job's pushed event stream to its terminal state.
"""

from __future__ import annotations

import http.client
import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlsplit

from .jobs import ServiceError, TERMINAL_STATUSES


class ServiceClient:
    """Talk to a :class:`~repro.service.RoutingService` at ``base_url``."""

    def __init__(self, base_url: str, timeout_s: float = 30.0, tenant: str = "") -> None:
        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.scheme not in ("http", ""):
            raise ServiceError(f"unsupported scheme {parts.scheme!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.timeout_s = timeout_s
        self.tenant = tenant

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #

    @contextmanager
    def _response(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Iterator[http.client.HTTPResponse]:
        """The open response; ``timeout_s`` bounds each socket read."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        headers = {"Connection": "close"}
        if self.tenant:
            headers["X-Tenant"] = self.tenant
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            conn.request(method, path, body=payload, headers=headers)
            # The response owns the socket once the server answers
            # ``Connection: close``; closing it frees the socket also
            # when the caller stops before the end of the body.
            with conn.getresponse() as resp:
                yield resp
        finally:
            conn.close()

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, bytes]:
        with self._response(method, path, body) as resp:
            return resp.status, resp.read()

    def _json(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        ok: Tuple[int, ...] = (200, 202),
    ) -> Dict[str, Any]:
        status, raw = self._request(method, path, body)
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            obj = {"error": raw.decode("utf-8", "replace")[:200]}
        if status not in ok:
            raise ServiceError(
                f"{method} {path} → {status}: {obj.get('error', obj)}",
                status=status,
            )
        return obj

    # ------------------------------------------------------------------ #
    # API
    # ------------------------------------------------------------------ #

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._json("POST", "/jobs", body=payload)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}")

    def jobs(self, tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        path = "/jobs" + (f"?tenant={tenant}" if tenant else "")
        return self._json("GET", path)["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def wait(self, job_id: str, timeout_s: float = 300.0) -> Dict[str, Any]:
        """Block until the job reaches a terminal state, then return its
        snapshot. Follows the job's event stream, which the server closes
        after the terminal event; the deadline is checked between lines,
        and the server's keepalive bounds the time between them."""
        deadline = time.monotonic() + timeout_s
        path = f"/jobs/{job_id}/events"
        with self._response("GET", path) as resp:
            if resp.status != 200:
                raise ServiceError(
                    f"GET {path} → {resp.status}", status=resp.status
                )
            while resp.readline() and time.monotonic() <= deadline:
                pass
        snap = self.job(job_id)
        if snap["status"] not in TERMINAL_STATUSES:
            raise ServiceError(
                f"job {job_id} still {snap['status']} after {timeout_s}s",
                status=504,
            )
        return snap

    def events(self, job_id: str, wait: bool = True) -> List[Dict[str, Any]]:
        """The job's full event log; with ``wait`` the call streams until
        the job is terminal (mirrors the live progress a UI would show).
        The stream's blank keepalive lines are skipped."""
        suffix = "" if wait else "?wait=0"
        status, raw = self._request("GET", f"/jobs/{job_id}/events{suffix}")
        if status != 200:
            raise ServiceError(f"events → {status}", status=status)
        return [
            json.loads(line)
            for line in raw.decode("utf-8").splitlines()
            if line.strip()
        ]

    def artifact(self, job_id: str, kind: str) -> Dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}/artifacts/{kind}")

    def artifact_bytes(self, job_id: str, kind: str) -> bytes:
        """The raw artifact response body — byte-identical across jobs
        that resolved to the same content hash."""
        status, raw = self._request("GET", f"/jobs/{job_id}/artifacts/{kind}")
        if status != 200:
            raise ServiceError(f"artifact {kind} → {status}", status=status)
        return raw

    def metrics(self) -> str:
        status, raw = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"/metrics → {status}", status=status)
        return raw.decode("utf-8")

    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")
