"""End-to-end acceptance smoke — what the CI ``service-smoke`` job runs.

Two tenants submit the identical ``Test1`` workload against a
multi-process service; the contract under test:

* the first job routes (exactly one ``stage:route`` execution);
* the second does **zero** route/decompose work — every stage arrives
  from the shared store (``hit``/``coalesced``), confirmed by the event
  stream, the per-job span count, and the service stage counters;
* both jobs resolve to byte-identical artifacts;
* ``GET /metrics`` passes the Prometheus exposition validator;
* both runs land in the run ledger.

:func:`test_serve_process_under_concurrent_load` drives ``repro serve``
as its own process: concurrent duplicate and fresh submissions from
several tenants, then SIGTERM, after which no worker may outlive it.
"""

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.obs.ledger import Ledger
from repro.obs.prom import validate_prometheus_text
from repro.service import RoutingService, ServiceClient


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("service_smoke")
    svc = RoutingService(
        port=0,
        workers=2,
        cache_dir=str(tmp / "cache"),
        ledger=True,
        ledger_dir=str(tmp / "runs"),
    ).start_background()
    first = ServiceClient(svc.url, tenant="alice")
    second = ServiceClient(svc.url, tenant="bob")
    payload = {"circuit": "Test1", "scale": 0.1, "seed": 2014}

    job1 = first.submit(dict(payload))
    snap1 = first.wait(job1["job_id"], timeout_s=300)
    job2 = second.submit(dict(payload))
    snap2 = second.wait(job2["job_id"], timeout_s=300)
    yield {
        "service": svc,
        "ledger_dir": str(tmp / "runs"),
        "clients": (first, second),
        "snaps": (snap1, snap2),
        "events": (
            first.events(job1["job_id"]),
            second.events(job2["job_id"]),
        ),
    }
    svc.stop()


def _route_runs(events):
    return [
        e
        for e in events
        if e["event"] == "stage_end"
        and e["stage"] == "route"
        and e["status"] == "run"
    ]


class TestSmoke:
    def test_both_jobs_succeed(self, smoke):
        snap1, snap2 = smoke["snaps"]
        assert snap1["status"] == "done"
        assert snap2["status"] == "done"

    def test_first_routes_second_is_fully_cached(self, smoke):
        snap1, snap2 = smoke["snaps"]
        ev1, ev2 = smoke["events"]
        assert len(_route_runs(ev1)) == 1
        assert _route_runs(ev2) == []  # zero route executions
        assert snap2["executed"] == 0
        assert snap2["cached"] == 6
        assert all(
            s["status"] in ("hit", "coalesced") for s in snap2["stages"]
        )
        # the worker's per-job span count agrees with the event stream
        done1 = next(e for e in ev1 if e["event"] == "job_done")
        done2 = next(e for e in ev2 if e["event"] == "job_done")
        assert done1["route_spans"] == 1
        assert done2["route_spans"] == 0

    def test_artifacts_byte_identical_across_tenants(self, smoke):
        snap1, snap2 = smoke["snaps"]
        first, second = smoke["clients"]
        assert snap1["artifact_hashes"] == snap2["artifact_hashes"]
        for kind in ("routing", "mask", "report"):
            if kind not in snap1["artifact_hashes"]:
                continue
            assert first.artifact_bytes(
                snap1["job_id"], kind
            ) == second.artifact_bytes(snap2["job_id"], kind)

    def test_metrics_exposition_valid(self, smoke):
        first, _ = smoke["clients"]
        text = first.metrics()
        assert validate_prometheus_text(text) == []
        assert "service_jobs_completed_total" in text
        # the service-level counters see one run + cached stages
        assert "service_stage_runs_total" in text
        assert "service_stage_cache_hits_total" in text

    def test_both_runs_in_ledger(self, smoke):
        snap1, snap2 = smoke["snaps"]
        assert snap1["run_id"] and snap2["run_id"]
        runs = {r.run_id for r in Ledger(smoke["ledger_dir"]).history(limit=50)}
        assert {snap1["run_id"], snap2["run_id"]} <= runs


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _pump_lines(stream):
    """Drain ``stream`` into a queue from a thread; ``None`` marks its end.

    The thread keeps draining after the server's address is read, so the
    server never blocks on a full stderr. Returns the queue and the
    thread, which ends once every writer has closed the pipe.
    """
    lines = queue.Queue()

    def pump():
        for line in stream:
            lines.put(line)
        lines.put(None)

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    return lines, thread


def _serving_url(lines, deadline_s):
    """Read the server's stderr lines until it prints its address."""
    deadline = time.monotonic() + deadline_s
    seen = []
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            pytest.fail(f"no 'serving at' line within {deadline_s}s: {seen}")
        try:
            line = lines.get(timeout=remaining)
        except queue.Empty:
            continue
        if line is None:
            pytest.fail(f"server exited before serving: {seen}")
        seen.append(line.rstrip())
        if line.startswith("serving at "):
            return line.split()[2]


def test_serve_process_under_concurrent_load(tmp_path):
    """``repro serve`` with 2 worker processes: 6 concurrent jobs from 3
    tenants (one design three times, three fresh seeds) route each
    distinct design once, /metrics is valid, the jobs run outside the
    server process, and SIGTERM stops the server and all its workers."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--service-workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--ledger-dir", str(tmp_path / "runs"),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    lines, pump = _pump_lines(proc.stderr)
    worker_pids = set()
    try:
        url = _serving_url(lines, deadline_s=60)
        payloads = [{"circuit": "Test1", "scale": 0.1, "seed": 2014}] * 3 + [
            {"circuit": "Test1", "scale": 0.1, "seed": seed}
            for seed in (2015, 2016, 2017)
        ]

        def run(i):
            client = ServiceClient(url, tenant=f"tenant-{i % 3}")
            job = client.submit(payloads[i])
            snap = client.wait(job["job_id"], timeout_s=120)
            return snap, client.events(job["job_id"])

        with ThreadPoolExecutor(max_workers=len(payloads)) as pool:
            results = list(pool.map(run, range(len(payloads))))
        worker_pids = {
            e["pid"]
            for _, events in results
            for e in events
            if e["event"] == "job_started"
        }

        assert [snap["status"] for snap, _ in results] == ["done"] * 6
        route_runs = sum(len(_route_runs(events)) for _, events in results)
        assert route_runs == 4  # one per distinct design
        assert validate_prometheus_text(ServiceClient(url).metrics()) == []
        assert worker_pids and proc.pid not in worker_pids

        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in worker_pids):
            assert time.monotonic() < deadline, (
                f"workers outlived the server: "
                f"{sorted(p for p in worker_pids if _alive(p))}"
            )
            time.sleep(0.05)
    finally:
        if proc.poll() is None:  # failed before the SIGTERM above
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for pid in worker_pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        # Every process that held the pipe is gone, so the pump reaches
        # its end; close the pipe only after it stopped reading.
        pump.join(timeout=10)
        if not pump.is_alive():
            proc.stderr.close()
    assert not pump.is_alive(), "the stderr pump never reached the pipe's end"
