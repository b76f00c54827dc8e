"""HTTP API behaviour against an embedded inline-worker service."""

import asyncio
import json
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.prom import validate_prometheus_text
from repro.service import RoutingService, ServiceClient, ServiceError
from repro.service.jobs import job_event

DESIGN = "n0 L0 1,2 -> L0 9,2\nn1 L0 4,4 -> L0 4,11\n"

#: Submission bodies that must be refused with a 400 before they take a
#: queue slot, by what is wrong with them.
BAD_BODIES = {
    "scale not a number": {"circuit": "Test1", "scale": "abc"},
    "seed not a number": {"circuit": "Test1", "seed": "x"},
    "width not a number": {"design_text": DESIGN, "width": "w", "height": 16},
    "router not a name": {"circuit": "Test1", "router": 5},
    "scale out of range": {"circuit": "Test1", "scale": 1e9},
    "unknown order": {"circuit": "Test1", "order": "hpwl"},
    "unknown circuit": {"circuit": "Test99"},
    "fractional num_layers": {"circuit": "Test1", "num_layers": 1.5},
    "negative width": {"design_text": DESIGN, "width": -5, "height": 16},
    "targets not a list": {"circuit": "Test1", "targets": "route"},
    "removed guidance knob": {"circuit": "Test1", "guidance": "off"},
    "removed kernel knob": {"circuit": "Test1", "kernel": "cuda"},
    "removed shard knob": {"circuit": "Test1", "shard": "maybe"},
    "removed workers knob": {"circuit": "Test1", "workers": 12},
}


class TestValidation:
    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._json("GET", "/nope")
        assert err.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("jmissing")
        assert err.value.status == 404

    def test_submission_needs_a_source(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({})
        assert err.value.status == 400

    def test_design_text_needs_dimensions(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"design_text": DESIGN})
        assert err.value.status == 400
        assert "width" in str(err.value)

    def test_unknown_targets_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit(
                {"circuit": "Test1", "scale": 0.1, "targets": ["teleport"]}
            )
        assert err.value.status == 400

    def test_bad_json_body_rejected(self, client):
        status, raw = client._request("POST", "/jobs")
        # empty body parses as {} → missing source, still a clean 400
        assert status == 400
        assert b"error" in raw

    def test_method_not_allowed(self, client):
        status, _ = client._request("DELETE", "/jobs")
        assert status == 405


class TestSubmissionValidation:
    @pytest.mark.parametrize("body", BAD_BODIES.values(), ids=BAD_BODIES.keys())
    def test_bad_body_is_a_400_and_takes_no_slot(self, client, body):
        with pytest.raises(ServiceError) as err:
            client.submit(body)
        assert err.value.status == 400
        assert client.jobs() == []

    @pytest.mark.parametrize(
        "key", ["workers", "shard", "kernel", "guidance", "alpha", "order"]
    )
    def test_unknown_key_is_named(self, client, key):
        with pytest.raises(ServiceError) as err:
            client.submit({"circuit": "Test1", key: 1})
        assert err.value.status == 400
        assert f"unknown submission keys ['{key}']" in str(err.value)

    def test_every_known_key_is_admitted(self, holding_service):
        body = {
            "circuit": "test6",
            "scale": 0.1,
            "seed": 7,
            "targets": ["route"],
            "tenant": "t",
            "router": "gao-pan",
            "num_layers": 2,
        }
        snap = ServiceClient(holding_service.url).submit(body)
        assert snap["status"] == "queued"


class _HoldingPool:
    """A worker pool that queues tasks and never runs them."""

    def __init__(self):
        self.tasks = []

    def start(self):
        return self

    def submit(self, task):
        self.tasks.append(task)

    def stop(self):
        pass


@pytest.fixture(scope="module")
def holding_service(tmp_path_factory):
    """A live HTTP front-end whose admitted jobs never run, so random
    bodies cannot start real routing work."""
    svc = RoutingService(
        port=0,
        workers=0,
        cache_dir=str(tmp_path_factory.mktemp("holding")),
        max_active_per_tenant=10**9,
        ledger=False,
    )
    svc.pool = _HoldingPool()
    svc.start_background()
    yield svc
    svc.stop()


_SUBMISSION_KEYS = (
    "design_text", "width", "height", "circuit", "scale", "seed", "targets",
    "tenant", "router", "num_layers",
)
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(
        [DESIGN, "Test1", "test6", "Test99", "ours", "du", "hpwl", "id",
         "off", "on", "route", "report", "0.1", "16"]
    ),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
_bodies = st.dictionaries(
    st.sampled_from(_SUBMISSION_KEYS) | st.text(max_size=6),
    _json_values,
    max_size=6,
) | _json_values


@settings(max_examples=200, deadline=None)
@given(body=_bodies)
def test_no_submission_body_gets_a_500(holding_service, body):
    status, raw = ServiceClient(holding_service.url)._request(
        "POST", "/jobs", body
    )
    assert status == 202 or 400 <= status < 500, raw


class TestJobFlow:
    def test_submit_wait_fetch(self, client):
        job = client.submit(
            {"design_text": DESIGN, "width": 16, "height": 16, "tenant": "acme"}
        )
        assert job["status"] == "queued"
        assert job["design"].startswith("design:")
        snap = client.wait(job["job_id"], timeout_s=120)
        assert snap["status"] == "done"
        assert snap["executed"] + snap["cached"] == 6
        assert [s["stage"] for s in snap["stages"]][:2] == [
            "load_design",
            "build_grid",
        ]
        assert set(snap["artifact_hashes"]) >= {"design", "routing", "report"}

        art = client.artifact(job["job_id"], "report")
        assert art["hash"] == snap["artifact_hashes"]["report"]
        assert art["kind"] == "report"

    def test_jobs_list_filters_by_tenant(self, client):
        a = client.submit(
            {"design_text": DESIGN, "width": 16, "height": 16, "tenant": "a"}
        )
        client.wait(a["job_id"], timeout_s=120)
        assert {j["tenant"] for j in client.jobs()} >= {"a"}
        assert all(j["tenant"] == "a" for j in client.jobs(tenant="a"))
        assert client.jobs(tenant="nobody") == []

    def test_tenant_header_labels_job(self, service):
        client = ServiceClient(service.url, tenant="hdr-tenant")
        job = client.submit({"design_text": DESIGN, "width": 16, "height": 16})
        assert job["tenant"] == "hdr-tenant"
        client.wait(job["job_id"], timeout_s=120)

    def test_unknown_artifact_kind_404_after_done(self, client):
        job = client.submit({"design_text": DESIGN, "width": 16, "height": 16})
        client.wait(job["job_id"], timeout_s=120)
        with pytest.raises(ServiceError) as err:
            client.artifact(job["job_id"], "blueprint")
        assert err.value.status == 404

    def test_one_artifact_per_stage(self, client):
        """Each stage_end carries its stage's one hash; the snapshot lists
        six kinds, job_done repeats none of them, and a kind no stage
        writes answers 404 naming the kinds there are."""
        job = client.submit({"design_text": DESIGN, "width": 16, "height": 16})
        events = client.events(job["job_id"])
        snap = client.job(job["job_id"])
        kinds = {"design", "grid", "routing", "mask", "verify", "report"}
        assert set(snap["artifact_hashes"]) == kinds
        ends = [e for e in events if e["event"] == "stage_end"]
        assert all(len(e["hashes"]) == 1 for e in ends)
        assert {k: h for e in ends for k, h in e["hashes"].items()} == snap[
            "artifact_hashes"
        ]
        assert events[-1]["event"] == "job_done"
        assert "artifact_hashes" not in events[-1]
        with pytest.raises(ServiceError) as err:
            client.artifact(job["job_id"], "coloring")
        assert err.value.status == 404
        assert all(repr(kind) in str(err.value) for kind in kinds)

    def test_events_stream_ends_with_terminal_event(self, client):
        job = client.submit({"design_text": DESIGN, "width": 16, "height": 16})
        events = client.events(job["job_id"])  # streams until terminal
        kinds = [e["event"] for e in events]
        assert kinds[0] == "job_queued"
        assert kinds[-1] in ("job_done", "job_failed")
        ends = [e for e in events if e["event"] == "stage_end"]
        assert {e["span"] for e in ends} == {
            f"stage:{e['stage']}" for e in ends
        }

    def test_events_nowait_returns_immediately(self, client):
        job = client.submit({"design_text": DESIGN, "width": 16, "height": 16})
        events = client.events(job["job_id"], wait=False)
        assert events and events[0]["event"] == "job_queued"
        client.wait(job["job_id"], timeout_s=120)


class TestQuota:
    def test_second_submission_hits_quota(self, tmp_path):
        """Pool never started → the first job stays queued and holds the
        tenant's only slot; admission must answer 429."""
        svc = RoutingService(
            port=0,
            workers=0,
            cache_dir=str(tmp_path / "cache"),
            max_active_per_tenant=1,
            ledger=False,
        )
        svc.submit({"circuit": "Test1", "scale": 0.1}, tenant="t")
        with pytest.raises(ServiceError) as err:
            svc.submit({"circuit": "Test1", "scale": 0.1}, tenant="t")
        assert err.value.status == 429
        # a different tenant is still admitted
        svc.submit({"circuit": "Test1", "scale": 0.1}, tenant="u")


class TestMetricsEndpoint:
    def test_exposition_is_valid_and_labelled(self, client):
        job = client.submit(
            {"design_text": DESIGN, "width": 16, "height": 16, "tenant": "m"}
        )
        client.wait(job["job_id"], timeout_s=120)
        text = client.metrics()
        assert validate_prometheus_text(text) == []
        assert "service_jobs_submitted_total" in text
        assert 'tenant="m"' in text
        assert "service_http_requests_total" in text

    def test_healthz(self, client):
        assert client.healthz()["ok"] is True


@pytest.fixture
def held(tmp_path):
    """A live service whose jobs never run: a test applies each job's
    events itself, through ``service._on_event``, as a worker would."""
    svc = RoutingService(
        port=0, workers=0, cache_dir=str(tmp_path / "cache"), ledger=False
    )
    svc.pool = _HoldingPool()
    svc.start_background()
    yield svc
    svc.stop()


class _Call(threading.Thread):
    """Run ``fn(*args)`` on its own thread; keep its result or error and
    the monotonic time it returned."""

    def __init__(self, fn, *args):
        super().__init__(daemon=True)
        self.fn, self.args = fn, args
        self.result = self.error = self.ended = None

    def run(self):
        try:
            self.result = self.fn(*self.args)
        except BaseException as exc:  # noqa: BLE001 - re-raised in outcome()
            self.error = exc
        self.ended = time.monotonic()

    def outcome(self, timeout_s=10.0):
        self.join(timeout_s)
        assert not self.is_alive(), f"{self.fn.__name__} still running"
        if self.error is not None:
            raise self.error
        return self.result


def _pause(seconds):
    threading.Event().wait(seconds)  # not time.sleep, which tests forbid


def _until(predicate, what, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, what
        _pause(0.005)


def _streams_open(svc, job_id):
    return len(svc._streams.get(job_id, ()))


@pytest.fixture
def no_sleep(monkeypatch):
    """Make every sleep on the wait path raise: the server's stream and
    the client's ``wait()`` must be woken, not poll."""

    def forbidden(*_args, **_kwargs):
        raise AssertionError("slept on the wait path")

    monkeypatch.setattr("repro.service.server.asyncio.sleep", forbidden)
    monkeypatch.setattr("repro.service.client.time.sleep", forbidden)


class TestPushedEvents:
    def _submit(self, svc, tenant=""):
        client = ServiceClient(svc.url, tenant=tenant)
        return client, client.submit({"circuit": "Test1", "scale": 0.1})["job_id"]

    def test_burst_reaches_an_open_stream_in_order(self, held, no_sleep):
        client, job_id = self._submit(held)
        stream = _Call(client.events, job_id)
        stream.start()
        _until(lambda: _streams_open(held, job_id), "the stream never opened")
        burst = []
        for k in range(100):
            burst.append(job_event("stage_start", job_id, stage=f"s{k}"))
            burst.append(job_event("stage_end", job_id, stage=f"s{k}", status="run"))
        burst.append(job_event("job_done", job_id))
        worker = _Call(lambda: [held._on_event(p) for p in burst])
        worker.start()
        worker.outcome()
        events = stream.outcome()
        assert events == held.registry.events(job_id)
        assert events[1:] == burst
        # Woken by the terminal event, not by the 5 s keepalive.
        assert stream.ended - worker.ended < 1.0
        assert _streams_open(held, job_id) == 0

    def test_stream_and_wait_finish_without_sleeping(self, held, no_sleep):
        client, job_id = self._submit(held)
        waiter = _Call(client.wait, job_id)
        stream = _Call(client.events, job_id)
        waiter.start()
        stream.start()
        _until(lambda: _streams_open(held, job_id) == 2, "streams never opened")
        for event in ("job_started", "stage_start", "stage_end", "job_done"):
            held._on_event(job_event(event, job_id, stage="route", status="run"))
            _pause(0.05)
        snap = waiter.outcome()
        assert snap["status"] == "done" and snap["events"] == 5
        assert [e["event"] for e in stream.outcome()] == [
            "job_queued", "job_started", "stage_start", "stage_end", "job_done",
        ]

    def test_concurrent_workers_lose_no_wakeup(self, held, monkeypatch):
        """Four threads apply events to four streamed jobs at once under a
        tight switch interval. A lost wakeup leaves its stream waiting for
        the keepalive, here 60 s."""
        monkeypatch.setattr("repro.service.server._KEEPALIVE_S", 60.0)
        jobs = [self._submit(held)[1] for _ in range(4)]
        streams = [_Call(ServiceClient(held.url).events, job_id) for job_id in jobs]
        for stream in streams:
            stream.start()
        _until(
            lambda: all(_streams_open(held, job_id) for job_id in jobs),
            "the streams never opened",
        )

        def work(job_id):
            for k in range(50):
                held._on_event(job_event("stage_start", job_id, stage=f"s{k}"))
                held._on_event(job_event("stage_end", job_id, stage=f"s{k}", status="run"))
            held._on_event(job_event("job_done", job_id))

        workers = [_Call(work, job_id) for job_id in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.outcome()
            outcomes = [stream.outcome(timeout_s=20.0) for stream in streams]
        finally:
            sys.setswitchinterval(interval)
        for job_id, events in zip(jobs, outcomes):
            assert len(events) == 102
            assert events == held.registry.events(job_id)

    def test_a_wakeup_during_drain_is_kept(self, tmp_path, monkeypatch):
        """``job_done`` lands while the stream waits in ``drain()``; the
        stream must still send it. A lost wakeup would leave it waiting
        for the keepalive, here 60 s."""
        monkeypatch.setattr("repro.service.server._KEEPALIVE_S", 60.0)
        svc = RoutingService(
            port=0, workers=0, cache_dir=str(tmp_path / "cache"), ledger=False
        )
        job_id = svc.registry.create("t", "d").job_id

        class Writer:
            def __init__(self):
                self.data = b""
                self.drains = 0

            def write(self, data):
                self.data += data

            async def drain(self):
                self.drains += 1
                if self.drains == 1:
                    svc._on_event(job_event("job_done", job_id))
                    await asyncio.sleep(0)  # the wakeup runs here

        async def stream():
            svc._loop = asyncio.get_running_loop()
            writer = Writer()
            await asyncio.wait_for(svc._stream_events(writer, job_id, True), 5.0)
            return writer.data

        body = asyncio.run(stream()).partition(b"\r\n\r\n")[2]
        kinds = [json.loads(line)["event"] for line in body.splitlines()]
        assert kinds == ["job_queued", "job_done"]
        assert svc._streams == {}

    def test_cancelling_a_queued_job_ends_its_stream(self, held, no_sleep):
        client, job_id = self._submit(held, tenant="c")
        stream = _Call(client.events, job_id)
        stream.start()
        _until(lambda: _streams_open(held, job_id), "the stream never opened")
        asked = time.monotonic()
        assert client.cancel(job_id)["status"] == "cancelled"  # loop thread
        events = stream.outcome()
        assert [e["event"] for e in events] == ["job_queued", "job_cancelled"]
        assert stream.ended - asked < 1.0

    def test_cancelling_a_queued_job_frees_its_slot(self, held):
        client, job_id = self._submit(held, tenant="c")
        assert held.quotas.active("c") == 1
        client.cancel(job_id)
        assert held.quotas.active("c") == 0
        # The worker's own cancel event, when it reaches the task, frees
        # nothing more.
        held._on_event(job_event("job_cancelled", job_id))
        assert held.quotas.active("c") == 0

    def test_a_disconnected_stream_leaves_no_waiter(self, held, monkeypatch):
        monkeypatch.setattr("repro.service.server._KEEPALIVE_S", 0.05)
        _client, job_id = self._submit(held)
        with socket.create_connection((held.host, held.port), timeout=5) as sock:
            sock.sendall(f"GET /jobs/{job_id}/events HTTP/1.1\r\n\r\n".encode())
            _until(lambda: _streams_open(held, job_id), "the stream never opened")
        # The next keepalive writes find the connection gone.
        _until(lambda: job_id not in held._streams, "a waiter outlived its stream")

    def test_wait_times_out_on_a_quiet_job(self, held, monkeypatch):
        """The deadline is checked between lines; keepalives bound the
        time between them."""
        monkeypatch.setattr("repro.service.server._KEEPALIVE_S", 0.05)
        client, job_id = self._submit(held)
        asked = time.monotonic()
        with pytest.raises(ServiceError) as err:
            client.wait(job_id, timeout_s=0.3)
        assert err.value.status == 504 and "still queued" in str(err.value)
        assert time.monotonic() - asked < 2.0
        # The client closed its end, though ``err`` keeps its frame alive.
        _until(lambda: job_id not in held._streams, "the stream was left open")

    def test_a_quiet_stream_keeps_its_client(self, held, monkeypatch):
        """A stage that sends nothing for longer than the client's socket
        timeout: the keepalive's blank lines keep the stream alive."""
        monkeypatch.setattr("repro.service.server._KEEPALIVE_S", 0.2)
        client = ServiceClient(held.url, timeout_s=1.0)
        job_id = client.submit({"circuit": "Test1", "scale": 0.1})["job_id"]

        def worker():
            _pause(0.2)
            held._on_event(job_event("job_started", job_id))
            _pause(1.5)
            held._on_event(job_event("job_done", job_id))

        driver = _Call(worker)
        driver.start()
        events = client.events(job_id, wait=True)
        driver.outcome()
        assert events == held.registry.events(job_id)
        assert [e["event"] for e in events] == ["job_queued", "job_started", "job_done"]
