"""HTTP API behaviour against an embedded inline-worker service."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.prom import validate_prometheus_text
from repro.service import RoutingService, ServiceClient, ServiceError

DESIGN = "n0 L0 1,2 -> L0 9,2\nn1 L0 4,4 -> L0 4,11\n"

#: Submission bodies that must be refused with a 400 before they take a
#: queue slot, by what is wrong with them.
BAD_BODIES = {
    "scale not a number": {"circuit": "Test1", "scale": "abc"},
    "seed not a number": {"circuit": "Test1", "seed": "x"},
    "width not a number": {"design_text": DESIGN, "width": "w", "height": 16},
    "router not a name": {"circuit": "Test1", "router": 5},
    "scale out of range": {"circuit": "Test1", "scale": 1e9},
    "unknown order": {"circuit": "Test1", "order": "bogus"},
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
        "key", ["workers", "shard", "kernel", "guidance", "alpha"]
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
            "order": "random",
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
    "tenant", "router", "order", "num_layers",
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
