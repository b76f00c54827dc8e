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
"""

import pytest

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
        for kind in ("routing", "masks", "report"):
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
