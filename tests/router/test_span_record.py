"""The router's spans are its event record (Fig. 19's loop, per net).

One route of Test1@0.15 at design seed 2014, under ``obs.session()``:

- a ``route_net`` span per route: ``net_id`` and ``pins`` when it opens,
  ``success``, ``ripups``, ``wirelength`` and ``vias`` when it closes,
  and ``blockers`` when the net evicts its neighbours;
- ``ripup=<reason>`` on the ``commit_net`` span of a rejected attempt;
- a ``rip_up_net`` span per removal of a committed net;
- ``flips`` on a per-net (``scope=component``) ``color_flip`` span.
"""

import json
from collections import Counter

import pytest

from repro import obs
from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.obs.export import (
    PHASE_SPANS,
    SELF_PHASE_SPANS,
    export_run_jsonl,
    validate_run_jsonl,
)
from repro.router import SadpRouter

ROUTE_ATTRS = {"net_id", "pins", "success", "ripups", "wirelength", "vias"}


@pytest.fixture(scope="module")
def routed():
    grid, nets = generate_benchmark(spec_by_name("Test1"), scale=0.15, seed=2014)
    with obs.session() as ob:
        result = SadpRouter(grid, nets).route_all()
    return ob, result


def test_route_net_spans_bracket_every_route(routed):
    ob, result = routed
    spans = ob.tracer.spans_named("route_net")
    # rescue/repair may re-route a net, so there are at least as many
    # spans as nets, and every one of them was closed.
    assert len(spans) == 38
    assert len(spans) >= len(result.routes)
    assert all(sp.finished for sp in spans)
    assert all(isinstance(sp.attrs["net_id"], int) for sp in spans)
    assert set(result.routes) <= {sp.attrs["net_id"] for sp in spans}


def test_route_net_spans_carry_every_route_attribute(routed):
    ob, result = routed
    spans = ob.tracer.spans_named("route_net")
    assert len(spans) == 38
    for sp in spans:
        assert ROUTE_ATTRS <= set(sp.attrs), sp.attrs
    # The last route of every net is what the result reports.
    last = {sp.attrs["net_id"]: sp.attrs for sp in spans}
    for net_id, route in result.routes.items():
        if net_id in last and route.success:
            assert last[net_id]["wirelength"] == route.wirelength
            assert last[net_id]["vias"] == route.via_count
    assert all(sp.attrs["pins"] == 2 for sp in spans)


def test_ripups_sit_on_the_rejected_commit(routed):
    ob, _ = routed
    reasons = Counter(
        sp.attrs["ripup"]
        for sp in ob.tracer.spans_named("commit_net")
        if "ripup" in sp.attrs
    )
    assert reasons == {"hard_odd_cycle": 16}
    tally = {
        reason: int(ob.registry.value("ripups_total", reason=reason))
        for reason in ("hard_odd_cycle", "cut_conflict", "path_penalised")
    }
    assert {k: v for k, v in tally.items() if v} == dict(reasons)


def test_removals_and_evictions(routed):
    ob, _ = routed
    removals = ob.tracer.spans_named("rip_up_net")
    assert len(removals) == 2
    assert all(isinstance(sp.attrs["net_id"], int) for sp in removals)
    evicting = [sp for sp in ob.tracer.spans_named("route_net") if "blockers" in sp.attrs]
    assert len(evicting) == 2
    assert len(evicting) == ob.registry.value("evictions_total")
    for sp in evicting:
        assert sp.attrs["blockers"] == sorted(sp.attrs["blockers"])
        assert sp.attrs["net_id"] not in sp.attrs["blockers"]


def test_component_flips_count_their_layers(routed):
    ob, _ = routed
    flips = [
        sp
        for sp in ob.tracer.spans_named("color_flip")
        if sp.attrs.get("scope") == "component"
    ]
    assert all("flips" in sp.attrs for sp in flips)
    assert len([sp for sp in flips if sp.attrs["flips"] > 0]) == 1
    assert sum(sp.attrs["flips"] for sp in flips) == ob.registry.value(
        "color_flips_total", scope="component"
    )


def test_rip_up_net_is_in_no_phase():
    names = {name for _, group in PHASE_SPANS for name in group}
    names |= {name for group in SELF_PHASE_SPANS.values() for name in group}
    assert "rip_up_net" not in names


def test_text_transcript_shows_the_route_attributes(routed):
    ob, _ = routed
    text = ob.tracer.to_text()
    assert "route_net" in text
    assert "rip_up_net" in text
    assert "wirelength=" in text and "ripup=hard_odd_cycle" in text


def _export(ob, tmp_path):
    path = export_run_jsonl(tmp_path / "run.jsonl", observability=ob)
    assert validate_run_jsonl(path) == []
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_exported_spans_keep_their_attributes(routed, tmp_path):
    ob, _ = routed
    records = _export(ob, tmp_path)
    read_back = [(r["name"], r["attrs"]) for r in records if r["type"] == "span"]
    written = [
        (sp.name, json.loads(json.dumps(sp.attrs, sort_keys=True, default=str)))
        for sp in ob.tracer.finished
    ]
    assert read_back == written


def test_run_log_carries_the_router_events(routed, tmp_path):
    ob, _ = routed
    records = _export(ob, tmp_path)
    assert "router_event" not in {r["type"] for r in records}
    spans = [r for r in records if r["type"] == "span"]
    routes = [r for r in spans if r["name"] == "route_net"]
    assert len(routes) == 38
    assert all(ROUTE_ATTRS <= set(r["attrs"]) for r in routes)
    assert sum(1 for r in routes if "blockers" in r["attrs"]) == 2
    assert sum(1 for r in spans if r["attrs"].get("ripup") == "hard_odd_cycle") == 16
    assert sum(1 for r in spans if r["name"] == "rip_up_net") == 2
    flipped = [
        r
        for r in spans
        if r["name"] == "color_flip" and r["attrs"].get("flips", 0) > 0
    ]
    assert len(flipped) == 1


def test_router_event_is_an_unknown_record_type(tmp_path):
    path = export_run_jsonl(tmp_path / "run.jsonl")
    with path.open("a") as fh:
        fh.write(json.dumps({"type": "router_event", "kind": "rip_up", "net_id": 4}))
        fh.write("\n")
    problems = validate_run_jsonl(path)
    assert problems == ["line 2: unknown record type 'router_event'"]


def test_routing_with_observability_off_writes_no_attributes():
    obs.disable()
    grid, nets = generate_benchmark(spec_by_name("Test1"), scale=0.15, seed=2014)
    SadpRouter(grid, nets).route_all()
    assert dict(obs.span("after").attrs) == {}
