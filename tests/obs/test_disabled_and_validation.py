"""Disabled-mode allocation guarantees and run-log validator extensions."""

import json

import pytest

from repro import obs
from repro.geometry import Point
from repro.grid import RoutingGrid
from repro.netlist import Net, Netlist, Pin
from repro.obs.export import export_run_jsonl, validate_run_jsonl
from repro.router import SadpRouter


def _route_small():
    grid = RoutingGrid(24, 24)
    nets = Netlist()
    nets.add(
        Net(net_id=0, name="n0", source=Pin.at(2, 3), target=Pin.at(18, 3))
    )
    nets.add(
        Net(net_id=1, name="n1", source=Pin.at(2, 9), target=Pin.at(18, 9))
    )
    router = SadpRouter(grid, nets)
    return router.route_all()


class TestDisabledMode:
    def test_routing_allocates_no_obs_backend(self, monkeypatch):
        """With observability off, the hot paths must not construct any
        registry/tracer/backend object — the instrumentation is a
        predicate per call site and nothing more."""
        from repro.obs import metrics, tracer

        def _boom(self, *args, **kwargs):
            raise AssertionError(
                "observability object constructed while disabled"
            )

        monkeypatch.setattr(metrics.MetricsRegistry, "__init__", _boom)
        monkeypatch.setattr(tracer.Tracer, "__init__", _boom)
        monkeypatch.setattr(obs.Observability, "__init__", _boom)
        obs.disable()
        result = _route_small()
        assert result.routed_count == 2

    def test_span_helper_returns_shared_null_span(self):
        obs.disable()
        assert obs.span("x") is obs.span("y")

    def test_null_span_attrs_are_read_only(self):
        obs.disable()
        with pytest.raises(TypeError):
            obs.span("a").attrs["k"] = 1
        assert dict(obs.span("b").attrs) == {}

    def test_counter_inc_is_noop(self):
        obs.disable()
        obs.counter_inc("anything_total", 5)  # must not raise or allocate


def _write_log(tmp_path, records):
    path = tmp_path / "run.jsonl"
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return path


def _meta():
    return {"type": "meta", "schema": 1, "tool": "repro", "version": "x"}


def _span(span_id=1, parent_id=None, start=0.0, end=1.0, duration=None):
    return {
        "type": "span",
        "name": "s",
        "span_id": span_id,
        "parent_id": parent_id,
        "start_s": start,
        "end_s": end,
        "duration_s": (end - start) if duration is None else duration,
        "attrs": {},
    }


class TestValidatorExtensions:
    def test_valid_exported_log_passes(self, tmp_path):
        with obs.session() as ob:
            with ob.tracer.span("route_all"):
                with ob.tracer.span("astar_search"):
                    pass
            ob.registry.counter("x_total").inc()
            path = export_run_jsonl(tmp_path / "run.jsonl")
        assert validate_run_jsonl(path) == []

    def test_orphaned_parent_rejected(self, tmp_path):
        path = _write_log(tmp_path, [_meta(), _span(span_id=2, parent_id=99)])
        problems = validate_run_jsonl(path)
        assert any("orphaned span" in p for p in problems)

    def test_negative_duration_rejected(self, tmp_path):
        path = _write_log(
            tmp_path, [_meta(), _span(start=1.0, end=2.0, duration=-0.5)]
        )
        assert any(
            "negative span duration" in p for p in validate_run_jsonl(path)
        )

    def test_unended_span_rejected(self, tmp_path):
        record = _span()
        record["end_s"] = None
        path = _write_log(tmp_path, [_meta(), record])
        assert any("never ended" in p for p in validate_run_jsonl(path))

    def test_end_before_start_rejected(self, tmp_path):
        path = _write_log(
            tmp_path, [_meta(), _span(start=5.0, end=1.0, duration=4.0)]
        )
        assert any("ends before it starts" in p for p in validate_run_jsonl(path))

    def test_resource_record_is_unknown_type(self, tmp_path):
        """A ``resource`` record, as older versions wrote, is reported like
        any other unknown type."""
        resource = {"type": "resource", "summary": {}, "by_span": {}}
        path = _write_log(tmp_path, [_meta(), resource])
        assert any(
            "unknown record type 'resource'" in p for p in validate_run_jsonl(path)
        )

    def test_cli_validate_trace_rejects_broken_log(self, tmp_path, capsys):
        from repro.cli import main

        path = _write_log(tmp_path, [_meta(), _span(span_id=2, parent_id=99)])
        assert main(["validate-trace", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestCollapsedStacks:
    def test_folds_self_time_along_stack_paths(self, tmp_path):
        records = [
            _meta(),
            _span(span_id=1, start=0.0, end=1.0),
            _span(span_id=2, parent_id=1, start=0.1, end=0.5),
        ]
        records[1]["name"] = "route_all"
        records[2]["name"] = "astar search"  # space must be sanitized
        path = _write_log(tmp_path, records)
        from repro.obs import collapsed_stacks

        lines = collapsed_stacks(path)
        folded = dict(line.rsplit(" ", 1) for line in lines)
        assert folded["route_all"] == str(int(0.6 * 1e6))
        assert folded["route_all;astar_search"] == str(int(0.4 * 1e6))

    def test_cli_flame_prints_folded_lines(self, tmp_path, capsys):
        from repro.cli import main

        with obs.session() as ob:
            with ob.tracer.span("route_all"):
                with ob.tracer.span("astar_search"):
                    total = sum(range(20000))
            assert total >= 0
            path = export_run_jsonl(tmp_path / "run.jsonl")
        assert main(["obs", "flame", str(path)]) == 0
        out = capsys.readouterr().out
        assert "route_all" in out

    def test_cli_flame_empty_log_fails(self, tmp_path):
        from repro.cli import main

        path = _write_log(tmp_path, [_meta()])
        assert main(["obs", "flame", str(path)]) == 1
