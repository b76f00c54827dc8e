"""Tests for the JSONL run-log exporter and its schema validator."""

import json

from repro import obs
from repro.obs.export import (
    SCHEMA_VERSION,
    export_run_jsonl,
    phase_table,
    phase_totals,
    validate_run_jsonl,
)


def _lines(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestExport:
    def test_meta_line_first(self, tmp_path):
        path = export_run_jsonl(tmp_path / "run.jsonl")
        records = _lines(path)
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == SCHEMA_VERSION
        assert records[0]["tool"] == "repro"

    def test_exports_spans_and_metrics(self, tmp_path):
        with obs.session() as ob:
            with obs.span("route_all"):
                with obs.span("astar_search", net_id=3):
                    pass
            ob.registry.counter("ripups_total", reason="cut_conflict").inc(2)
            ob.registry.histogram("route_net_seconds").observe(0.5)
            path = export_run_jsonl(tmp_path / "run.jsonl", meta={"circuit": "T1"})
        records = _lines(path)
        assert records[0]["circuit"] == "T1"
        spans = [r for r in records if r["type"] == "span"]
        metrics = [r for r in records if r["type"] == "metric"]
        assert {s["name"] for s in spans} == {"route_all", "astar_search"}
        child = next(s for s in spans if s["name"] == "astar_search")
        parent = next(s for s in spans if s["name"] == "route_all")
        assert child["parent_id"] == parent["span_id"]
        assert child["attrs"] == {"net_id": 3}
        kinds = {m["metric"]: m["kind"] for m in metrics}
        assert kinds == {"ripups_total": "counter", "route_net_seconds": "histogram"}

    def test_export_without_backend_still_valid(self, tmp_path):
        obs.disable()
        path = export_run_jsonl(tmp_path / "run.jsonl")
        assert validate_run_jsonl(path) == []


class TestValidator:
    def test_valid_full_log(self, tmp_path):
        with obs.session() as ob:
            with obs.span("route_all"):
                pass
            ob.registry.counter("x_total").inc()
            path = export_run_jsonl(tmp_path / "run.jsonl")
        assert validate_run_jsonl(path) == []

    def test_missing_file(self, tmp_path):
        problems = validate_run_jsonl(tmp_path / "absent.jsonl")
        assert problems and "cannot read" in problems[0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert any("empty" in p for p in validate_run_jsonl(path))

    def test_missing_meta_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\n')
        assert any("meta" in p for p in validate_run_jsonl(path))

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta", "schema": 1}\nnot json\n')
        assert any("not valid JSON" in p for p in validate_run_jsonl(path))

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta", "schema": 99}\n')
        assert any("unsupported schema" in p for p in validate_run_jsonl(path))

    def test_mistyped_span_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type": "meta", "schema": 1}\n'
            '{"type": "span", "name": 5, "span_id": "x", "start_s": 0, '
            '"duration_s": 0, "attrs": {}}\n'
        )
        problems = validate_run_jsonl(path)
        assert any("name" in p for p in problems)
        assert any("span_id" in p for p in problems)

    def test_unknown_type_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta", "schema": 1}\n{"type": "mystery"}\n')
        assert any("unknown record type" in p for p in validate_run_jsonl(path))


class TestPhaseTable:
    def test_disabled_message(self):
        obs.disable()
        assert "disabled" in phase_table()

    def test_totals_fold_flip_spans(self):
        with obs.session() as ob:
            with obs.span("route_all"):
                with obs.span("pseudo_color"):
                    pass
                with obs.span("color_flip"):
                    pass
                with obs.span("astar_search"):
                    pass
            totals = phase_totals(ob)
            table = phase_table(ob)
        assert set(totals) == {"search", "graph", "flip", "commit", "decompose"}
        assert totals["flip"] >= 0.0
        assert "search" in table and "flip" in table and "total" in table
