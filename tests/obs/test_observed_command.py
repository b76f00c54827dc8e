"""CLI observability wiring: the ledger default, obs subcommands, prom flag."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.ledger import Ledger


@pytest.fixture
def netlist_file(tmp_path):
    path = tmp_path / "nets.txt"
    path.write_text("n0 L0 2,2 -> L0 17,2\nn1 L0 2,8 -> L0 17,8\n")
    return str(path)


def _route(netlist_file, *extra):
    return main(
        ["route", netlist_file, "--width", "24", "--height", "24", *extra]
    )


class TestLedgerRecording:
    def test_route_records_by_default(self, netlist_file, tmp_path, monkeypatch):
        ledger_dir = tmp_path / "runs"
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger_dir))
        assert _route(netlist_file) == 0
        runs = Ledger(ledger_dir).history()
        assert len(runs) == 1
        record = runs[0]
        assert record.command == "route"
        assert record.outcome == "ok"
        assert record.wall_s > 0
        assert record.counters.get("nets_routed_total") == 2.0
        assert "search" in record.phases
        assert record.resources.get("peak_rss_mb", 0) > 0
        assert "repro" in record.provenance

    def test_no_ledger_opts_out(self, netlist_file, tmp_path, monkeypatch):
        ledger_dir = tmp_path / "runs"
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger_dir))
        assert _route(netlist_file, "--no-ledger") == 0
        assert not (ledger_dir / "records.jsonl").exists()
        assert obs.get_active() is None  # wiring never leaks the backend

    def test_ledger_dir_flag_beats_env(self, netlist_file, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "env"))
        explicit = tmp_path / "explicit"
        assert _route(netlist_file, "--ledger-dir", str(explicit)) == 0
        assert len(Ledger(explicit)) == 1

    def test_bench_records_workload_at_scale(self, tmp_path, monkeypatch):
        ledger_dir = tmp_path / "runs"
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger_dir))
        assert main(["bench", "Test1", "--scale", "0.1"]) == 0
        record = Ledger(ledger_dir).history()[0]
        assert record.command == "bench"
        assert record.workload == "Test1@0.1"


class TestObsSubcommands:
    def _two_runs(self, netlist_file, ledger_dir, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger_dir))
        assert _route(netlist_file) == 0
        assert _route(netlist_file) == 0
        runs = Ledger(ledger_dir).history()
        return [r.run_id for r in reversed(runs)]  # oldest first

    def test_history_lists_runs(self, netlist_file, tmp_path, monkeypatch, capsys):
        ids = self._two_runs(netlist_file, tmp_path / "runs", monkeypatch)
        assert main(["obs", "history"]) == 0
        out = capsys.readouterr().out
        for run_id in ids:
            assert run_id in out

    def test_history_empty_ledger(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "none"))
        assert main(["obs", "history"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_diff_two_comparable_runs(
        self, netlist_file, tmp_path, monkeypatch, capsys
    ):
        run_a, run_b = self._two_runs(netlist_file, tmp_path / "runs", monkeypatch)
        assert main(["obs", "diff", run_a, run_b, "--gate"]) == 0
        out = capsys.readouterr().out
        assert "verdict:" in out
        assert "wall_s" in out
        assert "peak_rss_mb" in out

    def test_diff_json_output(self, netlist_file, tmp_path, monkeypatch, capsys):
        run_a, run_b = self._two_runs(netlist_file, tmp_path / "runs", monkeypatch)
        capsys.readouterr()  # drain the route commands' own output
        assert main(["obs", "diff", run_a, run_b, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["a"] == run_a
        assert payload["verdict"] in ("ok", "regression")

    def test_diff_gate_fails_on_regression(self, tmp_path, monkeypatch, capsys):
        from repro.obs.ledger import make_record

        ledger_dir = tmp_path / "runs"
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger_dir))
        led = Ledger(ledger_dir)
        a = make_record("bench", "w", {}, wall_s=1.0)
        b = make_record("bench", "w", {}, wall_s=3.0)
        led.record(a)
        led.record(b)
        assert main(["obs", "diff", a.run_id, b.run_id, "--gate"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_records_with_a_parallel_decision_still_load(
        self, netlist_file, tmp_path, monkeypatch, capsys
    ):
        """Ledgers written while parallel routing existed carry a
        ``parallel_decision`` key; history and diff still read them."""
        ledger_dir = tmp_path / "runs"
        ledger_dir.mkdir()
        stored = {
            "schema": 1,
            "run_id": "r20260101-000000-abcdef",
            "ts": 1767225600.0,
            "command": "route",
            "workload": netlist_file,
            "config_hash": "0123456789abcdef",
            "outcome": "ok",
            "wall_s": 0.5,
            "phases": {"search": 0.2},
            "counters": {"nets_routed_total": 2.0},
            "resources": {"peak_rss_mb": 100.0},
            "provenance": {"repro": "0.1.0"},
            "meta": {"config": {"workers": 1, "shard": "auto"}},
            "parallel_decision": {"decision": "serial", "reason": "tiny"},
        }
        (ledger_dir / "records.jsonl").write_text(json.dumps(stored) + "\n")
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger_dir))
        assert _route(netlist_file) == 0
        capsys.readouterr()  # drain the route command's own output
        assert main(["obs", "history"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert len(listed) == 2
        assert listed[1].startswith(stored["run_id"])
        new_id = listed[0].split()[0]
        assert main(["obs", "diff", stored["run_id"], new_id]) == 0
        assert "verdict:" in capsys.readouterr().out

    def test_show_dumps_record_json(self, netlist_file, tmp_path, monkeypatch, capsys):
        (run_a, _) = self._two_runs(netlist_file, tmp_path / "runs", monkeypatch)
        capsys.readouterr()  # drain the route commands' own output
        assert main(["obs", "show", run_a]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_id"] == run_a
        assert payload["command"] == "route"


class TestTraceStillWorks:
    def test_trace_export_has_no_resource_record(
        self, netlist_file, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "runs"))
        trace = tmp_path / "run.jsonl"
        assert _route(netlist_file, "--trace", str(trace)) == 0
        types = [
            json.loads(line)["type"]
            for line in trace.read_text().splitlines()
        ]
        assert types[0] == "meta"
        assert "span" in types
        assert "resource" not in types  # peak RSS lives in the ledger
        from repro.obs import validate_run_jsonl

        assert validate_run_jsonl(trace) == []
