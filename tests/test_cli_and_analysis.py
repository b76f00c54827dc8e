"""Tests for the CLI and the analysis/report module."""

import json

import pytest

from repro.analysis import analyze, breakdown_by_scenario
from repro.cli import build_parser, main
from repro.grid import RoutingGrid
from repro.netlist import Net, Netlist, Pin
from repro.router import SadpRouter

NETLIST_TEXT = """\
a L0 2,10 -> L0 20,10
b L0 2,11 -> L0 20,11
c L0 21,10 -> L0 27,10
"""


@pytest.fixture
def netlist_file(tmp_path):
    path = tmp_path / "nets.txt"
    path.write_text(NETLIST_TEXT)
    return path


class TestCli:
    def test_route_basic(self, netlist_file, capsys):
        rc = main(["route", str(netlist_file), "--width", "30", "--height", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "routed 3/3" in out
        assert "0 cut conflicts" in out

    def test_route_artifacts(self, netlist_file, tmp_path, capsys):
        out_json = tmp_path / "r.json"
        out_svg = tmp_path / "r.svg"
        rc = main(
            [
                "route",
                str(netlist_file),
                "--width",
                "30",
                "--height",
                "30",
                "--out",
                str(out_json),
                "--svg",
                str(out_svg),
                "--report",
            ]
        )
        assert rc == 0
        assert json.loads(out_json.read_text())["schema"] == 1
        assert out_svg.read_text().startswith("<svg")
        assert "Routing report" in capsys.readouterr().out

    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "1-a" in out and "3-e" in out

    def test_bench_command(self, capsys):
        assert main(["bench", "Test1", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Test1" in out and "ours" in out

    def test_bench_baseline(self, capsys):
        assert main(["bench", "Test1", "--scale", "0.1", "--router", "gao-pan"]) == 0
        assert "gao-pan" in capsys.readouterr().out

    def test_router_choices_are_the_pipelines(self):
        """The CLI restates the route stage's router names, because it
        must not import the pipeline at start-up."""
        from repro.cli import ROUTERS
        from repro.pipeline import KNOWN_ROUTERS

        assert ROUTERS == KNOWN_ROUTERS

    def test_unknown_circuit_errors(self, capsys):
        assert main(["bench", "Test42"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["bench", "load"]) == 2
        assert "unknown benchmark 'load'" in capsys.readouterr().err

    def test_route_with_metrics_and_trace(self, netlist_file, tmp_path, capsys):
        from repro import obs

        log = tmp_path / "run.jsonl"
        rc = main(
            [
                "route",
                str(netlist_file),
                "--width",
                "30",
                "--height",
                "30",
                "--metrics",
                "--trace",
                str(log),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "per-phase runtime" in out
        assert "search" in out
        assert "astar_searches_total" in out
        assert log.exists()
        # the CLI turns observability back off after the command
        assert obs.get_active() is None

    def test_bench_with_metrics_prints_phase_columns(self, capsys):
        rc = main(["bench", "Test1", "--scale", "0.1", "--metrics"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "search(s)" in out and "graph(s)" in out and "flip(s)" in out
        assert "per-phase runtime" in out

    def test_validate_trace_roundtrip(self, netlist_file, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        main(
            [
                "route",
                str(netlist_file),
                "--width",
                "30",
                "--height",
                "30",
                "--trace",
                str(log),
            ]
        )
        capsys.readouterr()
        assert main(["validate-trace", str(log)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_trace_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        assert main(["validate-trace", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_parser_has_version(self):
        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["--version"])
        assert exc.value.code == 0

    def test_route_refuses_the_removed_guidance_flag(self, netlist_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["route", str(netlist_file), "--width", "30", "--height", "30",
                 "--guidance", "on"]
            )
        assert exc.value.code == 2
        assert "--guidance" in capsys.readouterr().err

    def test_route_exit_code_nonzero_on_unrouted_net(self, tmp_path, capsys):
        # Wall in one net's source pin; the router must fail that net and
        # the CLI must report the partial result with a nonzero exit code.
        path = tmp_path / "blocked.txt"
        path.write_text(
            "BLOCK L0 4,4,7,7\n"
            "a L0 5,5 -> L0 9,9\n"
            "b L0 0,0 -> L0 3,0\n"
        )
        rc = main(["route", str(path), "--width", "10", "--height", "10"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "routed 1/2" in out

    def test_route_exit_code_zero_on_full_success(self, netlist_file, capsys):
        rc = main(["route", str(netlist_file), "--width", "30", "--height", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "routed 3/3" in out

    def test_route_missing_netlist_is_clean_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        rc = main(["route", str(missing), "--width", "10", "--height", "10"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        assert "nope.txt" in err
        assert "Traceback" not in err

    def test_route_malformed_netlist_reports_path_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("a L0 2,10 -> L0 20,10\nthis is not a net\n")
        rc = main(["route", str(bad), "--width", "30", "--height", "30"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "bad.txt" in err
        assert "line 2" in err

    def test_route_degenerate_block_reports_path_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("a L0 2,10 -> L0 20,10\nBLOCK L0 5,5,1,1\n")
        rc = main(["route", str(bad), "--width", "30", "--height", "30"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "bad.txt: line 2: degenerate rect" in err
        assert "Traceback" not in err

    def test_route_netlist_path_is_directory(self, tmp_path, capsys):
        rc = main(["route", str(tmp_path), "--width", "10", "--height", "10"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "directory" in err

    def test_route_non_utf8_netlist_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.nets"
        bad.write_bytes(b"\xff\xfe\x00bad")
        rc = main(["route", str(bad), "--width", "10", "--height", "10"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: stage 'load_design' failed:")
        assert "bad.nets" in err
        assert "offset 0" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--out", "--svg", "--trace"])
def test_unwritable_output_path_is_clean_error(netlist_file, tmp_path, capsys, flag):
    target = tmp_path / "missing" / "dir" / "artifact.out"
    rc = main(
        ["route", str(netlist_file), "--width", "30", "--height", "30", flag, str(target)]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert str(target) in err
    assert "Traceback" not in err


class TestAnalysis:
    @pytest.fixture
    def routed(self):
        grid = RoutingGrid(26, 26)
        nets = Netlist(
            [
                Net(0, "a", Pin.at(2, 5), Pin.at(20, 5)),
                Net(1, "b", Pin.at(2, 6), Pin.at(20, 6)),
                Net(2, "c", Pin.at(2, 8), Pin.at(20, 8)),
            ]
        )
        router = SadpRouter(grid, nets)
        return router, router.route_all()

    def test_report_counts(self, routed):
        router, result = routed
        report = analyze(router, result)
        assert report.num_nets == 3
        assert report.routed == 3
        assert report.total_wirelength == result.total_wirelength
        assert report.scenario_census.get("1-a") == 1
        assert report.scenario_census.get("2-a") == 1

    def test_color_census(self, routed):
        router, result = routed
        report = analyze(router, result)
        m1 = report.colors_per_layer[0]
        assert m1.get("C", 0) + m1.get("S", 0) == 3

    def test_text_rendering(self, routed):
        router, result = routed
        text = analyze(router, result).to_text()
        assert "Routing report" in text
        assert "scenario census" in text
        assert "mask color census" in text

    def test_breakdown_matches_result_total(self, routed):
        router, result = routed
        breakdown = breakdown_by_scenario(router)
        assert breakdown.total_units == pytest.approx(result.overlay_units)

    def test_dominant_scenario(self, routed):
        router, result = routed
        breakdown = breakdown_by_scenario(router)
        if breakdown.units_by_scenario:
            assert breakdown.dominant() in breakdown.units_by_scenario
        else:
            assert breakdown.dominant() == "-"

    def test_no_instrumentation_section_when_disabled(self, routed):
        router, result = routed
        report = analyze(router, result)
        assert report.instrumentation is None
        assert "instrumentation" not in report.to_text()

    def test_instrumentation_section_when_enabled(self):
        from repro import obs

        with obs.session():
            grid = RoutingGrid(26, 26)
            nets = Netlist([Net(0, "a", Pin.at(2, 5), Pin.at(20, 5))])
            router = SadpRouter(grid, nets)
            result = router.route_all()
            report = analyze(router, result)
        assert report.instrumentation is not None
        assert report.instrumentation["phase_seconds"].get("search", 0) > 0
        text = report.to_text()
        assert "instrumentation:" in text
        assert "search_s" in text
