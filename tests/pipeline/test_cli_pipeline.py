"""CLI surface of ``repro pipeline run/show/clean``."""

import pytest

from repro.cli import main

NETLIST_TEXT = """\
a L0 2,10 -> L0 20,10
b L0 2,11 -> L0 20,11
"""


@pytest.fixture
def netlist_file(tmp_path):
    path = tmp_path / "nets.txt"
    path.write_text(NETLIST_TEXT)
    return path


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def _run_args(design, cache_dir, *extra):
    return ["pipeline", "run", design, "--cache-dir", cache_dir, *extra]


class TestPipelineRun:
    def test_benchmark_runs_then_caches(self, cache_dir, capsys):
        rc = main(_run_args("Test1", cache_dir, "--scale", "0.1"))
        first = capsys.readouterr().out
        assert rc == 0
        assert "pipeline: 6 run, 0 cached" in first
        assert "routed" in first
        assert "decomposition:" in first

        rc = main(_run_args("Test1", cache_dir, "--scale", "0.1"))
        second = capsys.readouterr().out
        assert rc == 0
        assert "pipeline: 0 run, 6 cached" in second

    def test_netlist_design(self, netlist_file, cache_dir, capsys):
        rc = main(
            _run_args(str(netlist_file), cache_dir, "--width", "30", "--height", "30")
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "routed 2/2" in out

    def test_force_reruns(self, cache_dir, capsys):
        main(_run_args("Test1", cache_dir, "--scale", "0.1"))
        capsys.readouterr()
        rc = main(_run_args("Test1", cache_dir, "--scale", "0.1", "--force"))
        out = capsys.readouterr().out
        assert rc == 0
        assert "pipeline: 6 run, 0 cached" in out

    def test_report_and_svg(self, cache_dir, tmp_path, capsys):
        svg = tmp_path / "m1.svg"
        rc = main(
            _run_args(
                "Test1", cache_dir, "--scale", "0.1", "--report", "--svg", str(svg)
            )
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Routing report" in out
        assert svg.read_text().startswith("<svg")

    def test_unknown_design_is_clean_error(self, cache_dir, capsys):
        rc = main(_run_args("nosuchthing", cache_dir))
        err = capsys.readouterr().err
        assert rc == 2
        assert "nosuchthing" in err

    def test_removed_guidance_flag_is_refused(self, cache_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_run_args("Test1", cache_dir, "--guidance", "on"))
        assert exc.value.code == 2
        assert "--guidance" in capsys.readouterr().err


class TestPipelineShowClean:
    def test_show_empty_store(self, cache_dir, capsys):
        rc = main(["pipeline", "show", "--cache-dir", cache_dir])
        assert rc == 0
        assert "empty" in capsys.readouterr().out

    def test_show_plan_and_store(self, cache_dir, capsys):
        main(_run_args("Test1", cache_dir, "--scale", "0.1"))
        capsys.readouterr()
        rc = main(
            ["pipeline", "show", "Test1", "--scale", "0.1", "--cache-dir", cache_dir]
        )
        plan = capsys.readouterr().out
        assert rc == 0
        assert plan.count("hit") == 6

        rc = main(["pipeline", "show", "--cache-dir", cache_dir])
        listing = capsys.readouterr().out
        assert rc == 0
        assert "6 artifacts" in listing

    def test_clean(self, cache_dir, capsys):
        main(_run_args("Test1", cache_dir, "--scale", "0.1"))
        capsys.readouterr()
        rc = main(["pipeline", "clean", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "removed 6 artifacts" in out
        rc = main(["pipeline", "show", "--cache-dir", cache_dir])
        assert "empty" in capsys.readouterr().out


class TestGCFlags:
    def test_gc_within_budget_removes_nothing(self, cache_dir, capsys):
        main(_run_args("Test1", cache_dir, "--scale", "0.1"))
        capsys.readouterr()
        rc = main(
            [
                "pipeline", "clean", "--cache-dir", cache_dir,
                "--max-age-days", "30", "--max-bytes", str(10**9),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "gc removed 0 artifacts" in out
        rc = main(["pipeline", "show", "--cache-dir", cache_dir])
        assert "empty" not in capsys.readouterr().out

    def test_gc_tiny_budget_evicts(self, cache_dir, capsys):
        main(_run_args("Test1", cache_dir, "--scale", "0.1"))
        capsys.readouterr()
        rc = main(
            ["pipeline", "clean", "--cache-dir", cache_dir, "--max-bytes", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "gc removed 6 artifacts" in out


class TestCacheDirEnv:
    def test_env_var_locates_the_store(self, tmp_path, monkeypatch, capsys):
        envcache = tmp_path / "envcache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(envcache))
        rc = main(["pipeline", "run", "Test1", "--scale", "0.1"])
        assert rc == 0
        assert envcache.is_dir() and list(envcache.glob("*.json"))
        capsys.readouterr()
        rc = main(["pipeline", "show"])
        out = capsys.readouterr().out
        assert rc == 0
        assert str(envcache) in out

    def test_explicit_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ignored"))
        explicit = tmp_path / "explicit"
        rc = main(
            ["pipeline", "run", "Test1", "--scale", "0.1", "--cache-dir", str(explicit)]
        )
        assert rc == 0
        assert explicit.is_dir()
        assert not (tmp_path / "ignored").exists()
