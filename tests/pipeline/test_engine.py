"""Engine semantics: hashing, cache hits, targets, force, resume."""

import pytest

from repro.errors import PipelineError
from repro.pipeline import (
    ALL_STAGES,
    Artifact,
    MemoryStore,
    Pipeline,
    PipelineConfig,
    Stage,
    default_stages,
)


def _config(tmp_path, **overrides):
    defaults = dict(circuit="Test1", scale=0.1, cache_dir=str(tmp_path / "cache"))
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestCaching:
    def test_second_run_is_all_hits(self, tmp_path):
        pipe = Pipeline(_config(tmp_path))
        first = pipe.run()
        second = pipe.run()
        assert first.executed_count == len(ALL_STAGES)
        assert second.executed_count == 0
        assert second.cached_count == len(ALL_STAGES)
        for kind, art in first.artifacts.items():
            assert second.artifacts[kind].hash == art.hash

    def test_force_reexecutes_everything(self, tmp_path):
        pipe = Pipeline(_config(tmp_path))
        pipe.run()
        forced = pipe.run(force=True)
        assert forced.executed_count == len(ALL_STAGES)
        assert forced.cached_count == 0

    def test_route_config_change_keeps_design_prefix(self, tmp_path):
        pipe = Pipeline(_config(tmp_path))
        first = pipe.run()
        other = Pipeline(
            _config(tmp_path, router_options={"enable_flipping": False})
        )
        second = other.run()
        by_name = {r.name: r for r in second.records}
        assert by_name["load_design"].status == "hit"
        assert by_name["build_grid"].status == "hit"
        assert by_name["route"].status == "run"
        assert by_name["decompose"].status == "run"
        assert (
            second.artifacts["design"].hash == first.artifacts["design"].hash
        )
        assert second.artifacts["routing"].hash != first.artifacts["routing"].hash

    def test_memory_store_isolated_per_instance(self, tmp_path):
        config = _config(tmp_path)
        a = Pipeline(config, store=MemoryStore()).run(targets=("route",))
        b = Pipeline(config, store=MemoryStore()).run(targets=("route",))
        assert a.executed_count == b.executed_count == 3


class TestTargets:
    def test_route_target_skips_downstream(self, tmp_path):
        run = Pipeline(_config(tmp_path)).run(targets=("route",))
        assert [r.name for r in run.records] == ["load_design", "build_grid", "route"]
        assert "mask" not in run.artifacts
        with pytest.raises(PipelineError, match="mask"):
            run.artifact("mask")
        assert run.artifact("routing").result().routed_count > 0

    def test_report_target_skips_decompose(self, tmp_path):
        run = Pipeline(_config(tmp_path)).run(targets=("report",))
        names = [r.name for r in run.records]
        assert "decompose" not in names and "verify" not in names
        assert run.artifact("report").report().num_nets > 0

    def test_unknown_target_rejected(self, tmp_path):
        with pytest.raises(PipelineError, match="unknown stage"):
            Pipeline(_config(tmp_path)).run(targets=("polish",))


class TestPlanAndResume:
    def test_plan_matches_run(self, tmp_path):
        pipe = Pipeline(_config(tmp_path))
        before = pipe.plan()
        assert all(r.status == "pending" for r in before)
        run = pipe.run()
        after = pipe.plan()
        assert all(r.status == "hit" for r in after)
        for planned, executed in zip(after, run.records):
            assert planned.hashes == executed.hashes

    def test_failed_stage_resumes_after_prefix(self, tmp_path):
        class BoomStage(Stage):
            name = "decompose"
            version = "1"
            inputs = ("grid", "routing", "coloring")
            outputs = ("mask",)
            calls = 0

            def run(self, config, inputs, context):
                type(self).calls += 1
                raise PipelineError("boom", stage=self.name)

        stages = [
            BoomStage() if s.name == "decompose" else s for s in default_stages()
        ]
        config = _config(tmp_path)
        with pytest.raises(PipelineError, match="boom"):
            Pipeline(config, stages=stages).run()
        # The prefix is cached: a healthy pipeline resumes at decompose.
        run = Pipeline(config).run()
        by_name = {r.name: r for r in run.records}
        assert by_name["load_design"].status == "hit"
        assert by_name["route"].status == "hit"
        assert by_name["decompose"].status == "run"

    def test_stage_error_names_stage(self, tmp_path):
        config = PipelineConfig(
            netlist=str(tmp_path / "missing.txt"),
            width=8,
            height=8,
            cache_dir=str(tmp_path / "cache"),
        )
        with pytest.raises(PipelineError) as err:
            Pipeline(config).run(targets=("load_design",))
        assert err.value.stage == "load_design"
        assert "missing.txt" in str(err.value)


class TestValidation:
    def test_config_requires_one_source(self, tmp_path):
        with pytest.raises(PipelineError, match="design source"):
            Pipeline(PipelineConfig(cache_dir=str(tmp_path)))
        with pytest.raises(PipelineError, match="design source"):
            Pipeline(
                PipelineConfig(
                    netlist="a.txt", circuit="Test1", width=4, height=4,
                    cache_dir=str(tmp_path),
                )
            )

    def test_netlist_needs_dimensions(self, tmp_path):
        with pytest.raises(PipelineError, match="dimensions"):
            Pipeline(PipelineConfig(netlist="a.txt", cache_dir=str(tmp_path)))

    def test_unknown_router_rejected(self, tmp_path):
        with pytest.raises(PipelineError, match="unknown router"):
            Pipeline(
                PipelineConfig(circuit="Test1", router="magic", cache_dir=str(tmp_path))
            )

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(scale=0.0), "scale must be in"),
            (dict(circuit="Test99"), "unknown circuit"),
            (dict(num_layers=1.5), "num_layers must be a positive integer"),
            (dict(num_layers=True), "num_layers must be a positive integer"),
            (
                dict(circuit=None, netlist="a.txt", width=-5, height=16),
                "width must be a positive integer",
            ),
            (
                dict(circuit=None, netlist="a.txt", width=16, height=0),
                "height must be a positive integer",
            ),
        ],
    )
    def test_bad_field_rejected(self, tmp_path, overrides, match):
        with pytest.raises(PipelineError, match=match):
            _config(tmp_path, **overrides).validate()

    def test_removed_knobs_are_not_fields(self, tmp_path):
        removed = (
            "workers", "shard", "kernel", "guidance", "order", "alpha", "beta",
            "gamma", "delta_tip", "flip_threshold", "bitmap_resolution",
        )
        for knob in removed:
            with pytest.raises(TypeError):
                _config(tmp_path, **{knob: 1})

    def test_duplicate_producer_rejected(self, tmp_path):
        class Dup(Stage):
            name = "dup"
            outputs = ("design",)

        with pytest.raises(PipelineError, match="two stages"):
            Pipeline(
                _config(tmp_path), stages=list(default_stages()) + [Dup()]
            )

    def test_missing_output_detected(self, tmp_path):
        class Lazy(Stage):
            name = "load_design"
            outputs = ("design",)

            def run(self, config, inputs, context):
                return {}

        stages = [Lazy() if s.name == "load_design" else s for s in default_stages()]
        with pytest.raises(PipelineError, match="did not produce"):
            Pipeline(_config(tmp_path), stages=stages).run(targets=("load_design",))
