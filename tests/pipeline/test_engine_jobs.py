"""Job-oriented engine surface: progress events, cancellation, coalescing."""

import pytest

from repro.errors import PipelineCancelled
from repro.pipeline import ALL_STAGES, Pipeline, PipelineConfig


def _config(tmp_path, **overrides):
    defaults = dict(circuit="Test1", scale=0.1, cache_dir=str(tmp_path / "cache"))
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestProgressEvents:
    def test_every_stage_emits_start_and_end(self, tmp_path):
        events = []
        Pipeline(_config(tmp_path)).run(progress=events.append)
        starts = [e for e in events if e["event"] == "stage_start"]
        ends = [e for e in events if e["event"] == "stage_end"]
        assert [e["stage"] for e in starts] == list(ALL_STAGES)
        assert [e["stage"] for e in ends] == list(ALL_STAGES)
        for i, e in enumerate(starts):
            assert e["span"] == f"stage:{e['stage']}"
            assert e["index"] == i
            assert e["total"] == len(ALL_STAGES)
        for e in ends:
            assert e["status"] == "run"
            assert e["seconds"] >= 0
            assert e["hashes"]

    def test_cached_run_reports_hits(self, tmp_path):
        pipe = Pipeline(_config(tmp_path))
        pipe.run()
        events = []
        pipe.run(progress=events.append)
        ends = [e for e in events if e["event"] == "stage_end"]
        assert all(e["status"] == "hit" for e in ends)

    def test_progress_is_optional(self, tmp_path):
        run = Pipeline(_config(tmp_path)).run()
        assert run.executed_count == len(ALL_STAGES)


class TestCancellation:
    def test_cancel_before_first_stage(self, tmp_path):
        with pytest.raises(PipelineCancelled):
            Pipeline(_config(tmp_path)).run(cancel=lambda: True)

    def test_cancel_mid_run_keeps_prefix(self, tmp_path):
        """Cancelling after two stages leaves their artifacts published,
        so the resubmitted job resumes from the cache."""
        seen = []

        def cancel():
            return len(seen) >= 2

        def progress(event):
            if event["event"] == "stage_end":
                seen.append(event["stage"])

        config = _config(tmp_path)
        with pytest.raises(PipelineCancelled):
            Pipeline(config).run(progress=progress, cancel=cancel)
        assert seen == ["load_design", "build_grid"]

        resumed = Pipeline(config).run()
        by_name = {r.name: r for r in resumed.records}
        assert by_name["load_design"].status == "hit"
        assert by_name["build_grid"].status == "hit"
        assert by_name["route"].status == "run"

    def test_cancelled_is_a_pipeline_error(self, tmp_path):
        from repro.errors import PipelineError

        assert issubclass(PipelineCancelled, PipelineError)


class _RacingStore:
    """Delegates to a pre-warmed store but fakes a lost race: the first
    lookup of every hash misses (as it would before a concurrent leader
    published), later lookups see the real entry."""

    def __init__(self, real, leader):
        self._real = real
        self._leader = leader
        self._seen = set()

    def has(self, hash):
        return self._real.has(hash)

    def load(self, hash):
        if hash not in self._seen:
            self._seen.add(hash)
            return None
        return self._real.load(hash)

    def publish(self, artifact, stage):
        return self._real.publish(artifact, stage)

    def single_flight(self, key, timeout_s=600.0):
        from contextlib import contextmanager

        @contextmanager
        def flight():
            yield self._leader

        return flight()


class TestSingleFlight:
    def test_follower_coalesces_instead_of_recomputing(self, tmp_path):
        """A follower that waited a leader out re-checks the cache and
        reports ``coalesced`` — no stage execution, still a cached run."""
        from repro import obs

        config = _config(tmp_path)
        warmed = Pipeline(config)
        warmed.run()  # what the concurrent leader would have published
        with obs.session() as ob:
            run = Pipeline(config, store=_RacingStore(warmed.store, leader=False)).run()
            assert all(r.status == "coalesced" for r in run.records)
            assert run.executed_count == 0
            assert run.cached_count == len(ALL_STAGES)
            assert ob.registry.total("pipeline_singleflight_coalesced_total") == len(
                ALL_STAGES
            )
            assert not [s for s in ob.tracer.finished if s.name == "stage:route"]

    def test_leader_double_check_inside_lock(self, tmp_path):
        """A leader that wins the lock after another process published
        (miss → lock → re-check) downgrades to a plain hit."""
        config = _config(tmp_path)
        warmed = Pipeline(config)
        warmed.run()
        run = Pipeline(config, store=_RacingStore(warmed.store, leader=True)).run()
        assert all(r.status == "hit" for r in run.records)
        assert run.executed_count == 0
