"""Declarative staged execution with content-hash caching and resume.

A :class:`Pipeline` wires the stages of ``stages.py`` over one
:class:`PipelineConfig`. Every stage writes one artifact, content-hashed
from its *inputs*::

    hash(output) = sha256(stage name, stage version,
                          config slice, fingerprint extras,
                          upstream artifact hashes)[:32]   (+ output kind)

so a re-run with an unchanged prefix is a pure cache hit, and a run that
failed mid-way naturally resumes at the first invalid stage — the hashes
of everything before it still resolve in the store.

Observability: each *executed* stage runs inside a ``stage:<name>`` span
carrying the artifact hash, serialized bytes, and wall seconds (the
JSONL run log picks these up automatically); cache hits don't open spans
but bump the ``pipeline_cache_hits_total`` counter. A test can therefore
assert "the second run did no routing" by counting ``stage:route`` spans.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import PipelineCancelled, PipelineError, ReproError
from .artifacts import Artifact
from .config import PipelineConfig
from .stages import Stage, default_stages
from .store import ArtifactStore

#: Signature of a per-stage progress callback: called with structured
#: event dicts (``{"event": "stage_start"|"stage_end", "stage": ...,
#: "index": i, "total": n, ...}``) as the run advances. ``stage_end``
#: events mirror the ``stage:<name>`` spans — ``status`` distinguishes an
#: executed stage (``"run"``) from a cache hit (``"hit"``) or a
#: single-flight coalesce (``"coalesced"``), so a supervisor can assert
#: "the second identical job did zero route work" without parsing spans.
ProgressFn = Callable[[Dict[str, Any]], None]

#: Cancellation check: return True to stop the run between stages (the
#: run raises :class:`PipelineCancelled`; completed stages stay cached).
CancelFn = Callable[[], bool]

#: Run every stage (the full paper flow) when no targets are given.
ALL_STAGES: Tuple[str, ...] = (
    "load_design",
    "build_grid",
    "route",
    "decompose",
    "verify",
    "report",
)


@dataclass
class StageRecord:
    """What happened to one stage during a run (or a plan)."""

    name: str
    status: str  # "run" | "hit" | "pending"
    hashes: Dict[str, str] = field(default_factory=dict)
    seconds: float = 0.0
    bytes: int = 0

    def describe(self) -> str:
        ids = " ".join(
            f"{kind}:{h[:12]}" for kind, h in sorted(self.hashes.items())
        )
        if self.status == "run":
            detail = f"run   {self.seconds:7.2f}s {_fmt_bytes(self.bytes):>9s}"
        elif self.status == "hit":
            detail = f"hit   {'':7s}  {'':9s}"
        else:
            detail = f"{self.status:5s} {'':7s}  {'':9s}"
        return f"stage {self.name:12s} {detail} {ids}"


def _fmt_bytes(n: int) -> str:
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f} MB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f} KB"
    return f"{n} B"


@dataclass
class PipelineRun:
    """Outcome of :meth:`Pipeline.run`: artifacts by kind plus per-stage
    records."""

    config: PipelineConfig
    records: List[StageRecord] = field(default_factory=list)
    artifacts: Dict[str, Artifact] = field(default_factory=dict)

    def artifact(self, kind: str) -> Artifact:
        try:
            return self.artifacts[kind]
        except KeyError:
            raise PipelineError(
                f"no {kind!r} artifact in this run — was its stage targeted?"
            ) from None

    @property
    def cached_count(self) -> int:
        # "coalesced" = a concurrent identical run computed it while we
        # waited — a cache hit from this run's point of view.
        return sum(1 for r in self.records if r.status in ("hit", "coalesced"))

    @property
    def executed_count(self) -> int:
        return sum(1 for r in self.records if r.status == "run")

    def status_line(self) -> str:
        return f"pipeline: {self.executed_count} run, {self.cached_count} cached"

    def to_text(self) -> str:
        return "\n".join([r.describe() for r in self.records] + [self.status_line()])


class Pipeline:
    """The staged execution engine.

    >>> config = PipelineConfig(circuit="Test1", scale=0.1)
    >>> run = Pipeline(config).run()            # full flow, cached
    >>> run.artifact("routing").result().summary()
    """

    def __init__(
        self, config: PipelineConfig, store: Optional[ArtifactStore] = None
    ) -> None:
        config.validate()
        self.config = config
        self.store = store if store is not None else ArtifactStore(config.cache_dir)
        self.stages: Tuple[Stage, ...] = default_stages()
        self._producer: Dict[str, Stage] = {s.output: s for s in self.stages}

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #

    def _needed_stages(self, targets: Sequence[str]) -> List[Stage]:
        """The target stages plus transitive dependencies, in pipeline
        order."""
        by_name = {s.name: s for s in self.stages}
        needed: set = set()

        def require(stage: Stage) -> None:
            if stage.name in needed:
                return
            needed.add(stage.name)
            for kind in stage.inputs:
                require(self._producer[kind])

        for name in targets:
            stage = by_name.get(name)
            if stage is None:
                raise PipelineError(
                    f"unknown stage {name!r}; stages are {[s.name for s in self.stages]}"
                )
            require(stage)
        return [s for s in self.stages if s.name in needed]

    def _output_hash(self, stage: Stage, input_hashes: Dict[str, str]) -> str:
        material = json.dumps(
            {
                "stage": stage.name,
                "version": stage.version,
                "config": stage.config_slice(self.config),
                "extra": stage.fingerprint_extra(self.config),
                "inputs": input_hashes,
            },
            sort_keys=True,
            default=str,
        )
        base = hashlib.sha256(material.encode("utf-8")).hexdigest()
        return hashlib.sha256(f"{base}:{stage.output}".encode("utf-8")).hexdigest()[:32]

    def plan(self, targets: Sequence[str] = ALL_STAGES) -> List[StageRecord]:
        """Resolve every needed stage's artifact hash and cache status
        without executing anything."""
        records: List[StageRecord] = []
        known: Dict[str, str] = {}
        for stage in self._needed_stages(targets):
            h = self._output_hash(stage, {kind: known[kind] for kind in stage.inputs})
            known[stage.output] = h
            records.append(
                StageRecord(
                    name=stage.name,
                    status="hit" if self.store.has(h) else "pending",
                    hashes={stage.output: h},
                )
            )
        return records

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        targets: Sequence[str] = ALL_STAGES,
        force: bool = False,
        progress: Optional[ProgressFn] = None,
        cancel: Optional[CancelFn] = None,
    ) -> PipelineRun:
        """Execute the pipeline up to ``targets`` (plus dependencies).

        Unchanged prefixes are served from the artifact store; ``force``
        re-executes every stage (results are still written back, so a
        forced run refreshes the cache). A stage failure raises
        :class:`PipelineError` naming the stage; artifacts of completed
        stages remain cached, so the next run resumes after them.

        ``progress`` receives structured per-stage events (see
        :data:`ProgressFn`) — the hook the job service streams to
        clients. ``cancel`` is polled between stages; when it returns
        True the run raises :class:`PipelineCancelled` (completed stages
        stay cached, so a resubmission resumes).
        """
        run = PipelineRun(config=self.config)
        needed = self._needed_stages(targets)
        total = len(needed)
        for index, stage in enumerate(needed):
            if cancel is not None and cancel():
                raise PipelineCancelled(
                    f"run cancelled before stage '{stage.name}'",
                    stage=stage.name,
                )
            if progress is not None:
                progress(
                    {
                        "event": "stage_start",
                        "stage": stage.name,
                        "span": f"stage:{stage.name}",
                        "index": index,
                        "total": total,
                    }
                )
            inputs = {kind: run.artifacts[kind] for kind in stage.inputs}
            try:
                record, artifact = self._run_stage(stage, inputs, force)
            except PipelineError:
                raise
            except ReproError as exc:
                raise PipelineError(
                    f"stage '{stage.name}' failed: {exc}", stage=stage.name
                ) from exc
            run.records.append(record)
            run.artifacts[stage.output] = artifact
            if progress is not None:
                progress(
                    {
                        "event": "stage_end",
                        "stage": stage.name,
                        "span": f"stage:{stage.name}",
                        "index": index,
                        "total": total,
                        "status": record.status,
                        "seconds": round(record.seconds, 6),
                        "bytes": record.bytes,
                        "hashes": dict(record.hashes),
                    }
                )
        return run

    def _run_stage(
        self, stage: Stage, inputs: Dict[str, Artifact], force: bool
    ) -> Tuple[StageRecord, Artifact]:
        h = self._output_hash(stage, {kind: art.hash for kind, art in inputs.items()})
        if force:
            return self._execute_stage(stage, inputs, h)
        status = "hit"
        cached = self.store.load(h)
        if cached is None:
            # Miss: coalesce with any concurrent identical run before
            # computing. The leader executes while holding the advisory
            # lock; followers wait it out, then re-check — the entry the
            # leader published turns their computation into a read. The
            # leader re-checks too: another process may have published
            # between our miss and the lock acquisition.
            with self.store.single_flight(h) as leader:
                cached = self.store.load(h)
                if cached is None:
                    return self._execute_stage(stage, inputs, h)
            if not leader:
                status = "coalesced"
        obs.counter_inc(
            "pipeline_cache_hits_total"
            if status == "hit"
            else "pipeline_singleflight_coalesced_total",
            stage=stage.name,
        )
        return StageRecord(stage.name, status, {stage.output: h}), cached

    def _execute_stage(
        self, stage: Stage, inputs: Dict[str, Artifact], h: str
    ) -> Tuple[StageRecord, Artifact]:
        t0 = time.perf_counter()
        with obs.span(f"stage:{stage.name}", stage=stage.name) as sp:
            artifact = stage.run(self.config, inputs)
        seconds = time.perf_counter() - t0
        artifact.hash = h
        nbytes, _ = self.store.publish(artifact, stage.name)
        obs.counter_inc("pipeline_stage_runs_total", stage=stage.name)
        hashes = {stage.output: h}
        if obs.is_enabled():
            # The finished span is already recorded; attrs mutate in place.
            sp.attrs.update(
                {
                    "hashes": dict(hashes),
                    "bytes": nbytes,
                    "seconds": round(seconds, 6),
                }
            )
        return (
            StageRecord(stage.name, "run", hashes, seconds=seconds, bytes=nbytes),
            artifact,
        )
