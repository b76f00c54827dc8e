"""Staged pipeline: typed artifacts, content-hash caching, resumable runs.

The paper's flow — netlist in, overlay-aware routing with OCG maintenance
and color flipping, then mask decomposition and physical verification —
as a declarative six-stage pipeline::

    load_design → build_grid → route → decompose → verify
                                  └───→ report

    from repro.pipeline import Pipeline, PipelineConfig

    config = PipelineConfig(circuit="Test1", scale=0.1)
    run = Pipeline(config).run()                 # full flow
    result = run.artifact("routing").result()    # a RoutingResult
    print(run.artifact("report").report().to_text())

Every artifact is content-hashed from its inputs (stage version +
upstream hashes + config slice) and persisted to a ``.repro_cache/``
store; re-running with an unchanged prefix is a cache hit, and a failed
run resumes at the first invalid stage. The CLI front-end is
``repro pipeline run/show/clean``; see ``docs/PIPELINE.md``.
"""

from .artifacts import (
    ARTIFACT_CLASSES,
    Artifact,
    DesignArtifact,
    GridArtifact,
    MaskArtifact,
    ReportArtifact,
    RoutingArtifact,
    VerifyArtifact,
    mask_set_from_dict,
    mask_set_to_dict,
    replay_onto_grid,
)
from .config import KNOWN_ROUTERS, PipelineConfig
from .engine import ALL_STAGES, Pipeline, PipelineRun, StageRecord
from .observe import observed_command
from .stages import (
    BuildGridStage,
    DecomposeStage,
    LoadDesignStage,
    ReportStage,
    RouteStage,
    Stage,
    VerifyStage,
    default_stages,
)
from .store import ArtifactStore, StoreEntry, default_cache_dir

__all__ = [
    "ALL_STAGES",
    "ARTIFACT_CLASSES",
    "Artifact",
    "ArtifactStore",
    "BuildGridStage",
    "DecomposeStage",
    "DesignArtifact",
    "GridArtifact",
    "KNOWN_ROUTERS",
    "LoadDesignStage",
    "MaskArtifact",
    "Pipeline",
    "PipelineConfig",
    "PipelineRun",
    "ReportArtifact",
    "ReportStage",
    "RouteStage",
    "RoutingArtifact",
    "Stage",
    "StageRecord",
    "StoreEntry",
    "VerifyArtifact",
    "VerifyStage",
    "default_stages",
    "default_cache_dir",
    "mask_set_from_dict",
    "mask_set_to_dict",
    "observed_command",
    "replay_onto_grid",
]
