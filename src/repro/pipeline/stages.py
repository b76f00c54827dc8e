"""The six pipeline stages of the paper's flow.

``load_design → build_grid → route → decompose → verify`` mirrors
Sections IV–V: netlist in, sequential overlay-aware routing with OCG
maintenance and color flipping, then mask decomposition and physical
verification; ``report`` digests the routing artifact into the
user-facing report. The routing artifact carries the final colors
inside its result, plus the scenario census and overlay breakdown the
route stage reads while the router's constraint graphs are live.

Each stage declares:

* ``inputs`` — upstream artifact kinds it consumes,
* ``output`` — the kind of the one artifact it produces,
* ``version`` — bumped whenever the stage's semantics change, which
  invalidates every cached artifact it (and anything downstream) made,
* ``config_slice`` — the part of :class:`PipelineConfig` entering its
  content hash.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, Tuple

from ..analysis.report import breakdown_by_scenario, build_report, scenario_census
from ..router.io import result_to_dict
from .artifacts import (
    Artifact,
    DesignArtifact,
    GridArtifact,
    MaskArtifact,
    ReportArtifact,
    RoutingArtifact,
    VerifyArtifact,
    mask_set_to_dict,
)
from .config import PipelineConfig


class Stage:
    """One step of the pipeline; subclasses implement :meth:`run`."""

    name: str = ""
    version: str = "1"
    inputs: Tuple[str, ...] = ()
    output: str = ""

    def config_slice(self, config: PipelineConfig) -> Dict[str, Any]:
        return {}

    def fingerprint_extra(self, config: PipelineConfig) -> Dict[str, Any]:
        """Additional hash material beyond the config slice (e.g. the
        content hash of an input file)."""
        return {}

    def run(
        self, config: PipelineConfig, inputs: Dict[str, Artifact]
    ) -> Artifact:
        raise NotImplementedError


class LoadDesignStage(Stage):
    """Netlist file or benchmark instance → :class:`DesignArtifact`."""

    name = "load_design"
    version = "1"
    inputs = ()
    output = "design"

    def config_slice(self, config: PipelineConfig) -> Dict[str, Any]:
        return config.design_slice()

    def fingerprint_extra(self, config: PipelineConfig) -> Dict[str, Any]:
        if config.netlist is None:
            return {}
        from ..netlist.io import read_design_text

        text = read_design_text(config.netlist)
        return {"netlist_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}

    def run(self, config, inputs):
        if config.netlist is not None:
            from ..netlist.io import read_design, read_design_text

            text = read_design_text(config.netlist)
            read_design(config.netlist)  # validates; raises with path + line
            payload = {
                "mode": "netlist",
                "source": str(config.netlist),
                "netlist_text": text,
                "width": config.width,
                "height": config.height,
                "num_layers": config.num_layers,
            }
        else:
            from ..bench.workloads import generate_benchmark, spec_by_name
            from ..netlist.io import netlist_to_text

            spec = spec_by_name(config.circuit)
            grid, nets = generate_benchmark(
                spec,
                scale=config.scale,
                seed=config.seed,
                num_layers=config.num_layers,
            )
            payload = {
                "mode": "benchmark",
                "source": f"{spec.name}@{config.scale}/seed{config.seed}",
                "netlist_text": netlist_to_text(nets),
                "width": grid.width,
                "height": grid.height,
                "num_layers": config.num_layers,
            }
        return DesignArtifact(payload)


class BuildGridStage(Stage):
    """Design → :class:`GridArtifact` (dimensions + blockage rects)."""

    name = "build_grid"
    version = "1"
    inputs = ("design",)
    output = "grid"

    def config_slice(self, config: PipelineConfig) -> Dict[str, Any]:
        return config.grid_slice()

    def run(self, config, inputs):
        design: DesignArtifact = inputs["design"]
        blockages, _ = design.parse()
        payload = {
            "width": design.width,
            "height": design.height,
            "num_layers": design.num_layers,
            "blockages": [
                [layer, rect.xlo, rect.ylo, rect.xhi, rect.yhi]
                for layer, rect in blockages
            ],
        }
        return GridArtifact(payload)


def router_class(name: str) -> Callable:
    """The router class of a config name (``KNOWN_ROUTERS``); the
    baselines are imported only when one is asked for."""
    if name == "ours":
        from ..router import SadpRouter

        return SadpRouter
    from ..baselines import CutNoMergeRouter, DuTrimRouter, GaoPanTrimRouter

    return {
        "gao-pan": GaoPanTrimRouter,
        "cut16": CutNoMergeRouter,
        "du": DuTrimRouter,
    }[name]


class RouteStage(Stage):
    """Grid + netlist → the routing result with its scenario census and
    overlay breakdown."""

    name = "route"
    #: "3": the census and breakdown ride in the routing artifact (no
    #: separate coloring artifact), so version-2 entries must not be
    #: served.
    version = "3"
    inputs = ("design", "grid")
    output = "routing"

    def config_slice(self, config: PipelineConfig) -> Dict[str, Any]:
        return config.route_slice()

    def run(self, config, inputs):
        grid = inputs["grid"].build()
        netlist = inputs["design"].netlist()
        options = dict(config.router_options or {})
        router = router_class(config.router)(grid, netlist, **options)
        result = router.route_all()
        return RoutingArtifact(
            {
                "result": result_to_dict(result),
                "scenario_census": scenario_census(router),
                "overlay": breakdown_by_scenario(router).to_dict(),
            }
        )


class DecomposeStage(Stage):
    """Routing → synthesized SADP masks per layer, in the result's
    colors."""

    name = "decompose"
    version = "1"
    inputs = ("grid", "routing")
    output = "mask"

    def run(self, config, inputs):
        from ..decompose import routing_to_targets, synthesize_masks

        grid = inputs["grid"].build()
        result = inputs["routing"].result()
        layers = []
        for layer in range(grid.num_layers):
            targets = routing_to_targets(grid, result, layer)
            if not targets:
                continue
            masks = synthesize_masks(targets, grid.rules)
            layers.append({"layer": layer, "masks": mask_set_to_dict(masks)})
        return MaskArtifact({"layers": layers})


class VerifyStage(Stage):
    """Masks → per-layer physical verification report."""

    name = "verify"
    version = "1"
    inputs = ("mask",)
    output = "verify"

    def run(self, config, inputs):
        from ..decompose import verify_decomposition

        layers = []
        all_ok = True
        for layer, masks in inputs["mask"].mask_sets():
            report = verify_decomposition(masks)
            all_ok = all_ok and report.ok
            layers.append(
                {
                    "layer": layer,
                    "ok": report.ok,
                    "prints_correctly": report.prints_correctly,
                    "missing_target_px": report.missing_target_px,
                    "spacer_over_target_px": report.spacer_over_target_px,
                    "side_overlay_nm": report.overlay.side_overlay_nm,
                    "tip_overlay_nm": report.overlay.tip_overlay_nm,
                    "hard_overlay_count": report.overlay.hard_overlay_count,
                    "cut_conflicts": len(report.cut_conflicts),
                }
            )
        return VerifyArtifact({"layers": layers, "ok": all_ok})


class ReportStage(Stage):
    """Routing result and digests → the user-facing routing report."""

    name = "report"
    version = "1"
    inputs = ("routing",)
    output = "report"

    def run(self, config, inputs):
        routing: RoutingArtifact = inputs["routing"]
        result = routing.result()
        report = build_report(
            result,
            routing.scenario_census(),
            routing.overlay_breakdown(),
            instrumentation=None,
        )
        return ReportArtifact({"report": report.to_dict(), "summary": result.summary()})


#: Canonical stage order (a stage's inputs are always produced earlier).
def default_stages() -> Tuple[Stage, ...]:
    return (
        LoadDesignStage(),
        BuildGridStage(),
        RouteStage(),
        DecomposeStage(),
        VerifyStage(),
        ReportStage(),
    )
