"""The six pipeline stages of the paper's flow.

``load_design → build_grid → route → decompose → verify`` mirrors
Sections IV–V: netlist in, sequential overlay-aware routing with OCG
maintenance and color flipping, then mask decomposition and physical
verification; ``report`` digests the routing/coloring artifacts into the
user-facing report. The ``route`` stage emits two artifacts — the
geometric :class:`RoutingArtifact` and the :class:`ColoringArtifact`
digest — because the census/breakdown can only be captured while the
router's constraint graphs are live.

Each stage declares:

* ``inputs`` — upstream artifact kinds it consumes,
* ``outputs`` — artifact kinds it produces,
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
    ColoringArtifact,
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
    outputs: Tuple[str, ...] = ()

    def config_slice(self, config: PipelineConfig) -> Dict[str, Any]:
        return {}

    def fingerprint_extra(self, config: PipelineConfig) -> Dict[str, Any]:
        """Additional hash material beyond the config slice (e.g. the
        content hash of an input file)."""
        return {}

    def run(
        self,
        config: PipelineConfig,
        inputs: Dict[str, Artifact],
        context: Dict[str, Any],
    ) -> Dict[str, Artifact]:
        raise NotImplementedError


class LoadDesignStage(Stage):
    """Netlist file or benchmark instance → :class:`DesignArtifact`."""

    name = "load_design"
    version = "1"
    inputs = ()
    outputs = ("design",)

    def config_slice(self, config: PipelineConfig) -> Dict[str, Any]:
        return config.design_slice()

    def fingerprint_extra(self, config: PipelineConfig) -> Dict[str, Any]:
        if config.netlist is None:
            return {}
        from ..netlist.io import read_design_text

        text = read_design_text(config.netlist)
        return {"netlist_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}

    def run(self, config, inputs, context):
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
        return {"design": DesignArtifact(payload)}


class BuildGridStage(Stage):
    """Design → :class:`GridArtifact` (dimensions + blockage rects)."""

    name = "build_grid"
    version = "1"
    inputs = ("design",)
    outputs = ("grid",)

    def config_slice(self, config: PipelineConfig) -> Dict[str, Any]:
        return config.grid_slice()

    def run(self, config, inputs, context):
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
        return {"grid": GridArtifact(payload)}


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
    """Grid + netlist → routing result + coloring digest.

    The live router is exposed to the caller through ``context["router"]``
    — run-local and never serialized.
    """

    name = "route"
    #: "2": the routing artifact's ``total_ripups`` counts every
    #: rejected commit, so version-1 artifacts must not be served.
    version = "2"
    inputs = ("design", "grid")
    outputs = ("routing", "coloring")

    def config_slice(self, config: PipelineConfig) -> Dict[str, Any]:
        return config.route_slice()

    def run(self, config, inputs, context):
        grid = inputs["grid"].build()
        netlist = inputs["design"].netlist()
        options = dict(config.router_options or {})
        router = router_class(config.router)(grid, netlist, **options)
        context["router"] = router
        result = router.route_all()
        context["result"] = result

        routing = RoutingArtifact({"result": result_to_dict(result)})
        coloring = ColoringArtifact(
            {
                "colorings": {
                    str(layer): {
                        str(net): color.value for net, color in coloring.items()
                    }
                    for layer, coloring in result.colorings.items()
                },
                "scenario_census": scenario_census(router),
                "overlay": breakdown_by_scenario(router).to_dict(),
            }
        )
        return {"routing": routing, "coloring": coloring}


class DecomposeStage(Stage):
    """Routing + coloring → synthesized SADP masks per layer."""

    name = "decompose"
    version = "1"
    inputs = ("grid", "routing", "coloring")
    outputs = ("mask",)

    def run(self, config, inputs, context):
        from ..decompose import routing_to_targets, synthesize_masks

        grid = inputs["grid"].build()
        result = inputs["routing"].result()
        colorings = inputs["coloring"].colorings()
        layers = []
        for layer in range(grid.num_layers):
            targets = routing_to_targets(
                grid, result, layer, coloring=colorings.get(layer)
            )
            if not targets:
                continue
            masks = synthesize_masks(targets, grid.rules)
            layers.append({"layer": layer, "masks": mask_set_to_dict(masks)})
        return {"mask": MaskArtifact({"layers": layers})}


class VerifyStage(Stage):
    """Masks → per-layer physical verification report."""

    name = "verify"
    version = "1"
    inputs = ("mask",)
    outputs = ("verify",)

    def run(self, config, inputs, context):
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
        return {"verify": VerifyArtifact({"layers": layers, "ok": all_ok})}


class ReportStage(Stage):
    """Routing + coloring digests → the user-facing routing report."""

    name = "report"
    version = "1"
    inputs = ("routing", "coloring")
    outputs = ("report",)

    def run(self, config, inputs, context):
        result = inputs["routing"].result()
        coloring: ColoringArtifact = inputs["coloring"]
        report = build_report(
            result,
            coloring.scenario_census(),
            coloring.overlay_breakdown(),
            instrumentation=None,
        )
        return {
            "report": ReportArtifact(
                {"report": report.to_dict(), "summary": result.summary()}
            )
        }


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
