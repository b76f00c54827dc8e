"""Typed, serializable pipeline artifacts.

Every stage boundary is a plain-JSON payload wrapped in a typed accessor
class, so artifacts round-trip through the content-addressed store and a
resumed run rebuilds exactly the objects a fresh run would have produced:

========== =================== =========================================
kind       class               carries
========== =================== =========================================
design     DesignArtifact      netlist text + blockages + grid dims
grid       GridArtifact        dimensions, layer count, blockage rects
routing    RoutingArtifact     the RoutingResult (router.io schema, final
                               colors included) + scenario/overlay digest
mask       MaskArtifact        per-layer synthesized mask bitmaps
verify     VerifyArtifact      per-layer decomposition verification
report     ReportArtifact      the RoutingReport + summary line
========== =================== =========================================

Bitmaps are bit-packed, zlib-compressed, and base64-encoded — a Test1
clip's full mask set is a few kilobytes on disk.
"""

from __future__ import annotations

import base64
import zlib
from typing import Any, Dict, List, Optional, Tuple, Type

import numpy as np

from ..analysis.report import OverlayBreakdown, RoutingReport
from ..color import Color
from ..decompose.bitmap import Bitmap
from ..decompose.masks import MaskSet
from ..decompose.target import TargetPattern
from ..errors import PipelineError
from ..geometry import Rect
from ..grid import RoutingGrid, default_layer_stack
from ..netlist import Netlist
from ..netlist.io import parse_design
from ..router.io import result_from_dict
from ..router.result import RoutingResult
from ..rules import DesignRules


class Artifact:
    """One immutable stage output: a kind tag, a content hash assigned by
    the engine, and a JSON-serialisable payload."""

    kind: str = "artifact"

    def __init__(self, payload: Dict[str, Any], hash: str = "") -> None:
        self.payload = payload
        self.hash = hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(hash={self.hash[:12]!r})"


class DesignArtifact(Artifact):
    """The loaded design: netlist text (the canonical serialisation) plus
    the grid dimensions it is meant to route on."""

    kind = "design"

    @property
    def width(self) -> int:
        return int(self.payload["width"])

    @property
    def height(self) -> int:
        return int(self.payload["height"])

    @property
    def num_layers(self) -> int:
        return int(self.payload["num_layers"])

    def parse(self) -> Tuple[List[Tuple[int, Rect]], Netlist]:
        """``(blockages, netlist)`` exactly as ``read_design`` returns."""
        return parse_design(self.payload["netlist_text"])

    def netlist(self) -> Netlist:
        return self.parse()[1]


class GridArtifact(Artifact):
    """Grid construction parameters (dimensions, layers, blockages)."""

    kind = "grid"

    def build(self) -> RoutingGrid:
        """A fresh grid with every blockage applied (no routes)."""
        grid = RoutingGrid(
            width=int(self.payload["width"]),
            height=int(self.payload["height"]),
            layers=default_layer_stack(int(self.payload["num_layers"])),
        )
        for layer, xlo, ylo, xhi, yhi in self.payload.get("blockages", ()):
            rect = Rect(xlo, ylo, xhi, yhi)
            targets = range(grid.num_layers) if layer < 0 else (layer,)
            for l in targets:
                grid.block(l, rect)
        return grid


class RoutingArtifact(Artifact):
    """The committed routing result, in the ``router.io`` JSON schema,
    plus the graph-side digests (scenario census and overlay breakdown)
    captured while the router was live."""

    kind = "routing"

    def result(self) -> RoutingResult:
        return result_from_dict(self.payload["result"])

    def scenario_census(self) -> Dict[str, int]:
        return {
            str(k): int(v)
            for k, v in self.payload.get("scenario_census", {}).items()
        }

    def overlay_breakdown(self) -> OverlayBreakdown:
        return OverlayBreakdown.from_dict(self.payload.get("overlay", {}))


def _encode_bitmap(bmp: Bitmap) -> Dict[str, Any]:
    packed = np.packbits(bmp.data.astype(np.uint8))
    return {
        "shape": list(bmp.data.shape),
        "data": base64.b64encode(zlib.compress(packed.tobytes())).decode("ascii"),
    }


def _decode_bitmap(window: Rect, resolution: int, record: Dict[str, Any]) -> Bitmap:
    w, h = (int(v) for v in record["shape"])
    raw = np.frombuffer(
        zlib.decompress(base64.b64decode(record["data"])), dtype=np.uint8
    )
    bits = np.unpackbits(raw)[: w * h].reshape(w, h).astype(bool)
    return Bitmap(window, resolution, data=bits)


_MASK_FIELDS = (
    "target_bmp",
    "core_targets",
    "assist",
    "core_mask",
    "spacer",
    "cut_mask",
    "printed",
)


def mask_set_to_dict(masks: MaskSet) -> Dict[str, Any]:
    """Lower a full mask set to plain JSON data (compressed bitmaps)."""
    rules = masks.rules
    return {
        "window": [masks.window.xlo, masks.window.ylo, masks.window.xhi, masks.window.yhi],
        "resolution": masks.resolution,
        "rules": {
            "w_line": rules.w_line,
            "w_spacer": rules.w_spacer,
            "w_cut": rules.w_cut,
            "w_core": rules.w_core,
            "d_cut": rules.d_cut,
            "d_core": rules.d_core,
            "d_overlap": rules.d_overlap,
        },
        "targets": [
            {
                "net_id": t.net_id,
                "color": t.color.value,
                "rects": [[r.xlo, r.ylo, r.xhi, r.yhi] for r in t.rects],
                "horizontal": list(t.horizontal),
            }
            for t in masks.targets
        ],
        "bitmaps": {name: _encode_bitmap(getattr(masks, name)) for name in _MASK_FIELDS},
    }


def mask_set_from_dict(data: Dict[str, Any]) -> MaskSet:
    """Rebuild a :class:`MaskSet` saved by :func:`mask_set_to_dict`."""
    window = Rect(*data["window"])
    resolution = int(data["resolution"])
    rules = DesignRules(**data["rules"])
    targets = [
        TargetPattern(
            net_id=int(t["net_id"]),
            rects=tuple(Rect(*r) for r in t["rects"]),
            color=Color(t["color"]),
            horizontal=tuple(bool(h) for h in t["horizontal"]),
        )
        for t in data["targets"]
    ]
    bitmaps = {
        name: _decode_bitmap(window, resolution, data["bitmaps"][name])
        for name in _MASK_FIELDS
    }
    return MaskSet(
        window=window,
        resolution=resolution,
        rules=rules,
        targets=targets,
        **bitmaps,
    )


class MaskArtifact(Artifact):
    """The synthesized SADP mask sets, one entry per layer with targets."""

    kind = "mask"

    def layers(self) -> List[int]:
        return [int(entry["layer"]) for entry in self.payload.get("layers", ())]

    def mask_sets(self) -> List[Tuple[int, MaskSet]]:
        return [
            (int(entry["layer"]), mask_set_from_dict(entry["masks"]))
            for entry in self.payload.get("layers", ())
        ]


class VerifyArtifact(Artifact):
    """Per-layer physical verification of the decomposition."""

    kind = "verify"

    @property
    def ok(self) -> bool:
        return bool(self.payload.get("ok", False))

    def layer_reports(self) -> List[Dict[str, Any]]:
        return list(self.payload.get("layers", ()))


class ReportArtifact(Artifact):
    """The final routing report plus the one-line summary."""

    kind = "report"

    @property
    def summary(self) -> str:
        return str(self.payload.get("summary", ""))

    def report(self) -> RoutingReport:
        return RoutingReport.from_dict(self.payload["report"])


ARTIFACT_CLASSES: Dict[str, Type[Artifact]] = {
    cls.kind: cls
    for cls in (
        DesignArtifact,
        GridArtifact,
        RoutingArtifact,
        MaskArtifact,
        VerifyArtifact,
        ReportArtifact,
    )
}


def replay_onto_grid(grid: RoutingGrid, result: RoutingResult) -> RoutingGrid:
    """Re-apply a routing result's committed segments to a fresh grid.

    Restores the occupancy a live router would have left behind — what the
    SVG renderer and other occupancy-based consumers need when the result
    came out of the artifact cache instead of a live run.
    """
    for net_id, route in sorted(result.routes.items()):
        if not route.success:
            continue
        for seg in route.segments:
            grid.occupy_segment(seg, net_id)
    return grid


def artifact_from_record(record: Dict[str, Any]) -> Artifact:
    """Rebuild a typed artifact from a store record (``kind``/``hash``/
    ``payload``)."""
    kind = record.get("kind")
    cls = ARTIFACT_CLASSES.get(kind)
    if cls is None:
        raise PipelineError(f"unknown artifact kind {kind!r} in store")
    return cls(payload=record.get("payload", {}), hash=str(record.get("hash", "")))
