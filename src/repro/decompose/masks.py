"""SADP cut-process mask synthesis (Figs. 1-2 of the paper, made physical).

Pipeline, all in nm bitmaps:

1. **Core mask** — union of CORE-colored targets plus *assist cores*:
   sacrificial strips placed ``w_spacer`` away from each SECOND pattern's
   side boundaries so the spacer deposited on the assist protects that
   side. Assist material that would come closer than ``w_spacer`` to a
   SECOND target is clipped away (the spacer would eat into the feature).
   Core shapes closer than ``d_core`` are *merged* — the paper's merge
   technique: each pair of components whose boundary gap is below
   ``d_core`` is bridged by the lens of pixels within ``gap + 1`` px of
   both (distance transforms), repeated to a fixpoint. The bridge
   material later gets cut away, which is exactly where overlays appear.
2. **Spacer** — isotropic ``w_spacer`` sidewall around the core mask.
3. **Cut mask** — everything that would print (not spacer) but is not a
   target, grown ``d_overlap`` into surrounding spacer for process margin
   but never onto a target.
4. **Wafer image** — not spacer and not cut.

The resulting :class:`MaskSet` is what overlay metrology, cut-conflict
detection, and the decomposition verifier consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy import ndimage

from .. import obs
from ..color import Color
from ..errors import DecompositionError
from ..geometry import Rect
from ..rules import DesignRules
from ..units import DEFAULT_BITMAP_RESOLUTION_NM
from .bitmap import Bitmap
from .target import TargetPattern


@dataclass
class MaskSet:
    """All layers of one decomposed window."""

    window: Rect
    resolution: int
    rules: DesignRules
    targets: List[TargetPattern]
    target_bmp: Bitmap  # union of all target features
    core_targets: Bitmap  # CORE-colored target features only
    assist: Bitmap  # assist core material (sacrificial)
    core_mask: Bitmap  # full core mask after merging
    spacer: Bitmap
    cut_mask: Bitmap
    printed: Bitmap  # final wafer image

    def merged_bridges(self) -> Bitmap:
        """Core material added by merging (neither drawn core nor assist)."""
        return self.core_mask - (self.core_targets | self.assist)


def default_window(
    targets: Sequence[TargetPattern], rules: DesignRules, margin: Optional[int] = None
) -> Rect:
    """A window comfortably containing the targets plus process halo."""
    if not targets:
        raise DecompositionError("cannot decompose an empty target set")
    box = targets[0].bbox
    for t in targets[1:]:
        box = box.hull(t.bbox)
    if margin is None:
        margin = 2 * (rules.w_line + 2 * rules.w_spacer + rules.w_core)
    box = box.inflated(margin)
    # Snap to the raster grid.
    res = DEFAULT_BITMAP_RESOLUTION_NM
    return Rect(
        box.xlo - box.xlo % res,
        box.ylo - box.ylo % res,
        box.xhi + (-box.xhi) % res,
        box.yhi + (-box.yhi) % res,
    )


def _assist_strips(pattern: TargetPattern, rules: DesignRules) -> List[Rect]:
    """Assist-core candidate strips flanking a SECOND pattern's sides.

    Strips run along both side boundaries at distance ``w_spacer``, are
    ``w_core`` wide, and extend ``w_spacer`` beyond the tips so the corner
    spacer wraps properly (visible in the paper's Fig. 4).
    """
    ws, wc = rules.w_spacer, rules.w_core
    strips = []
    for rect, horizontal in zip(pattern.rects, pattern.horizontal):
        if horizontal:
            strips.append(
                Rect(rect.xlo - ws, rect.ylo - ws - wc, rect.xhi + ws, rect.ylo - ws)
            )
            strips.append(
                Rect(rect.xlo - ws, rect.yhi + ws, rect.xhi + ws, rect.yhi + ws + wc)
            )
        else:
            strips.append(
                Rect(rect.xlo - ws - wc, rect.ylo - ws, rect.xlo - ws, rect.yhi + ws)
            )
            strips.append(
                Rect(rect.xhi + ws, rect.ylo - ws, rect.xhi + ws + wc, rect.yhi + ws)
            )
    return strips


def _merge_close_cores(
    core_raw: Bitmap,
    rules: DesignRules,
    resolution: int,
    keepout: Optional[Bitmap] = None,
) -> Bitmap:
    """Apply the merge technique: fuse core shapes closer than ``d_core``.

    Core-mask shapes below the ``d_core`` spacing rule cannot be drawn
    separately; the cut process merges them into one polygon and later
    separates the printed features with a cut (Fig. 2). Implemented by
    bridging every component pair whose boundary distance is below
    ``d_core`` with the lens between them, iterated to a fixpoint (merges
    can cascade through assist chains).

    Each pass measures only pairs whose bounding boxes are closer than
    ``d_core``, and builds each lens on crops around the two components;
    both shortcuts are exact (docs/PERFORMANCE.md, "Mask synthesis").
    """
    d_core_px = rules.d_core / resolution
    # A lens pixel lies within reach = gap + 1 < d_core_px + 1 of both
    # components, so per axis at most ceil(d_core_px) px from both boxes:
    # boxes grown by ``pad`` hold every lens pixel.
    pad = math.ceil(d_core_px) + 1
    data = core_raw.data.copy()
    eight = np.ones((3, 3), dtype=bool)
    for _ in range(8):  # fixpoint loop; real layouts converge in 1-2 passes
        labels, n = ndimage.label(data, structure=eight)
        if n <= 1:
            break
        # Boundary pixels of each component, gathered inside its box;
        # pixel boxes give exact boundary-to-boundary gaps (a pixel is a
        # res x res nm square).
        eroded = ndimage.binary_erosion(data, structure=eight)
        boundary = data & ~eroded
        boxes = ndimage.find_objects(labels)
        lo = np.array([[s.start for s in box] for box in boxes])
        hi = np.array([[s.stop - 1 for s in box] for box in boxes])
        coords = [
            np.argwhere(boundary[box] & (labels[box] == k + 1)) + lo[k]
            for k, box in enumerate(boxes)
        ]
        crops = {}  # component -> (grown box, distance transform on it)
        merged_any = False
        for i in range(n - 1):
            # Per axis every pixel pair is at least the box separation
            # apart, and the gap below rises with it: pairs whose boxes
            # are already d_core apart cannot merge.
            sep = np.maximum(
                np.maximum(lo[i + 1 :] - hi[i], lo[i] - hi[i + 1 :]) - 1, 0
            )
            near = np.sqrt((sep * sep).sum(axis=1)) < d_core_px
            for j in (np.flatnonzero(near) + i + 1).tolist():
                p = coords[i][:, None, :].astype(np.float64)
                q = coords[j][None, :, :].astype(np.float64)
                gap_axes = np.maximum(np.abs(p - q) - 1.0, 0.0)
                gaps = np.sqrt((gap_axes ** 2).sum(axis=2))
                gap_px = float(gaps.min())
                if gap_px >= d_core_px:
                    continue
                # Lens between the two components: pixels close to both
                # (centre-distance transforms, reach covering the gap).
                # A crop holds its whole component, so its distances
                # equal the full-window ones.
                for k in (i, j):
                    if k not in crops:
                        crop = _grown(boxes[k], pad, data.shape)
                        crops[k] = (
                            crop,
                            ndimage.distance_transform_edt(labels[crop] != k + 1),
                        )
                (crop_i, dt_i), (crop_j, dt_j) = crops[i], crops[j]
                # Every lens pixel lies in both crops (see ``pad``).
                both = tuple(
                    slice(max(a.start, b.start), min(a.stop, b.stop))
                    for a, b in zip(crop_i, crop_j)
                )
                reach = gap_px + 1.0
                bridge = (dt_i[_local(both, crop_i)] <= reach) & (
                    dt_j[_local(both, crop_j)] <= reach
                )
                if keepout is not None:
                    # Merged material keeps spacer clearance from second
                    # targets, like any other core material.
                    bridge &= ~keepout.data[both]
                if bridge.any():
                    data[both] |= bridge
                    merged_any = True
        if not merged_any:
            break
    out = Bitmap(core_raw.window, core_raw.resolution)
    out.data = data
    return out


def _grown(box: tuple, pad: int, shape: tuple) -> tuple:
    """``box`` (slices) grown by ``pad`` pixels per side, clipped to ``shape``."""
    return tuple(
        slice(max(s.start - pad, 0), min(s.stop + pad, size))
        for s, size in zip(box, shape)
    )


def _local(region: tuple, crop: tuple) -> tuple:
    """``region`` (slices inside ``crop``) in ``crop``'s own coordinates."""
    return tuple(slice(r.start - c.start, r.stop - c.start) for r, c in zip(region, crop))


def synthesize_masks(
    targets: Sequence[TargetPattern],
    rules: DesignRules,
    window: Optional[Rect] = None,
    resolution: int = DEFAULT_BITMAP_RESOLUTION_NM,
) -> MaskSet:
    """Run the full cut-process decomposition for a colored layout window."""
    targets = list(targets)
    with obs.span("synthesize_masks", targets=len(targets)):
        obs.counter_inc("mask_syntheses_total")
        return _synthesize_masks(targets, rules, window, resolution)


def _synthesize_masks(
    targets: List[TargetPattern],
    rules: DesignRules,
    window: Optional[Rect],
    resolution: int,
) -> MaskSet:
    if window is None:
        window = default_window(targets, rules)

    target_bmp = Bitmap(window, resolution)
    core_targets = Bitmap(window, resolution)
    second_targets = Bitmap(window, resolution)
    for pattern in targets:
        for rect in pattern.rects:
            target_bmp.fill(rect)
            if pattern.color is Color.CORE:
                core_targets.fill(rect)
            else:
                second_targets.fill(rect)

    # --- assist cores -------------------------------------------------- #
    assist = Bitmap(window, resolution)
    for pattern in targets:
        if pattern.color is not Color.SECOND:
            continue
        for strip in _assist_strips(pattern, rules):
            assist.fill(strip)
    # Assist material may coincide with CORE targets (then it *is* core),
    # but must keep w_spacer clearance from SECOND targets: spacer grown
    # from it would otherwise eat into the feature. With pixel-centre
    # dilation semantics a radius of exactly w_spacer removes material
    # whose *boundary* gap is below w_spacer and keeps exactly-w_spacer
    # placements (the intended abutting-spacer geometry).
    forbidden = second_targets.dilate(rules.w_spacer)
    assist = assist - forbidden

    # --- core mask with merging ---------------------------------------- #
    core_raw = core_targets | assist
    core_mask = _merge_close_cores(core_raw, rules, resolution, keepout=forbidden)
    # Merging may not create material over SECOND targets (that would be a
    # decomposition failure; the verifier reports it).
    bridge_over_second = (core_mask - core_raw) & second_targets
    core_mask = core_mask - bridge_over_second

    # --- spacer --------------------------------------------------------- #
    spacer = core_mask.dilate(rules.w_spacer) - core_mask

    # --- cut mask -------------------------------------------------------- #
    printable = ~spacer
    unwanted = printable - target_bmp
    cut_mask = (unwanted.dilate(rules.d_overlap) & (unwanted | spacer))

    printed = (~spacer) - cut_mask

    return MaskSet(
        window=window,
        resolution=resolution,
        rules=rules,
        targets=targets,
        target_bmp=target_bmp,
        core_targets=core_targets,
        assist=assist,
        core_mask=core_mask,
        spacer=spacer,
        cut_mask=cut_mask,
        printed=printed,
    )
