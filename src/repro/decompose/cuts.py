"""Bitmap-level cut-conflict detection (Section II-B, Fig. 5).

MRC violations of the cut mask only matter **over a target pattern**:

* **min width** — a cut region narrower than ``w_cut`` hugging a target
  boundary: the printed cut distorts the adjacent feature;
* **min distance** — two cut regions closer than ``d_cut`` with target
  material between them (the type B signature: both flanks of a
  ``w_line`` wire cut-defined — the wire, at 20 nm, is thinner than the
  30 nm cut spacing rule).

Violations whose evidence lies over spacer are ignored, per Ma et al.
[12]: the irregular printed cut merges over sacrificial material and the
features stay intact.

Implementation notes. Width is measured with directional line openings
(a feature at least ``w_cut`` long in some direction survives); distance
is measured with a morphological closing at ``d_cut/2`` — material the
closing *adds* is exactly the region between cuts closer than ``d_cut``,
and any of it landing on a target is a violation. Both use the shift
kernel of :mod:`.bitmap`. Small pixel-wedge artefacts at rounded spacer
corners are filtered by an evidence-area threshold of about one
``w_cut`` square. Evidence regions are labelled once; each region's size
and centroid are read inside its ``find_objects`` box, so the scan costs
what the regions cover, not one window per region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy import ndimage

from .bitmap import close_disc, dilate_box, open_line
from .masks import MaskSet


@dataclass(frozen=True)
class BitmapCutConflict:
    """One physical cut conflict found in a decomposed window."""

    kind: str  # 'min_width' or 'min_distance'
    evidence_px: int  # size of the violating region, in pixels
    location_nm: Tuple[int, int]  # centroid of the violating region


def find_cut_conflicts(
    masks: MaskSet, min_evidence_px: int = None
) -> List[BitmapCutConflict]:
    """All cut conflicts over target patterns in one decomposed window."""
    res = masks.resolution
    rules = masks.rules
    if min_evidence_px is None:
        # Half a w_cut x w_cut square of evidence, to reject the single
        # pixel wedges that rounded spacer corners produce.
        min_evidence_px = max((rules.w_cut // res) ** 2 // 2, 2)

    cut = masks.cut_mask.data
    target = masks.target_bmp.data
    if not cut.any():
        return []

    # --- minimum width ---------------------------------------------------
    # A cut pixel is wide enough if a w_cut-long line fits through it in
    # either axis direction; everything else is narrow. Narrow material
    # directly against a target boundary is a violation.
    w_px = max(rules.w_cut // res, 1)
    wide = open_line(cut, w_px, 0) | open_line(cut, w_px, 1)
    narrow = cut & ~wide & dilate_box(target, 1, 1)
    conflicts = _regions("min_width", narrow, min_evidence_px, masks)

    # --- minimum distance --------------------------------------------------
    # Closing at d_cut/2 fills any gap between cut material narrower than
    # d_cut; filled material over a target is the violation region.
    r_px = max(rules.d_cut // (2 * res), 1)
    bridges = close_disc(cut, r_px) & ~cut & target
    conflicts += _regions("min_distance", bridges, min_evidence_px, masks)
    return conflicts


def _regions(
    kind: str, evidence: np.ndarray, min_evidence_px: int, masks: MaskSet
) -> List[BitmapCutConflict]:
    """One conflict per 8-connected evidence region of at least
    ``min_evidence_px`` pixels, in label order.

    A region lies inside its ``find_objects`` box, so the box-local
    pixels plus the box offset are the window's pixels of that label in
    the same order, and the centroid sums the same integers.
    """
    labels, _ = ndimage.label(evidence, structure=np.ones((3, 3), dtype=bool))
    res, window = masks.resolution, masks.window
    conflicts = []
    for label, box in enumerate(ndimage.find_objects(labels), start=1):
        xs, ys = np.nonzero(labels[box] == label)
        if xs.size >= min_evidence_px:
            conflicts.append(
                BitmapCutConflict(
                    kind=kind,
                    evidence_px=int(xs.size),
                    location_nm=(
                        window.xlo + int((xs + box[0].start).mean()) * res,
                        window.ylo + int((ys + box[1].start).mean()) * res,
                    ),
                )
            )
    return conflicts
