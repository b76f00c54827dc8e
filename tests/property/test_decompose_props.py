"""Property-based tests on the bitmap decomposition invariants."""

import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.color import Color
from repro.decompose import (
    TargetPattern,
    routing_to_targets,
    synthesize_masks,
    verify_decomposition,
)
from repro.decompose import masks as masks_module
from repro.decompose.bitmap import Bitmap
from repro.decompose.masks import _merge_close_cores
from repro.geometry import Rect
from repro.router import SadpRouter
from repro.rules import DesignRules

RULES = DesignRules()
PITCH = RULES.pitch
HALF = RULES.w_line // 2

track = st.integers(min_value=0, max_value=10)
span = st.integers(min_value=1, max_value=8)
color = st.sampled_from([Color.CORE, Color.SECOND])


@st.composite
def wire_layouts(draw):
    """1-3 horizontal wires on distinct tracks (always manufacturable-ish)."""
    count = draw(st.integers(1, 3))
    tracks = draw(
        st.lists(track, min_size=count, max_size=count, unique=True)
    )
    wires = []
    for i, yt in enumerate(tracks):
        x0 = draw(st.integers(0, 4))
        run = draw(span)
        rect = Rect(
            x0 * PITCH - HALF,
            yt * PITCH - HALF,
            (x0 + run) * PITCH + HALF,
            yt * PITCH + HALF,
        )
        wires.append(TargetPattern.wire(i, rect, draw(color)))
    return wires


class TestMaskInvariants:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(wire_layouts())
    def test_mask_set_is_consistent(self, wires):
        masks = synthesize_masks(wires, RULES)
        # Spacer never overlaps core material (it wraps it).
        assert not (masks.spacer & masks.core_mask).any
        # The cut mask never covers target features.
        assert not (masks.cut_mask & masks.target_bmp).any
        # Whatever prints is disjoint from spacer and cut by construction.
        assert not (masks.printed & masks.spacer).any
        assert not (masks.printed & masks.cut_mask).any
        # Assist material is always inside the core mask (possibly merged),
        # minus the parts clipped against second-target clearance.
        assert not (masks.assist - masks.core_mask).any

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(wire_layouts())
    def test_core_targets_always_print(self, wires):
        masks = synthesize_masks(wires, RULES)
        core_missing = (masks.core_targets - masks.printed).count()
        assert core_missing == 0

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(wire_layouts())
    def test_verifier_never_crashes_and_reports_sanely(self, wires):
        report = verify_decomposition(synthesize_masks(wires, RULES))
        assert report.missing_target_px >= 0
        assert report.overlay.side_overlay_nm >= 0
        assert report.overlay.tip_overlay_nm >= 0
        # Hard overlays only exist where side overlay exists.
        if report.overlay.hard_overlay_count:
            assert report.overlay.side_overlay_nm > RULES.w_line


# --------------------------------------------------------------------- #
# Core merging: the box-pruned, cropped merge against the all-pairs one
# --------------------------------------------------------------------- #


# Reference: every component pair measured densely, every lens built on
# full-window distance transforms. The production merge must equal it.
def _merge_close_cores_oracle(
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
    """
    import numpy as np
    from scipy import ndimage

    d_core_px = rules.d_core / resolution
    data = core_raw.data.copy()
    eight = np.ones((3, 3), dtype=bool)
    for _ in range(8):  # fixpoint loop; real layouts converge in 1-2 passes
        labels, n = ndimage.label(data, structure=eight)
        if n <= 1:
            break
        # Boundary pixels of each component; pixel boxes give exact
        # boundary-to-boundary gaps (a pixel is a res x res nm square).
        eroded = ndimage.binary_erosion(data, structure=eight)
        boundary = data & ~eroded
        coords = [
            np.argwhere(boundary & (labels == i)) for i in range(1, n + 1)
        ]
        dts = None
        merged_any = False
        for i in range(n):
            if coords[i].size == 0:
                continue
            for j in range(i + 1, n):
                if coords[j].size == 0:
                    continue
                p = coords[i][:, None, :].astype(np.float64)
                q = coords[j][None, :, :].astype(np.float64)
                gap_axes = np.maximum(np.abs(p - q) - 1.0, 0.0)
                gaps = np.sqrt((gap_axes ** 2).sum(axis=2))
                gap_px = float(gaps.min())
                if gap_px >= d_core_px:
                    continue
                # Lens between the two components: pixels close to both
                # (centre-distance transforms, reach covering the gap).
                if dts is None:
                    dts = {}
                for k in (i, j):
                    if k not in dts:
                        dts[k] = ndimage.distance_transform_edt(labels != k + 1)
                reach = gap_px + 1.0
                bridge = (dts[i] <= reach) & (dts[j] <= reach)
                if keepout is not None:
                    # Merged material keeps spacer clearance from second
                    # targets, like any other core material.
                    bridge &= ~keepout.data
                if bridge.any():
                    data |= bridge
                    merged_any = True
        if not merged_any:
            break
    out = Bitmap(core_raw.window, core_raw.resolution)
    out.data = data
    return out


@st.composite
def core_bitmaps(draw):
    """(core, keepout, resolution): many small rectangles on a small window.

    Resolutions 4, 5 and 10 nm/px put ``d_core`` at 7.5, 6 and 3 px. Half
    the rectangles sit next to the previous one, along an axis or
    diagonally, at a gap from touching to past ``d_core``; the rest land
    anywhere, over the window edge included. The optional keepout is
    random speckle.
    """
    res = draw(st.sampled_from([4, 5, 10]))
    d_px = RULES.d_core / res
    w, h = draw(st.integers(8, 48)), draw(st.integers(8, 48))
    data = np.zeros((w, h), dtype=bool)
    prev = None
    for _ in range(draw(st.integers(2, 14))):
        rw, rh = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        if prev is not None and draw(st.booleans()):
            # gap = empty pixels between the boxes along each moved axis
            gap = draw(st.integers(0, math.ceil(d_px) + 2))
            dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (-1, -1)]))
            px0, py0, px1, py1 = prev
            x0 = {1: px1 + gap, 0: px0, -1: px0 - gap - rw}[dx]
            y0 = {1: py1 + gap, 0: py0, -1: py0 - gap - rh}[dy]
        else:
            x0, y0 = draw(st.integers(-4, w - 1)), draw(st.integers(-4, h - 1))
        prev = (x0, y0, x0 + rw, y0 + rh)
        data[max(x0, 0) : max(x0 + rw, 0), max(y0, 0) : max(y0 + rh, 0)] = True
    window = Rect(0, 0, w * res, h * res)
    core = Bitmap(window, res, data)
    keepout = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        density = draw(st.sampled_from([0.02, 0.1, 0.3]))
        keepout = Bitmap(window, res, rng.random((w, h)) < density)
    return core, keepout, res


class TestMergeMatchesOracle:
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(core_bitmaps())
    def test_random_core_bitmaps(self, case):
        core, keepout, res = case
        fast = _merge_close_cores(core, RULES, res, keepout=keepout)
        slow = _merge_close_cores_oracle(core, RULES, res, keepout=keepout)
        assert np.array_equal(fast.data, slow.data)

    @pytest.mark.parametrize("seed", [2014, 2015])
    def test_routed_designs(self, seed, monkeypatch):
        """Every layer of two routed Test1@0.15 designs decomposes alike."""
        grid, nets = generate_benchmark(spec_by_name("Test1"), scale=0.15, seed=seed)
        result = SadpRouter(grid, nets).route_all()
        layers = [routing_to_targets(grid, result, layer) for layer in range(grid.num_layers)]
        assert all(layers)
        fast = [synthesize_masks(targets, grid.rules) for targets in layers]
        monkeypatch.setattr(masks_module, "_merge_close_cores", _merge_close_cores_oracle)
        slow = [synthesize_masks(targets, grid.rules) for targets in layers]
        for a, b in zip(fast, slow):
            for name in ("core_mask", "cut_mask", "printed"):
                assert np.array_equal(getattr(a, name).data, getattr(b, name).data), name
        # The designs exercise the merge itself, not only the pruning.
        assert sum(masks.merged_bridges().count() for masks in fast) > 0
