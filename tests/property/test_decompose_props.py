"""Property-based tests on the bitmap decomposition invariants."""

import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.color import Color
from repro.decompose import (
    TargetPattern,
    routing_to_targets,
    synthesize_masks,
    verify_decomposition,
)
from repro.decompose import masks as masks_module
from repro.decompose import verify as verify_module
from repro.decompose.bitmap import (
    Bitmap,
    close_disc,
    dilate_box,
    dilate_disc,
    disc,
    erode_box,
    erode_disc,
    open_line,
)
from repro.decompose.cuts import BitmapCutConflict, find_cut_conflicts
from repro.decompose.masks import MaskSet, _merge_close_cores
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
# Morphology: the shift kernel against scipy's binary morphology
# --------------------------------------------------------------------- #


@st.composite
def raw_bitmaps(draw):
    """Random boolean arrays of 1-24 px a side, many smaller than a
    radius-7 disc (15 px), half of them with every border pixel set."""
    w, h = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.random((w, h)) < draw(st.sampled_from([0.05, 0.3, 0.6, 0.95]))
    if draw(st.booleans()):
        data[[0, -1], :] = True
        data[:, [0, -1]] = True
    return data


SQUARE = np.ones((3, 3), dtype=bool)
KERNEL_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestKernelMatchesScipy:
    @KERNEL_SETTINGS
    @given(raw_bitmaps(), st.integers(0, 7))
    def test_disc_dilation_and_erosion(self, data, radius):
        structure = disc(radius)
        assert np.array_equal(
            dilate_disc(data, radius), ndimage.binary_dilation(data, structure)
        )
        assert np.array_equal(
            erode_disc(data, radius), ndimage.binary_erosion(data, structure)
        )

    @KERNEL_SETTINGS
    @given(raw_bitmaps(), st.integers(0, 7))
    def test_padded_closing(self, data, radius):
        structure = disc(radius)
        padded = np.pad(data, radius)
        closed = ndimage.binary_erosion(
            ndimage.binary_dilation(padded, structure), structure
        )
        w, h = data.shape
        expected = closed[radius : radius + w, radius : radius + h]
        assert np.array_equal(close_disc(data, radius), expected)

    @KERNEL_SETTINGS
    @given(raw_bitmaps())
    def test_square(self, data):
        assert np.array_equal(dilate_box(data, 1, 1), ndimage.binary_dilation(data, SQUARE))
        assert np.array_equal(erode_box(data, 1, 1), ndimage.binary_erosion(data, SQUARE))

    @KERNEL_SETTINGS
    @given(raw_bitmaps(), st.integers(1, 6))
    def test_line_opening(self, data, length):
        along_0 = np.ones((length, 1), dtype=bool)
        along_1 = np.ones((1, length), dtype=bool)
        assert np.array_equal(open_line(data, length, 0), ndimage.binary_opening(data, along_0))
        assert np.array_equal(open_line(data, length, 1), ndimage.binary_opening(data, along_1))


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


# Reference cut check: scipy morphology and one window-sized mask per
# label, with the disc closing built in place. The production check must
# report the same conflicts in the same order.
def _find_cut_conflicts_oracle(masks: MaskSet, min_evidence_px: int = None):
    res = masks.resolution
    rules = masks.rules
    if min_evidence_px is None:
        min_evidence_px = max((rules.w_cut // res) ** 2 // 2, 2)
    cut = masks.cut_mask.data
    target = masks.target_bmp.data
    conflicts = []
    if not cut.any():
        return conflicts
    eight = np.ones((3, 3), dtype=bool)

    def regions(kind, evidence):
        labels, n = ndimage.label(evidence, structure=eight)
        for i in range(1, n + 1):
            region = labels == i
            size = int(region.sum())
            if size >= min_evidence_px:
                xs, ys = np.nonzero(region)
                location = (
                    masks.window.xlo + int(xs.mean()) * res,
                    masks.window.ylo + int(ys.mean()) * res,
                )
                conflicts.append(BitmapCutConflict(kind, size, location))

    w_px = max(rules.w_cut // res, 1)
    wide = ndimage.binary_opening(cut, structure=np.ones((w_px, 1), dtype=bool)) | (
        ndimage.binary_opening(cut, structure=np.ones((1, w_px), dtype=bool))
    )
    regions("min_width", cut & ~wide & ndimage.binary_dilation(target, structure=eight))
    r_px = max(rules.d_cut // (2 * res), 1)
    span = np.arange(-r_px, r_px + 1)
    xx, yy = np.meshgrid(span, span)
    structure = (xx * xx + yy * yy) <= r_px * r_px
    padded = np.pad(cut, r_px, mode="constant")
    closed = ndimage.binary_erosion(
        ndimage.binary_dilation(padded, structure=structure), structure=structure
    )[r_px:-r_px, r_px:-r_px]
    regions("min_distance", closed & ~cut & target)
    return conflicts


def _dilate_oracle(self: Bitmap, nm: int) -> Bitmap:
    """``Bitmap.dilate`` on scipy's binary dilation."""
    r = self.px_radius(nm)
    if r == 0 or not self.data.any():
        return self.copy()
    return Bitmap(
        self.window, self.resolution, ndimage.binary_dilation(self.data, structure=disc(r))
    )


MASK_NAMES = (
    "target_bmp", "core_targets", "assist", "core_mask", "spacer", "cut_mask", "printed",
)


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
        """Every layer of two routed Test1@0.15 designs decomposes and
        verifies alike: all seven masks and the whole report, every
        ``EdgeOverlay`` and ``BitmapCutConflict`` in order."""
        grid, nets = generate_benchmark(spec_by_name("Test1"), scale=0.15, seed=seed)
        result = SadpRouter(grid, nets).route_all()
        layers = [routing_to_targets(grid, result, layer) for layer in range(grid.num_layers)]
        assert all(layers)
        fast = [synthesize_masks(targets, grid.rules) for targets in layers]
        fast_reports = [verify_decomposition(masks) for masks in fast]
        monkeypatch.setattr(masks_module, "_merge_close_cores", _merge_close_cores_oracle)
        monkeypatch.setattr(Bitmap, "dilate", _dilate_oracle)
        monkeypatch.setattr(verify_module, "find_cut_conflicts", _find_cut_conflicts_oracle)
        slow = [synthesize_masks(targets, grid.rules) for targets in layers]
        slow_reports = [verify_decomposition(masks) for masks in slow]
        for a, b in zip(fast, slow):
            for name in MASK_NAMES:
                assert np.array_equal(getattr(a, name).data, getattr(b, name).data), name
        for a, b in zip(fast_reports, slow_reports):
            assert a.overlay.edges == b.overlay.edges
            assert a.cut_conflicts == b.cut_conflicts
            assert a == b
        # The designs exercise the merge itself, not only the pruning,
        # and the cut check finds conflicts to compare.
        assert sum(masks.merged_bridges().count() for masks in fast) > 0
        assert sum(len(report.cut_conflicts) for report in fast_reports) > 0


@st.composite
def cut_layouts(draw):
    """A MaskSet holding only what the cut check reads, on a small 5 nm/px
    window (w_cut is 4 px, the d_cut/2 closing 3 px): 2-14 target
    rectangles of 1-12 px and 2-24 cut rectangles of 1-5 px, placed
    anywhere, over the window edge included, with cut cleared off target.
    Narrow cuts hug targets, and cuts sit closer than d_cut across them."""
    res = 5
    w, h = draw(st.integers(4, 48)), draw(st.integers(4, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planes = []
    for count, size in ((draw(st.integers(2, 14)), 12), (draw(st.integers(2, 24)), 5)):
        plane = np.zeros((w, h), dtype=bool)
        for _ in range(count):
            x0, y0 = rng.integers(-2, w), rng.integers(-2, h)
            x1, y1 = x0 + rng.integers(1, size + 1), y0 + rng.integers(1, size + 1)
            plane[max(x0, 0) : max(x1, 0), max(y0, 0) : max(y1, 0)] = True
        planes.append(plane)
    target, cut = planes[0], planes[1] & ~planes[0]
    window = Rect(-20, 40, -20 + w * res, 40 + h * res)
    empty = Bitmap(window, res)
    return MaskSet(
        window=window, resolution=res, rules=RULES, targets=[],
        target_bmp=Bitmap(window, res, target), core_targets=empty, assist=empty,
        core_mask=empty, spacer=empty, cut_mask=Bitmap(window, res, cut), printed=empty,
    )


class TestCutCheckMatchesOracle:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(cut_layouts(), st.sampled_from([None, 1, 3]))
    def test_random_cut_layouts(self, masks, min_evidence_px):
        """Below the default evidence floor (8 px here) min_width regions
        show up too; the default run checks the floor itself."""
        assert find_cut_conflicts(masks, min_evidence_px) == _find_cut_conflicts_oracle(
            masks, min_evidence_px
        )
