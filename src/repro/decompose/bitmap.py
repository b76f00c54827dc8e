"""Boolean raster canvas with morphology, in nm coordinates.

The decomposition engine rasterises mask layers at a fixed resolution
(default 5 nm/px, which divides every 10 nm-node rule exactly). A
:class:`Bitmap` wraps a numpy boolean array plus the affine transform
between nm coordinates and pixels, and provides the Euclidean-disc
morphology (dilate / erode / close) that models isotropic spacer
deposition and core-merge rules.

Morphology is one shift-based kernel on plain arrays, which equals
``scipy.ndimage``'s binary dilation, erosion and opening with their
zero border (docs/PERFORMANCE.md, "Mask synthesis"). A centred box is
separable: dilation ORs, and erosion ANDs, shifted slices along one axis
and then the other, reading pixels outside the array as clear. A disc is
the union of the centred boxes read off :func:`disc`'s rows, so its
dilation is the OR of those boxes' dilations and its erosion the AND of
their erosions; both are accumulated one row offset at a time.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np
from scipy import ndimage

from ..errors import GeometryError
from ..geometry import Rect
from ..units import DEFAULT_BITMAP_RESOLUTION_NM


def disc(radius_px: int) -> np.ndarray:
    """Euclidean disc structuring element of the given pixel radius."""
    if radius_px < 0:
        raise GeometryError(f"disc radius must be >= 0, got {radius_px}")
    if radius_px == 0:
        return np.ones((1, 1), dtype=bool)
    span = np.arange(-radius_px, radius_px + 1)
    xx, yy = np.meshgrid(span, span)
    return (xx * xx + yy * yy) <= radius_px * radius_px


# ---------------------------------------------------------------------- #
# Shift-based morphology kernel
# ---------------------------------------------------------------------- #


def _shift_into(out: np.ndarray, data: np.ndarray, axis: int, s: int, erode: bool) -> None:
    """``out[i] |= data[i + s]`` along ``axis`` (``&=`` when ``erode``).

    Pixels past the array's edge read as clear: erosion clears the ``|s|``
    pixels whose partner lies outside, dilation leaves them.
    """
    o, d = (out, data) if axis == 0 else (out.T, data.T)
    n = d.shape[0]
    k = min(abs(s), n)
    if s > 0:
        dst, src, edge = o[: n - k], d[k:], o[n - k :]
    else:
        dst, src, edge = o[k:], d[: n - k], o[:k]
    if erode:
        dst &= src
        edge[...] = False
    else:
        dst |= src


def _segment(data: np.ndarray, axis: int, lo: int, hi: int, erode: bool) -> np.ndarray:
    """OR (AND when ``erode``) of ``data`` shifted by every offset in
    ``lo..hi`` along ``axis``; the range holds 0."""
    out = data.copy()
    for s in range(lo, hi + 1):
        if s:
            _shift_into(out, data, axis, s, erode)
    return out


def _disc(data: np.ndarray, radius: int, erode: bool) -> np.ndarray:
    """Dilation (erosion when ``erode``) by ``disc(radius)``.

    Row ``k`` of the disc spans ``half[k]`` px either side along axis 1,
    so the disc is the union of the boxes ``(k, half[k])``. With ``S_k``
    the row pass over ``half[k]`` and ``Y`` the one-pixel pass along axis
    0, ``acc_k = Y(acc_{k+1}) op S_k`` ends at the union's result, because
    ``Y`` applied ``k`` times is the ``k``-pixel pass and distributes over
    ``op``. ``half`` rises as ``k`` falls, so one running row pass serves
    every ``S_k``.
    """
    join = np.logical_and if erode else np.logical_or
    half = disc(radius).sum(axis=1)[radius:] // 2
    acc = data.copy()  # row ``radius`` is the disc's one pixel there
    row = data.copy()  # data over [-width, width] along axis 1
    width = 0
    for k in range(radius - 1, -1, -1):
        while width < half[k]:
            width += 1
            _shift_into(row, data, 1, width, erode)
            _shift_into(row, data, 1, -width, erode)
        acc = join(_segment(acc, 0, -1, 1, erode), row)
    return acc


def dilate_disc(data: np.ndarray, radius: int) -> np.ndarray:
    """``binary_dilation(data, disc(radius))``."""
    return _disc(data, radius, erode=False)


def erode_disc(data: np.ndarray, radius: int) -> np.ndarray:
    """``binary_erosion(data, disc(radius))``: the zero border erodes
    pixels within ``radius`` of the edge."""
    return _disc(data, radius, erode=True)


def close_disc(data: np.ndarray, radius: int) -> np.ndarray:
    """Closing by ``disc(radius)`` as if the plane beyond ``data`` were
    clear: padding by ``radius`` keeps the erosion's border away from
    everything the dilation grew."""
    w, h = data.shape
    closed = erode_disc(dilate_disc(np.pad(data, radius), radius), radius)
    return closed[radius : radius + w, radius : radius + h]


def dilate_box(data: np.ndarray, half0: int, half1: int) -> np.ndarray:
    """Dilation by the centred ``(2*half0+1) x (2*half1+1)`` box; the 3x3
    square is ``(1, 1)``."""
    return _segment(_segment(data, 1, -half1, half1, False), 0, -half0, half0, False)


def erode_box(data: np.ndarray, half0: int, half1: int) -> np.ndarray:
    """Erosion by the centred ``(2*half0+1) x (2*half1+1)`` box."""
    return _segment(_segment(data, 1, -half1, half1, True), 0, -half0, half0, True)


def open_line(data: np.ndarray, length: int, axis: int) -> np.ndarray:
    """Opening by a ``length``-px line along ``axis``: every run of at
    least ``length`` set pixels along that axis, and nothing else."""
    starts = _segment(data, axis, 0, length - 1, erode=True)  # a line fits from here
    return _segment(starts, axis, 1 - length, 0, erode=False)


class Bitmap:
    """A boolean image over a window of the nm plane.

    ``origin`` is the nm coordinate of pixel (0, 0); indexing is
    ``mask[ix, iy]`` with x = column-like first axis for symmetry with the
    rest of the library. All bitmaps participating in one decomposition
    share the same window and resolution.
    """

    def __init__(
        self,
        window: Rect,
        resolution: int = DEFAULT_BITMAP_RESOLUTION_NM,
        data: Optional[np.ndarray] = None,
    ) -> None:
        if resolution <= 0:
            raise GeometryError(f"resolution must be positive, got {resolution}")
        if (window.width % resolution) or (window.height % resolution):
            raise GeometryError(
                f"window {window} is not a multiple of resolution {resolution}"
            )
        self.window = window
        self.resolution = resolution
        shape = (window.width // resolution, window.height // resolution)
        if data is None:
            self.data = np.zeros(shape, dtype=bool)
        else:
            if data.shape != shape:
                raise GeometryError(f"data shape {data.shape} != window shape {shape}")
            self.data = data.astype(bool)

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #

    def _to_px(self, rect: Rect) -> Tuple[int, int, int, int]:
        res = self.resolution
        xlo = (rect.xlo - self.window.xlo) // res
        ylo = (rect.ylo - self.window.ylo) // res
        xhi = -(-(rect.xhi - self.window.xlo) // res)  # ceil division
        yhi = -(-(rect.yhi - self.window.ylo) // res)
        return xlo, ylo, xhi, yhi

    def px_radius(self, nm: int) -> int:
        """nm length -> pixel count (must divide exactly to avoid bias)."""
        if nm % self.resolution:
            raise GeometryError(
                f"{nm} nm is not a multiple of the {self.resolution} nm/px grid"
            )
        return nm // self.resolution

    # ------------------------------------------------------------------ #
    # Drawing
    # ------------------------------------------------------------------ #

    def fill(self, rect: Rect, value: bool = True) -> None:
        """Set all pixels of the nm rectangle (clipped to the window)."""
        xlo, ylo, xhi, yhi = self._to_px(rect)
        xlo, ylo = max(xlo, 0), max(ylo, 0)
        xhi = min(xhi, self.data.shape[0])
        yhi = min(yhi, self.data.shape[1])
        if xlo < xhi and ylo < yhi:
            self.data[xlo:xhi, ylo:yhi] = value

    @classmethod
    def from_rects(
        cls,
        window: Rect,
        rects: Iterable[Rect],
        resolution: int = DEFAULT_BITMAP_RESOLUTION_NM,
    ) -> "Bitmap":
        bmp = cls(window, resolution)
        for rect in rects:
            bmp.fill(rect)
        return bmp

    def _like(self, data: np.ndarray) -> "Bitmap":
        return Bitmap(self.window, self.resolution, data)

    # ------------------------------------------------------------------ #
    # Boolean algebra
    # ------------------------------------------------------------------ #

    def __or__(self, other: "Bitmap") -> "Bitmap":
        self._compatible(other)
        return self._like(self.data | other.data)

    def __and__(self, other: "Bitmap") -> "Bitmap":
        self._compatible(other)
        return self._like(self.data & other.data)

    def __sub__(self, other: "Bitmap") -> "Bitmap":
        self._compatible(other)
        return self._like(self.data & ~other.data)

    def __invert__(self) -> "Bitmap":
        return self._like(~self.data)

    def _compatible(self, other: "Bitmap") -> None:
        if self.window != other.window or self.resolution != other.resolution:
            raise GeometryError("bitmaps live on different windows/resolutions")

    def copy(self) -> "Bitmap":
        return self._like(self.data.copy())

    # ------------------------------------------------------------------ #
    # Morphology (Euclidean disc)
    # ------------------------------------------------------------------ #

    def dilate(self, nm: int) -> "Bitmap":
        return self._like(dilate_disc(self.data, self.px_radius(nm)))

    def erode(self, nm: int) -> "Bitmap":
        return self._like(erode_disc(self.data, self.px_radius(nm)))

    def close(self, nm: int) -> "Bitmap":
        """Morphological closing: fuses gaps strictly smaller than 2*nm."""
        return self._like(close_disc(self.data, self.px_radius(nm)))

    # ------------------------------------------------------------------ #
    # Measures
    # ------------------------------------------------------------------ #

    @property
    def any(self) -> bool:
        return bool(self.data.any())

    def area_nm2(self) -> int:
        return int(self.data.sum()) * self.resolution * self.resolution

    def count(self) -> int:
        return int(self.data.sum())

    def overlaps(self, other: "Bitmap") -> bool:
        self._compatible(other)
        return bool((self.data & other.data).any())

    def components(self) -> List[np.ndarray]:
        """Connected components (8-connectivity) as boolean arrays."""
        labels, n = ndimage.label(self.data, structure=np.ones((3, 3), dtype=bool))
        return [labels == i for i in range(1, n + 1)]

    def component_count(self) -> int:
        _, n = ndimage.label(self.data, structure=np.ones((3, 3), dtype=bool))
        return int(n)

    def sample(self, x_nm: int, y_nm: int) -> bool:
        """Value of the pixel containing the nm point (False outside)."""
        ix = (x_nm - self.window.xlo) // self.resolution
        iy = (y_nm - self.window.ylo) // self.resolution
        if 0 <= ix < self.data.shape[0] and 0 <= iy < self.data.shape[1]:
            return bool(self.data[ix, iy])
        return False

    def to_ascii(self, glyph: str = "#", empty: str = ".") -> str:
        """Debug rendering, y increasing upward."""
        rows = []
        for iy in range(self.data.shape[1] - 1, -1, -1):
            rows.append("".join(glyph if v else empty for v in self.data[:, iy]))
        return "\n".join(rows)
