"""Minimal SVG writer for layouts and mask sets (no dependencies).

Renders nm-coordinate rectangles into standalone ``.svg`` files — used by
the Fig. 21/22 benches and the decomposition-gallery example to produce
inspectable images of core masks, spacers, cuts and printed features.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..color import Color
from ..geometry import Rect

#: Default layer styling: fill color and opacity.
MASK_STYLES: Dict[str, Tuple[str, float]] = {
    "target": ("#222222", 0.25),
    "core": ("#1f77b4", 0.85),
    "assist": ("#9edae5", 0.85),
    "spacer": ("#bbbbbb", 0.6),
    "cut": ("#d62728", 0.75),
    "second": ("#2ca02c", 0.85),
    "overlay": ("#ff00ff", 0.9),
}


class SvgCanvas:
    """Accumulates rectangles and writes an SVG (y flipped to point up)."""

    def __init__(self, viewbox: Rect, scale: float = 0.5) -> None:
        self.viewbox = viewbox
        self.scale = scale
        self._shapes: List[str] = []

    def add_rect(
        self,
        rect: Rect,
        fill: str,
        opacity: float = 1.0,
        stroke: Optional[str] = None,
        title: Optional[str] = None,
    ) -> None:
        s = self.scale
        x = (rect.xlo - self.viewbox.xlo) * s
        # Flip y so larger y draws higher, as in the paper's figures.
        y = (self.viewbox.yhi - rect.yhi) * s
        w, h = rect.width * s, rect.height * s
        stroke_attr = f' stroke="{stroke}" stroke-width="0.5"' if stroke else ""
        body = f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" fill="{fill}" fill-opacity="{opacity}"{stroke_attr}'
        if title:
            self._shapes.append(f"{body}><title>{title}</title></rect>")
        else:
            self._shapes.append(body + "/>")

    def add_layer(
        self, rects: Iterable[Rect], style: str, title: Optional[str] = None
    ) -> None:
        fill, opacity = MASK_STYLES.get(style, ("#000000", 1.0))
        for rect in rects:
            self.add_rect(rect, fill, opacity, title=title or style)

    def to_string(self) -> str:
        w = self.viewbox.width * self.scale
        h = self.viewbox.height * self.scale
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
            f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">',
            f'<rect width="{w:.0f}" height="{h:.0f}" fill="white"/>',
        ]
        parts.extend(self._shapes)
        parts.append("</svg>")
        return "\n".join(parts)

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_string())
        return path


def _bitmap_rects(bitmap, value=True) -> List[Rect]:
    """Convert a Bitmap into row-run rectangles (compact, exact)."""
    import numpy as np

    res = bitmap.resolution
    window = bitmap.window
    rects: List[Rect] = []
    data = bitmap.data
    for iy in range(data.shape[1]):
        col = data[:, iy]
        if not col.any():
            continue
        padded = np.concatenate(([False], col, [False]))
        diff = np.diff(padded.astype(np.int8))
        starts = np.flatnonzero(diff == 1)
        ends = np.flatnonzero(diff == -1)
        y0 = window.ylo + iy * res
        for s, e in zip(starts, ends):
            rects.append(
                Rect(window.xlo + int(s) * res, y0, window.xlo + int(e) * res, y0 + res)
            )
    return rects


def render_masks_svg(masks, path: Union[str, Path], scale: float = 0.5) -> Path:
    """Render a cut-process MaskSet: core, assist, spacer, cut, targets."""
    canvas = SvgCanvas(masks.window, scale=scale)
    canvas.add_layer(_bitmap_rects(masks.spacer), "spacer")
    canvas.add_layer(_bitmap_rects(masks.core_targets), "core")
    canvas.add_layer(_bitmap_rects(masks.assist), "assist")
    canvas.add_layer(_bitmap_rects(masks.merged_bridges()), "overlay", title="merge bridge")
    canvas.add_layer(_bitmap_rects(masks.cut_mask), "cut")
    for pattern in masks.targets:
        style = "core" if pattern.color is Color.CORE else "second"
        for rect in pattern.rects:
            canvas.add_rect(rect, "none", 0.0, stroke="#000000", title=f"net {pattern.net_id} ({style})")
    return canvas.write(path)


def render_routing_svg(
    grid,
    colorings: Dict[int, Dict[int, Color]],
    path: Union[str, Path],
    layer: int = 0,
    scale: float = 0.25,
) -> Path:
    """Render one routed layer with per-net colors in nm space."""
    import numpy as np

    from ..geometry import Point

    pitch = grid.rules.pitch
    half = grid.rules.w_line // 2
    window = Rect(-pitch, -pitch, grid.width * pitch + pitch, grid.height * pitch + pitch)
    canvas = SvgCanvas(window, scale=scale)
    coloring = colorings.get(layer, {})
    for x in range(grid.width):
        for y in range(grid.height):
            owner = grid.owner(layer, Point(x, y))
            if owner < 0:
                continue
            rect = Rect(
                x * pitch - half, y * pitch - half, x * pitch + half, y * pitch + half
            )
            style = "core" if coloring.get(owner) is Color.CORE else "second"
            canvas.add_layer([rect], style, title=f"net {owner}")
    return canvas.write(path)
