"""Dependency-free visualisation: ASCII layout dumps and SVG rendering."""

from .ascii_art import render_layer
from .svg import SvgCanvas, render_masks_svg, render_routing_svg

__all__ = [
    "render_layer",
    "SvgCanvas",
    "render_masks_svg",
    "render_routing_svg",
]
