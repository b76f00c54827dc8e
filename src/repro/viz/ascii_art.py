"""ASCII rendering of routed grids (Figs. 21-22 style, in a terminal)."""

from __future__ import annotations

from typing import Dict, Optional

from ..color import Color
from ..grid import CellState, RoutingGrid

#: Glyph cycle for nets when no coloring is supplied.
_NET_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyz"


def render_layer(
    grid: RoutingGrid,
    layer: int,
    coloring: Optional[Dict[int, Color]] = None,
) -> str:
    """Render one layer's occupancy.

    Without a coloring, each net shows as a cycling glyph; with one, CORE
    nets print ``C``, SECOND nets ``s``, uncolored nets ``?``. Blockages
    are ``#`` and free cells ``.``; y grows upward, as in the figures.
    """
    from ..geometry import Point

    rows = []
    for y in range(grid.height - 1, -1, -1):
        row = []
        for x in range(grid.width):
            owner = grid.owner(layer, Point(x, y))
            if owner == int(CellState.FREE):
                row.append(".")
            elif owner == int(CellState.BLOCKED):
                row.append("#")
            elif coloring is None:
                row.append(_NET_GLYPHS[owner % len(_NET_GLYPHS)])
            else:
                color = coloring.get(owner)
                if color is Color.CORE:
                    row.append("C")
                elif color is Color.SECOND:
                    row.append("s")
                else:
                    row.append("?")
        rows.append("".join(row))
    return "\n".join(rows)
