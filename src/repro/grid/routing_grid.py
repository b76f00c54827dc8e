"""The multi-layer occupancy grid.

A :class:`RoutingGrid` is a ``layers x width x height`` array of cells, each
free, blocked, or owned by a net. It knows nothing about overlay or colors —
that is the constraint graph's job — but it owns the nm geometry of a cell
(through a :class:`~repro.units.TrackGrid`) so that routed segments can be
lowered to physical shapes for decomposition.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import GridError
from ..geometry import Point, Rect, Segment
from ..rules import DesignRules
from ..units import TrackGrid
from .layer import Direction, RoutingLayer, default_layer_stack


class CellState(enum.IntEnum):
    """Sentinel occupancy values; non-negative values are net ids."""

    FREE = -1
    BLOCKED = -2


class RoutingGrid:
    """Grid routing plane with per-cell ownership.

    Parameters
    ----------
    width, height:
        Extent in tracks (grid points 0..width-1, 0..height-1).
    layers:
        The layer stack; defaults to three layers H-V-H.
    rules:
        Design rules; fixes the track pitch and wire width for the nm view.
    """

    def __init__(
        self,
        width: int,
        height: int,
        layers: Optional[Sequence[RoutingLayer]] = None,
        rules: Optional[DesignRules] = None,
    ) -> None:
        if width <= 0 or height <= 0:
            raise GridError(f"grid must be non-empty, got {width}x{height}")
        self.width = width
        self.height = height
        self.layers: List[RoutingLayer] = list(layers) if layers else default_layer_stack()
        if [l.index for l in self.layers] != list(range(len(self.layers))):
            raise GridError("layer indices must be 0..n-1 in order")
        self.rules = rules or DesignRules()
        self.track_grid = TrackGrid(
            pitch_nm=self.rules.pitch, wire_width_nm=self.rules.w_line
        )
        # occupancy[layer, x, y] = CellState or net id
        self._occ = np.full(
            (len(self.layers), width, height), int(CellState.FREE), dtype=np.int32
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def in_bounds(self, layer: int, p: Point) -> bool:
        return (
            0 <= layer < self.num_layers
            and 0 <= p.x < self.width
            and 0 <= p.y < self.height
        )

    def _check(self, layer: int, p: Point) -> None:
        if not self.in_bounds(layer, p):
            raise GridError(f"({layer}, {p}) outside {self.num_layers}x{self.width}x{self.height} grid")

    def owner(self, layer: int, p: Point) -> int:
        """Occupancy of a cell: CellState.FREE, CellState.BLOCKED, or a net id."""
        self._check(layer, p)
        return int(self._occ[layer, p.x, p.y])

    def is_free(self, layer: int, p: Point) -> bool:
        return self.owner(layer, p) == CellState.FREE

    def is_available(self, layer: int, p: Point, net_id: int) -> bool:
        """Free, or already owned by the same net (re-entrant paths are fine)."""
        owner = self.owner(layer, p)
        return owner == CellState.FREE or owner == net_id

    def utilization(self) -> float:
        """Fraction of cells that are owned or blocked."""
        used = int(np.count_nonzero(self._occ != int(CellState.FREE)))
        return used / self._occ.size

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def block(self, layer: int, rect: Rect) -> None:
        """Mark every cell of ``rect`` (track coords) on ``layer`` as blocked."""
        self._check(layer, Point(rect.xlo, rect.ylo))
        self._check(layer, Point(rect.xhi - 1, rect.yhi - 1))
        self._occ[layer, rect.xlo : rect.xhi, rect.ylo : rect.yhi] = int(
            CellState.BLOCKED
        )

    def occupy(self, layer: int, p: Point, net_id: int) -> None:
        if net_id < 0:
            raise GridError(f"net ids must be non-negative, got {net_id}")
        owner = self.owner(layer, p)
        if owner not in (int(CellState.FREE), net_id):
            raise GridError(f"cell ({layer}, {p}) already owned by net {owner}")
        self._occ[layer, p.x, p.y] = net_id

    def occupy_many(self, cells: Iterable, net_id: int) -> None:
        """Occupy many ``(layer, x, y)`` cells in one call.

        Equivalent to calling :meth:`occupy` per cell in order — including
        the duplicate/already-owned skip and the error raised on a foreign
        owner or an out-of-bounds cell, after the cells before it were
        written.
        """
        if net_id < 0:
            raise GridError(f"net ids must be non-negative, got {net_id}")
        occ = self._occ
        free = int(CellState.FREE)
        num_layers, width, height = self.num_layers, self.width, self.height
        for layer, x, y in cells:
            if not (0 <= layer < num_layers and 0 <= x < width and 0 <= y < height):
                raise GridError(
                    f"({layer}, {Point(int(x), int(y))}) outside "
                    f"{num_layers}x{width}x{height} grid"
                )
            owner = occ[layer, x, y]
            if owner == free:
                occ[layer, x, y] = net_id
            elif owner != net_id:
                raise GridError(
                    f"cell ({layer}, {Point(int(x), int(y))}) "
                    f"already owned by net {owner}"
                )

    def occupy_segment(self, seg: Segment, net_id: int) -> None:
        for p in seg.points():
            self.occupy(seg.layer, p, net_id)

    def release(self, layer: int, p: Point, net_id: int) -> None:
        """Free a cell owned by ``net_id`` (no-op when owned by someone else)."""
        if self.owner(layer, p) == net_id:
            self._occ[layer, p.x, p.y] = int(CellState.FREE)

    def release_net(self, net_id: int) -> int:
        """Free every cell owned by ``net_id``; returns the number released."""
        cells = self._cells_owned_by(net_id)
        self._occ[cells] = int(CellState.FREE)
        return int(cells[0].size)

    # ------------------------------------------------------------------ #
    # Geometry lowering
    # ------------------------------------------------------------------ #

    def segment_to_nm(self, seg: Segment) -> Rect:
        """Physical nm rectangle of a wire segment (centred, w_line wide)."""
        tg = self.track_grid
        half = tg.wire_width_nm // 2
        ax, ay = tg.track_center_nm(seg.a.x), tg.track_center_nm(seg.a.y)
        bx, by = tg.track_center_nm(seg.b.x), tg.track_center_nm(seg.b.y)
        return Rect(
            min(ax, bx) - half,
            min(ay, by) - half,
            max(ax, bx) + half,
            max(ay, by) + half,
        )

    def layer_direction(self, layer: int) -> Direction:
        if not 0 <= layer < self.num_layers:
            raise GridError(f"no layer {layer}")
        return self.layers[layer].direction

    def cells_of_net(self, net_id: int) -> Iterator[tuple]:
        """Yield (layer, Point) for every cell owned by ``net_id``."""
        layers, xs, ys = (axis.tolist() for axis in self._cells_owned_by(net_id))
        for layer, x, y in zip(layers, xs, ys):
            yield layer, Point(x, y)

    def _cells_owned_by(self, net_id: int) -> tuple:
        """(layers, xs, ys) index arrays of ``net_id``'s cells, row-major.

        ``np.argwhere`` on the 3-D grid costs ~10x more than a flat scan.
        """
        flat = np.flatnonzero(self._occ == net_id)
        return np.unravel_index(flat, self._occ.shape)

    def blocked_cells(self, layer: int) -> int:
        return int(np.count_nonzero(self._occ[layer] == int(CellState.BLOCKED)))

    def copy(self) -> "RoutingGrid":
        """Deep copy (occupancy included) — used by what-if searches."""
        clone = RoutingGrid(self.width, self.height, self.layers, self.rules)
        clone._occ = self._occ.copy()
        return clone
