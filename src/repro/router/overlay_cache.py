"""The Eq. (5) overlay term over a search window.

The overlay term of the routing cost (gamma per type 2-b tip gap,
delta_tip per direct tip abutment) depends only on the occupancy within
distance 2 of a cell along the layer's preferred direction and on which
net is being routed. Every search computes it afresh over its own window
with :func:`overlay_cost_grid`, which matches the brute-force per-cell
oracle :func:`repro.router.reference.overlay_probe` bit for bit (the
property tests pin the two together).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..grid import CellState

Bounds = Tuple[int, int, int, int]  # xlo, xhi, ylo, yhi (inclusive)

_FREE = int(CellState.FREE)

#: Occupancy value standing in for "outside the die" in the padded
#: window: neither FREE nor a net id, so it contributes no cost term.
_SENTINEL = -9


def overlay_cost_grid(
    occ: np.ndarray,
    horizontal: Sequence[bool],
    bounds: Bounds,
    own: int,
    gamma: float,
    delta_tip: float,
) -> np.ndarray:
    """Vectorised Eq. (5) overlay term over a search window.

    For every cell of the window, along the layer's preferred direction:
    ``delta_tip`` per directly abutting foreign cell and ``gamma`` per
    foreign cell at distance two behind a free cell (the type 2-b tip
    gap). Returns ``cost[layer, x - xlo, y - ylo]`` (float64).
    """
    xlo, xhi, ylo, yhi = bounds
    num_layers = occ.shape[0]
    wx, wy = xhi - xlo + 1, yhi - ylo + 1
    cost = np.zeros((num_layers, wx, wy), dtype=np.float64)
    pad = 2
    for layer in range(num_layers):
        view = np.full((wx + 2 * pad, wy + 2 * pad), _SENTINEL, dtype=occ.dtype)
        src_xlo, src_xhi = max(xlo - pad, 0), min(xhi + pad + 1, occ.shape[1])
        src_ylo, src_yhi = max(ylo - pad, 0), min(yhi + pad + 1, occ.shape[2])
        view[
            src_xlo - (xlo - pad) : src_xhi - (xlo - pad),
            src_ylo - (ylo - pad) : src_yhi - (ylo - pad),
        ] = occ[layer, src_xlo:src_xhi, src_ylo:src_yhi]
        # Shifted *views* into the padded window (pad >= |shift|, so a
        # slice sees exactly what np.roll-then-crop would, minus the two
        # full-array copies per shift).
        if horizontal[layer]:
            shifted = lambda s: view[pad + s : pad + s + wx, pad : pad + wy]
        else:
            shifted = lambda s: view[pad : pad + wx, pad + s : pad + s + wy]
        for sign in (1, -1):
            mid = shifted(sign)
            far = shifted(2 * sign)
            foreign_mid = (mid >= 0) & (mid != own)
            tip_gap = (mid == _FREE) & (far >= 0) & (far != own)
            cost[layer] += delta_tip * foreign_mid + gamma * tip_gap
    return cost


class OverlayCostCache:
    """Placeholder for the removed per-net memo of Eq. (5) grids.

    Nothing constructs it: every search calls :func:`overlay_cost_grid`,
    which measured as fast as the memo (docs/PERFORMANCE.md, "Removed:
    the overlay-cost cache and the flip-result cache").
    ``perfbench/tracing.py`` still imports the class and wraps these four
    methods by name; the class goes once it stops (ROADMAP, "One
    benchmark record").
    """

    def __init__(self) -> None:
        raise TypeError("the overlay-cost cache was removed: call overlay_cost_grid")

    def grid_for(self, net_id: int, bounds: Bounds) -> None:
        """Never called: no instance exists."""

    def on_cells_changed(self, cells) -> None:
        """Never called: no instance exists."""

    def on_grid_reset(self) -> None:
        """Never called: no instance exists."""

    def invalidate_net(self, net_id: int) -> None:
        """Never called: no instance exists."""
