"""Property tests: the overlay cost grid vs the brute-force probe.

``overlay_cost_grid``, the vectorised window computation every search
runs, must agree bit-exactly on every cell with
:func:`repro.router.reference.overlay_probe`, the per-cell brute force
(the spec).
"""

import random

import pytest

from repro.geometry import Point
from repro.grid import RoutingGrid, default_layer_stack
from repro.router.cost import PAPER_PARAMS
from repro.router.overlay_cache import overlay_cost_grid
from repro.router.reference import overlay_probe


def _random_grid(rng: random.Random, side: int = 20, fill: float = 0.15):
    grid = RoutingGrid(side, side, layers=default_layer_stack(3))
    for layer in range(grid.num_layers):
        for x in range(side):
            for y in range(side):
                if rng.random() < fill:
                    grid.occupy(layer, Point(x, y), rng.randrange(0, 12))
    return grid


def _random_bounds(rng: random.Random, grid):
    xlo = rng.randrange(0, grid.width - 4)
    ylo = rng.randrange(0, grid.height - 4)
    xhi = rng.randrange(xlo, grid.width)
    yhi = rng.randrange(ylo, grid.height)
    return (xlo, xhi, ylo, yhi)


def _horizontal(grid):
    return [
        grid.layer_direction(l).name == "HORIZONTAL"
        for l in range(grid.num_layers)
    ]


@pytest.mark.parametrize("seed", range(6))
def test_vectorised_grid_matches_brute_force_probe(seed):
    rng = random.Random(seed)
    grid = _random_grid(rng)
    own = rng.choice([-1, 0, 3, 7])
    bounds = _random_bounds(rng, grid)
    params = PAPER_PARAMS
    cost = overlay_cost_grid(
        grid._occ, _horizontal(grid), bounds, own, params.gamma, params.delta_tip
    )
    xlo, xhi, ylo, yhi = bounds
    for layer in range(grid.num_layers):
        for x in range(xlo, xhi + 1):
            for y in range(ylo, yhi + 1):
                expected = overlay_probe(grid, params, own, layer, Point(x, y))
                assert cost[layer, x - xlo, y - ylo] == expected, (
                    f"cell ({layer},{x},{y}) own={own}: "
                    f"{cost[layer, x - xlo, y - ylo]} != probe {expected}"
                )
