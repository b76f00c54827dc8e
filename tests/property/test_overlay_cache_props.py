"""Property tests: the overlay cost grid vs the brute-force probe.

``overlay_cost_grid``, the vectorised window computation every search
runs, must agree bit-exactly on every cell with
:func:`repro.router.reference.overlay_probe`, the per-cell brute force
(the spec): on random windows, with and without ``BLOCKED`` cells, on
windows touching each die edge or one track wide, and with
``gamma``/``delta_tip`` values that are not multiples of a half.
"""

import random

import pytest

from repro.geometry import Point, Rect
from repro.grid import RoutingGrid, default_layer_stack
from repro.router.cost import PAPER_PARAMS, CostParams
from repro.router.overlay_cache import overlay_cost_grid
from repro.router.reference import overlay_probe


def _random_grid(rng: random.Random, side: int = 20, fill: float = 0.15, blocked=0.0):
    grid = RoutingGrid(side, side, layers=default_layer_stack(3))
    for layer in range(grid.num_layers):
        for x in range(side):
            for y in range(side):
                r = rng.random()
                if r < blocked:
                    grid.block(layer, Rect(x, y, x + 1, y + 1))
                elif r < blocked + fill:
                    grid.occupy(layer, Point(x, y), rng.randrange(0, 12))
    return grid


def _random_bounds(rng: random.Random, grid):
    xlo = rng.randrange(0, grid.width - 4)
    ylo = rng.randrange(0, grid.height - 4)
    xhi = rng.randrange(xlo, grid.width)
    yhi = rng.randrange(ylo, grid.height)
    return (xlo, xhi, ylo, yhi)


def _window(rng: random.Random, grid, shape: str):
    """A window of the named shape: ``random``, touching one die edge
    (``west``/``east``/``south``/``north``), the whole die, or one track
    wide across x (``column``) or y (``row``)."""
    xlo, xhi, ylo, yhi = _random_bounds(rng, grid)
    if shape == "west":
        xlo = 0
    elif shape == "east":
        xhi = grid.width - 1
    elif shape == "south":
        ylo = 0
    elif shape == "north":
        yhi = grid.height - 1
    elif shape == "die":
        xlo, xhi, ylo, yhi = 0, grid.width - 1, 0, grid.height - 1
    elif shape == "column":
        xhi = xlo
    elif shape == "row":
        yhi = ylo
    return xlo, xhi, ylo, yhi


def _horizontal(grid):
    return [
        grid.layer_direction(l).name == "HORIZONTAL"
        for l in range(grid.num_layers)
    ]


_CASES = (
    # The original six random windows keep their ids.
    [pytest.param(seed, "random", 0.0, PAPER_PARAMS, id=str(seed)) for seed in range(6)]
    + [
        pytest.param(seed, "random", 0.1, PAPER_PARAMS, id=f"blocked-{seed}")
        for seed in range(6, 9)
    ]
    + [
        pytest.param(seed, shape, 0.05, PAPER_PARAMS, id=f"{shape}-{seed}")
        for seed, shape in enumerate(
            ("west", "east", "south", "north", "die", "column", "row", "column", "row"),
            start=9,
        )
    ]
    + [
        pytest.param(seed, shape, blocked, CostParams(gamma=g, delta_tip=d),
                     id=f"gamma{g}-delta{d}-{shape}-{seed}")
        for seed, shape, blocked, g, d in (
            (18, "random", 0.05, 0.1, 0.3),
            (19, "west", 0.05, 0.3, 0.1),
            (20, "row", 0.0, 0.1, 0.3),
            (21, "die", 0.1, 0.7, 0.1),
        )
    ]
)


@pytest.mark.parametrize("seed,shape,blocked,params", _CASES)
def test_vectorised_grid_matches_brute_force_probe(seed, shape, blocked, params):
    rng = random.Random(seed)
    grid = _random_grid(rng, blocked=blocked)
    own = rng.choice([-1, 0, 3, 7])
    bounds = _window(rng, grid, shape)
    cost = overlay_cost_grid(
        grid._occ, _horizontal(grid), bounds, own, params.gamma, params.delta_tip
    )
    xlo, xhi, ylo, yhi = bounds
    assert cost.shape == (grid.num_layers, xhi - xlo + 1, yhi - ylo + 1)
    for layer in range(grid.num_layers):
        for x in range(xlo, xhi + 1):
            for y in range(ylo, yhi + 1):
                expected = overlay_probe(grid, params, own, layer, Point(x, y))
                assert cost[layer, x - xlo, y - ylo] == expected, (
                    f"cell ({layer},{x},{y}) own={own}: "
                    f"{cost[layer, x - xlo, y - ylo]} != probe {expected}"
                )
