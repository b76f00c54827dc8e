"""Property tests: overlay cost grids vs the brute-force probe.

Three implementations of the Eq. (5) overlay term must agree bit-exactly
on every cell:

* :func:`repro.router.reference.overlay_probe` — the per-cell brute
  force (the spec);
* ``overlay_cost_grid`` — the vectorised window computation;
* ``OverlayCostCache.grid_for`` — the memoised variant, after arbitrary
  sequences of occupancy changes and incremental repairs.
"""

import random

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.grid import RoutingGrid, default_layer_stack
from repro.router.cost import PAPER_PARAMS
from repro.router.overlay_cache import OverlayCostCache, overlay_cost_grid
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


@pytest.mark.parametrize("seed", range(8))
def test_cached_grid_matches_fresh_after_arbitrary_invalidations(seed):
    """Random interleavings of occupy/release/release_net and lookups for
    several nets/windows: every served grid must equal a from-scratch
    recomputation bit-for-bit."""
    rng = random.Random(100 + seed)
    grid = _random_grid(rng, fill=0.12)
    params_gamma, params_delta = 1.5, 0.5
    cache = OverlayCostCache(grid, params_gamma, params_delta, max_entries=4)
    horizontal = _horizontal(grid)

    def check(own, bounds):
        served = cache.grid_for(own, bounds)
        fresh = overlay_cost_grid(
            grid._occ, horizontal, bounds, own, params_gamma, params_delta
        )
        assert np.array_equal(served, fresh), (
            f"own={own} bounds={bounds}: cached grid diverged from fresh"
        )

    nets = [0, 3, 7, 11]
    windows = {net: _random_bounds(rng, grid) for net in nets}
    for _ in range(60):
        op = rng.random()
        if op < 0.35:  # occupy a free cell
            layer = rng.randrange(grid.num_layers)
            p = Point(rng.randrange(grid.width), rng.randrange(grid.height))
            if grid.is_free(layer, p):
                grid.occupy(layer, p, rng.choice(nets))
        elif op < 0.50:  # release one cell
            layer = rng.randrange(grid.num_layers)
            p = Point(rng.randrange(grid.width), rng.randrange(grid.height))
            owner = grid.owner(layer, p)
            if owner >= 0:
                grid.release(layer, p, owner)
        elif op < 0.58:  # rip a whole net out
            grid.release_net(rng.choice(nets))
        else:  # lookup (often a repeat -> cache hit + repair path)
            net = rng.choice(nets)
            if rng.random() < 0.3:
                windows[net] = _random_bounds(rng, grid)
            check(net, windows[net])
    assert cache.hits > 0, "interleaving never exercised the repair/hit path"
    assert cache.repaired_cells > 0


def test_contained_window_is_served_by_slicing():
    rng = random.Random(42)
    grid = _random_grid(rng)
    cache = OverlayCostCache(grid, 1.5, 0.5)
    big = (2, 15, 3, 16)
    cache.grid_for(5, big)
    assert cache.misses == 1
    small = (4, 10, 5, 12)
    served = cache.grid_for(5, small)
    assert cache.hits == 1
    fresh = overlay_cost_grid(grid._occ, _horizontal(grid), small, 5, 1.5, 0.5)
    assert np.array_equal(served, fresh)


def test_block_resets_the_cache():
    grid = RoutingGrid(16, 16)
    cache = OverlayCostCache(grid, 1.5, 0.5)
    cache.grid_for(1, (0, 10, 0, 10))
    grid.block(0, Rect(3, 3, 6, 6))
    assert cache._entries == {}  # bulk rewrite -> everything stale
    served = cache.grid_for(1, (0, 10, 0, 10))
    fresh = overlay_cost_grid(
        grid._occ, _horizontal(grid), (0, 10, 0, 10), 1, 1.5, 0.5
    )
    assert np.array_equal(served, fresh)


def test_lru_bound_holds():
    grid = RoutingGrid(16, 16)
    cache = OverlayCostCache(grid, 1.5, 0.5, max_entries=2)
    for net in range(5):
        cache.grid_for(net, (0, 8, 0, 8))
    assert len(cache._entries) == 2
    assert set(cache._entries) == {3, 4}  # most recently used survive
