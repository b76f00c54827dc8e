"""Batched guidance builds and worker premaps.

``batched_future_cost_maps`` solves several windows' backward Dijkstra
in one block-diagonal csgraph call; with no finite edge crossing block
boundaries the distances are exactly the per-window ones, so the batch
must be ``array_equal`` to one :func:`future_cost_map` per item. The
parallel router pre-builds worker guidance maps through this batch path
— another bit-identity, including the guided-search counters.
"""

import random

import numpy as np
import pytest

from repro import obs
from repro.bench.workloads import generate_benchmark, spec_by_name
from repro.router import SadpRouter
from repro.router.guidance import batched_future_cost_maps, future_cost_map


def _random_items(rng, count):
    items = []
    for _ in range(count):
        num_layers = rng.randrange(1, 4)
        wx = rng.randrange(2, 14)
        wy = rng.randrange(2, 14)
        passable = rng_random(rng, (num_layers, wx, wy)) > 0.25
        cost = np.round(rng_random(rng, (num_layers, wx, wy)) * 4.0, 3)
        targets = np.zeros(passable.shape, dtype=bool)
        free = np.argwhere(passable)
        if len(free) and rng.random() > 0.1:
            for row in free[: rng.randrange(1, 4)]:
                targets[tuple(row)] = True
        items.append((passable, cost, targets))
    return items


def rng_random(rng, shape):
    flat = np.array([rng.random() for _ in range(int(np.prod(shape)))])
    return flat.reshape(shape)


class TestBatchedBuilds:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_per_item(self, seed):
        rng = random.Random(seed)
        items = _random_items(rng, rng.randrange(2, 7))
        horizontal = (True, False, True)
        alpha, beta, wrong_way = 1.0, 2.0, 2.0
        batched = batched_future_cost_maps(
            items, horizontal, alpha, beta, wrong_way
        )
        assert len(batched) == len(items)
        for (passable, cost, targets), got in zip(items, batched):
            want = future_cost_map(
                passable, cost, horizontal, alpha, beta, wrong_way, targets
            )
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert np.array_equal(got, want)  # bit-exact, inf included

    def test_same_shape_windows_share_one_call(self):
        """Same-shape windows group into one block-diagonal solve; the
        obs counters record one batch covering all of them, and each map
        as one full build."""
        rng = random.Random(3)
        shape = (2, 6, 6)
        items = []
        for _ in range(4):
            passable = rng_random(rng, shape) > 0.2
            cost = np.round(rng_random(rng, shape) * 3.0, 3)
            targets = np.zeros(shape, dtype=bool)
            free = np.argwhere(passable)
            targets[tuple(free[0])] = True
            items.append((passable, cost, targets))
        with obs.session() as ob:
            batched = batched_future_cost_maps(
                items, (True, False), 1.0, 2.0, 2.0
            )
            batches = ob.registry.total("guidance_batch_builds_total")
            maps = ob.registry.total("guidance_batched_maps_total")
            builds = ob.registry.value("guidance_builds_total", solve="full")
        assert all(b is not None for b in batched)
        assert batches == 1.0
        assert maps == 4.0
        assert builds == 4.0


@pytest.mark.parametrize("kernel", ["python", "numba"])
def test_parallel_premaps_match_sequential(kernel):
    """guidance="on" + workers: premaps built centrally via the batch
    path must leave results *and* guidance counters identical to the
    sequential run (a consumed premap still counts as a build)."""
    spec = spec_by_name("Test1")
    grid_seq, nets_seq = generate_benchmark(spec, scale=0.12, seed=2014)
    grid_par, nets_par = generate_benchmark(spec, scale=0.12, seed=2014)
    seq = SadpRouter(grid_seq, nets_seq, guidance="on", kernel=kernel)
    par = SadpRouter(
        grid_par,
        nets_par,
        guidance="on",
        kernel=kernel,
        workers=2,
        executor="thread",
    )
    res_seq = seq.route_all()
    res_par = par.route_all()
    assert res_par.overlay_units == res_seq.overlay_units
    assert res_par.total_wirelength == res_seq.total_wirelength
    for net_id in res_seq.routes:
        assert (
            res_par.routes[net_id].segments == res_seq.routes[net_id].segments
        )
    assert (
        par.engine.total_guided_searches == seq.engine.total_guided_searches
    )
    assert (
        par.engine.total_guidance_builds == seq.engine.total_guidance_builds
    )
