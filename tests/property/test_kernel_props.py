"""Property tests (hypothesis): compiled-kernel bit-identity.

The kernel's contract is not "close enough" — it is *the same search*:
identical node sequences, FP-bit-exact costs, identical expansion /
push / pop counters and identical failure outcomes, for every window
shape, occupancy pattern, penalty map, cost-parameter choice and
expansion budget. Hypothesis drives randomized instances through both
engines (``kernel="python"`` vs ``kernel="numba"``) and compares
everything observable. With numba absent the kernel runs interpreted —
the contract is the same either way, so this file never skips.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.grid import RoutingGrid
from repro.router import AStarRouter, CostParams, SearchRequest

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@st.composite
def instances(draw):
    """A routing grid with random occupancy plus one search request."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    width = draw(st.integers(min_value=8, max_value=24))
    height = draw(st.integers(min_value=8, max_value=24))
    grid = RoutingGrid(width, height)
    fill = draw(st.sampled_from([0.0, 0.08, 0.2]))
    if fill:
        for layer in range(grid.num_layers):
            for x in range(width):
                for y in range(height):
                    if rng.random() < fill:
                        grid.occupy(layer, Point(x, y), rng.randrange(1, 9))
    penalties = {}
    if draw(st.booleans()):
        penalties = {
            (
                rng.randrange(grid.num_layers),
                rng.randrange(width),
                rng.randrange(height),
            ): round(rng.uniform(0.5, 8.0), 3)
            for _ in range(draw(st.integers(min_value=1, max_value=25)))
        }
    params = CostParams(
        alpha=draw(st.sampled_from([1.0, 1.5])),
        beta=draw(st.sampled_from([1.0, 2.0, 4.0])),
        wrong_way_factor=draw(st.sampled_from([0.0, 2.0, 3.5])),
    )
    n_pins = draw(st.integers(min_value=1, max_value=3))
    sources = [
        (rng.randrange(grid.num_layers), Point(rng.randrange(width), rng.randrange(height)))
        for _ in range(n_pins)
    ]
    targets = [
        (rng.randrange(grid.num_layers), Point(rng.randrange(width), rng.randrange(height)))
        for _ in range(n_pins)
    ]
    margin = draw(st.integers(min_value=0, max_value=4))
    return grid, params, penalties, sources, targets, margin


def _engines(grid, params, penalties):
    kwargs = dict(
        penalty_map=penalties or None,
        overlay_terms=(params.gamma, params.delta_tip),
    )
    py = AStarRouter(grid, params, kernel="python", **kwargs)
    kn = AStarRouter(grid, params, kernel="numba", **kwargs)
    py.active_net = kn.active_net = 7
    return py, kn


def _assert_identical(py, kn, req, margin):
    found_py = py.search(req, extra_margin=margin)
    found_kn = kn.search(req, extra_margin=margin)
    if found_py is None:
        assert found_kn is None
    else:
        assert found_kn is not None
        assert found_kn.nodes == found_py.nodes
        assert found_kn.cost == found_py.cost  # FP-bit-exact
        assert found_kn.expansions == found_py.expansions
    assert kn._last_stats == py._last_stats
    assert kn.last_outcome == py.last_outcome
    return found_py


@given(instances())
@settings(max_examples=50, deadline=None)
def test_search_is_bit_identical(instance):
    grid, params, penalties, sources, targets, margin = instance
    py, kn = _engines(grid, params, penalties)
    req = SearchRequest(net_id=7, sources=sources, targets=targets)
    _assert_identical(py, kn, req, margin)


@given(instances(), st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_budget_boundaries_are_bit_identical(instance, offset):
    """Budgets pinned to the unbudgeted expansion count +/- a few: the
    kernel must fail (or succeed) on exactly the same boundary, with the
    same counters and outcome."""
    grid, params, penalties, sources, targets, margin = instance
    py, kn = _engines(grid, params, penalties)
    probe = SearchRequest(net_id=7, sources=sources, targets=targets)
    found = py.search(probe, extra_margin=margin)
    expansions = found.expansions if found is not None else py._last_stats[0]
    for budget in {max(1, expansions - offset), expansions + offset}:
        if budget <= 0:
            continue
        req = SearchRequest(net_id=7, sources=sources, targets=targets)
        req.max_expansions = budget
        _assert_identical(py, kn, req, margin)


@given(instances(), st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_guidance_trigger_is_bit_identical(instance, trigger):
    """A mid-search guidance activation (suspend, build map, resume,
    prune) at an arbitrary trigger point changes nothing observable."""
    grid, params, penalties, sources, targets, margin = instance
    py, kn = _engines(grid, params, penalties)
    for engine in (py, kn):
        engine.guidance = "auto"
        engine.guidance_trigger = trigger
    req = SearchRequest(net_id=7, sources=sources, targets=targets)
    _assert_identical(py, kn, req, margin)
    assert kn.total_guided_searches == py.total_guided_searches
    assert kn.total_guidance_builds == py.total_guidance_builds
