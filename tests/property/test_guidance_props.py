"""Property tests (hypothesis): future-cost guidance maps.

The corridor-pruning proof in :mod:`repro.router.guidance` rests on two
facts about the map ``d``:

* **exactness** — ``d(n)`` is the true cheapest cost-to-go from ``n`` to
  any target under the forward search's edge weights (``step`` plus the
  folded cost of every cell *entered*), hence admissible;
* **consistency** — ``d(u) <= w(u, v) + d(v)`` for every legal move,
  which makes the pruned class closed under relaxation.

Both are pinned here against a scalar reference Dijkstra over the same
window graph, for the production solver (``csgraph``) and an independent
pure-numpy oracle (``sweep``, below), across randomized shapes, blockage
masks, cost grids and direction assignments.

A third property covers the bounded solve: a map stopped at
``limit = prune_threshold(ub)`` for any ``ub >= C*`` makes every prune
decision the full map makes.
"""

import heapq
import math
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.router.guidance import PRUNE_EPS, future_cost_map, prune_threshold

INF = float("inf")


# ---------------------------------------------------------------------- #
# sweep oracle: iterated Bellman–Ford over binary-lifting line scans
# ---------------------------------------------------------------------- #


def _lift_scan(D: np.ndarray, W: np.ndarray, axis: int) -> np.ndarray:
    """Exact 1D min-plus closure along ``axis`` by binary lifting.

    ``W[cell]`` is the cost of *entering* the cell while travelling along
    the axis (``inf`` blocks). Both directions are scanned from the same
    input (a non-negative-cost 1D shortest path never reverses), and the
    per-hop weight tables double each pass, so ``ceil(log2(n))`` passes
    close lines of any length.
    """
    Dm = np.moveaxis(D, axis, -1)
    Wm = np.moveaxis(W, axis, -1)
    n = Dm.shape[-1]
    fwd = Dm.copy()
    gain = np.full_like(Wm, INF)
    gain[..., 1:] = Wm[..., :-1]
    bwd = Dm.copy()
    gain_b = np.full_like(Wm, INF)
    gain_b[..., :-1] = Wm[..., 1:]
    span = 1
    while span < n:
        shifted = np.full_like(fwd, INF)
        shifted[..., span:] = fwd[..., :-span]
        np.minimum(fwd, shifted + gain, out=fwd)
        g_shift = np.full_like(gain, INF)
        g_shift[..., span:] = gain[..., :-span]
        gain = gain + g_shift

        shifted_b = np.full_like(bwd, INF)
        shifted_b[..., :-span] = bwd[..., span:]
        np.minimum(bwd, shifted_b + gain_b, out=bwd)
        gb_shift = np.full_like(gain_b, INF)
        gb_shift[..., :-span] = gain_b[..., span:]
        gain_b = gain_b + gb_shift
        span *= 2
    return np.moveaxis(np.minimum(fwd, bwd), -1, axis)


def _sweep_map(
    passable: np.ndarray,
    cost: np.ndarray,
    horizontal: Sequence[bool],
    alpha: float,
    beta: float,
    target_mask: np.ndarray,
    max_iters: int = 64,
) -> Optional[np.ndarray]:
    num_layers, wx, wy = passable.shape
    hl = np.asarray(horizontal[:num_layers], dtype=bool)[:, None, None]
    entry = np.where(passable, cost, INF)
    # A layer's lines run one way: the other axis is not a move at all.
    step_x = np.where(hl, alpha, INF)
    step_y = np.where(hl, INF, alpha)
    D = np.full(passable.shape, INF, dtype=np.float64)
    D[target_mask] = 0.0
    Wx = entry + step_x
    Wy = entry + step_y
    Wv = entry + beta  # cost of entering each cell through a via
    for iteration in range(max_iters):
        prev = D
        D = _lift_scan(D, Wx, axis=1)
        D[~passable] = INF
        D[target_mask] = 0.0
        D = _lift_scan(D, Wy, axis=2)
        D[~passable] = INF
        D[target_mask] = 0.0
        # d(u) = d(v) + beta + cost(v): the forward search pays the cost
        # of the cell it *enters*, i.e. the via's far end.
        via = np.full_like(D, INF)
        via[:-1] = D[1:] + Wv[1:]
        via[1:] = np.minimum(via[1:], D[:-1] + Wv[:-1])
        D = np.minimum(D, via)
        D[~passable] = INF
        D[target_mask] = 0.0
        if np.array_equal(D, prev):
            return D
    return None  # did not converge; caller routes unguided


def _map(backend, passable, cost, horizontal, alpha, beta, targets, limit=INF):
    """The production map (``csgraph``) or the sweep oracle's, with
    ``future_cost_map``'s degenerate-window rule. The sweep always solves
    the whole window, which is still exact under any ``limit``."""
    if backend == "csgraph":
        return future_cost_map(
            np.where(passable, cost, INF), horizontal, alpha, beta, targets,
            limit=limit,
        )
    _, wx, wy = passable.shape
    if wx < 2 or wy < 2 or not targets.any():
        return None
    return _sweep_map(passable, cost, horizontal, alpha, beta, targets)


# ---------------------------------------------------------------------- #
# scalar reference: backward multi-source Dijkstra over the window graph
# ---------------------------------------------------------------------- #


def _moves(num_layers, wx, wy, horizontal, alpha, beta):
    """Yield every legal forward move ``(u, v, step)`` of the window."""
    for layer in range(num_layers):
        pref_x = horizontal[layer]
        for x in range(wx):
            for y in range(wy):
                u = (layer, x, y)
                if pref_x and x + 1 < wx:
                    yield u, (layer, x + 1, y), alpha
                    yield (layer, x + 1, y), u, alpha
                if not pref_x and y + 1 < wy:
                    yield u, (layer, x, y + 1), alpha
                    yield (layer, x, y + 1), u, alpha
                if layer + 1 < num_layers:
                    yield u, (layer + 1, x, y), beta
                    yield (layer + 1, x, y), u, beta


def _reference_map(passable, cost, horizontal, alpha, beta, targets):
    """Cost-to-go by textbook Dijkstra on the reversed window graph.

    Edge ``u -> v`` costs ``step + cost[v]`` (the forward search pays the
    folded cost of every cell it enters); the distance of impassable
    cells is ``inf`` by definition.
    """
    num_layers, wx, wy = passable.shape
    adj = {}  # v -> [(u, w(u, v))]: forward predecessors
    for u, v, step in _moves(num_layers, wx, wy, horizontal, alpha, beta):
        if passable[v]:
            adj.setdefault(v, []).append((u, step + cost[v]))
    dist = np.full(passable.shape, INF)
    heap = []
    for t in zip(*np.nonzero(targets)):
        dist[t] = 0.0
        heap.append((0.0, t))
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, w in adj.get(v, ()):
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    dist[~passable] = INF
    return dist


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #


@st.composite
def windows(draw):
    num_layers = draw(st.integers(min_value=1, max_value=3))
    wx = draw(st.integers(min_value=2, max_value=7))
    wy = draw(st.integers(min_value=2, max_value=7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    passable = rng.random((num_layers, wx, wy)) > 0.25
    cost = np.where(
        rng.random((num_layers, wx, wy)) < 0.4,
        0.0,
        np.round(rng.random((num_layers, wx, wy)) * 5.0, 3),
    )
    free = np.argwhere(passable)
    targets = np.zeros(passable.shape, dtype=bool)
    if len(free):
        n_targets = draw(st.integers(min_value=1, max_value=min(3, len(free))))
        for row in free[rng.choice(len(free), size=n_targets, replace=False)]:
            targets[tuple(row)] = True
    horizontal = tuple(draw(st.booleans()) for _ in range(num_layers))
    alpha = draw(st.sampled_from([1.0, 1.5]))
    beta = draw(st.sampled_from([2.0, 4.0]))
    return passable, cost, horizontal, alpha, beta, targets


BACKENDS = ["sweep", "csgraph"]


# ---------------------------------------------------------------------- #
# exactness (=> admissibility) against the scalar reference
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
@given(windows())
@settings(max_examples=60, deadline=None)
def test_map_equals_reference_dijkstra(backend, window):
    passable, cost, horizontal, alpha, beta, targets = window
    d = _map(backend, passable, cost, horizontal, alpha, beta, targets)
    if not targets.any():
        assert d is None
        return
    assert d is not None
    ref = _reference_map(passable, cost, horizontal, alpha, beta, targets)
    assert np.allclose(d, ref, rtol=1e-12, atol=1e-12, equal_nan=False), (
        f"{backend} map diverged from reference Dijkstra"
    )
    # inf exactly where the reference is inf (unreachable / impassable)
    assert np.array_equal(np.isinf(d), np.isinf(ref))


@given(windows())
@settings(max_examples=40, deadline=None)
def test_backends_agree(window):
    a = _map("csgraph", *window)
    b = _map("sweep", *window)
    if a is None or b is None:
        assert a is None and b is None
        return
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12)
    assert np.array_equal(np.isinf(a), np.isinf(b))


# ---------------------------------------------------------------------- #
# consistency: the property the pruning-closure proof actually uses
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
@given(windows())
@settings(max_examples=40, deadline=None)
def test_map_is_consistent(backend, window):
    passable, cost, horizontal, alpha, beta, targets = window
    d = _map(backend, *window)
    if d is None:
        return
    num_layers, wx, wy = passable.shape
    for u, v, step in _moves(num_layers, wx, wy, horizontal, alpha, beta):
        if not (passable[u] and passable[v]):
            continue
        w = step + cost[v]
        if math.isinf(d[v]):
            continue
        assert d[u] <= w + d[v] + 1e-9, (
            f"consistency violated at {u} -> {v}: "
            f"d(u)={d[u]} > {w} + d(v)={d[v]}"
        )
    # targets sit at the bottom: zero cost-to-go
    assert (d[targets] == 0.0).all()


# ---------------------------------------------------------------------- #
# degenerate windows and the corridor bound itself
# ---------------------------------------------------------------------- #


def test_degenerate_windows_return_none():
    passable = np.ones((2, 1, 5), dtype=bool)
    targets = np.zeros_like(passable)
    targets[0, 0, 0] = True
    cost = np.zeros(passable.shape)
    assert (
        future_cost_map(
            np.where(passable, cost, INF), (True, False), 1.0, 4.0, targets,
        )
        is None
    )
    passable = np.ones((2, 5, 5), dtype=bool)
    no_targets = np.zeros_like(passable)
    assert (
        future_cost_map(
            np.where(passable, np.zeros(passable.shape), INF), (True, False),
            1.0, 4.0, no_targets,
        )
        is None
    )


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_prune_threshold_pads_upward(total):
    thr = prune_threshold(total)
    assert thr > total
    assert thr - total >= PRUNE_EPS
    # the pad stays tiny relative to any genuine cost difference
    # float cancellation in (thr - total) can add up to ~ulp(total)
    assert thr - total <= 2 * (PRUNE_EPS + 1e-9 * total)


# ---------------------------------------------------------------------- #
# the bounded solve: same source threshold, same prune decisions
# ---------------------------------------------------------------------- #


@st.composite
def searches(draw):
    """A window with half-unit costs (exact float ties), targets, sources."""
    passable, _, horizontal, alpha, beta, targets = draw(windows())
    assume(targets.any())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    cost = rng.integers(0, 7, size=passable.shape) * 0.5
    free = np.argwhere(passable)
    count = min(len(free), draw(st.integers(min_value=1, max_value=3)))
    sources = [tuple(row) for row in free[rng.choice(len(free), count, replace=False)]]
    return passable, cost, horizontal, alpha, beta, targets, sources


def _source_threshold(d, cost, sources):
    return min(cost[s] + d[s] for s in sources)


def _bounded_matches_full(full, bounded, cost, sources):
    """Whether ``bounded`` makes every decision ``full`` makes: the same
    source threshold ``T``, equal values wherever the full map is within
    ``thr = prune_threshold(T)``, and values beyond ``thr`` elsewhere."""
    t = _source_threshold(full, cost, sources)
    if _source_threshold(bounded, cost, sources) != t:
        return False
    thr = prune_threshold(t)
    inside = full <= thr
    return bool(
        np.array_equal(bounded[inside], full[inside])
        and (bounded[~inside] > thr).all()
    )


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    searches(),
    st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    ),
)
@settings(max_examples=80, deadline=None)
def test_bounded_map_keeps_every_prune_decision(backend, search, slack):
    passable, cost, horizontal, alpha, beta, targets, sources = search
    args = (passable, cost, horizontal, alpha, beta, targets)
    full = _map(backend, *args)
    c_star = _source_threshold(full, cost, sources)
    assume(c_star < INF)
    ub = c_star + slack  # the cost of some path no cheaper than optimal
    bounded = _map(backend, *args, limit=prune_threshold(ub))
    assert _bounded_matches_full(full, bounded, cost, sources)


def test_limit_below_the_threshold_breaks_the_property():
    """The bound must come from a real path: stopping short of ``C*``
    loses the optimal source, and the property above fails."""
    passable = np.ones((1, 6, 2), dtype=bool)
    cost = np.zeros(passable.shape)
    targets = np.zeros(passable.shape, dtype=bool)
    targets[0, 5, 0] = True
    sources = [(0, 0, 0)]
    args = (np.where(passable, cost, INF), (True,), 1.0, 2.0, targets)
    full = future_cost_map(*args)
    c_star = _source_threshold(full, cost, sources)
    assert c_star == 5.0
    assert _bounded_matches_full(
        full,
        future_cost_map(*args, limit=prune_threshold(c_star)),
        cost,
        sources,
    )
    short = future_cost_map(*args, limit=c_star - 1.0)
    assert not _bounded_matches_full(full, short, cost, sources)
