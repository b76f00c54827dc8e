"""Future-cost guidance maps for the A* hot path.

A guidance map is the exact cost-to-go ``d(n)``: for every window cell
``n = (layer, x, y)``, the cheapest cost of reaching *any* search target
from ``n`` under the same edge costs the forward search pays — ``alpha``
per preferred-direction step, ``alpha * wrong_way_factor`` per wrong-way
jog, ``beta`` per via, plus the folded per-cell extra cost (the Eq. (5)
overlay term and rip-up penalties) of every cell *entered*. ``d`` is
computed backward from the targets over the frozen window, so it is an
admissible **and** consistent heuristic by construction (it is the true
remaining cost, which trivially satisfies ``d(u) <= w(u, v) + d(v)``).

The fast A* path uses the map as a **corridor bound** rather than as a
replacement ordering heuristic: with ``T = min_src(g_src + d(src))``
(which equals the optimal path cost ``C*``), any heap entry whose
``g + d > T`` can never lie on the path A* will return, and — because
``d`` is consistent — every entry such an entry could ever relax is
itself prunable. Dropping them is therefore invisible to the search
result: the surviving entries pop in exactly the same order, assign
exactly the same parents, and return the bit-identical path at the
bit-identical cost, only without expanding the off-corridor bulk.
(``PRUNE_EPS`` pads the bound so float summation-order noise between the
numpy map and the sequential Python g-accumulation cannot evict a
cost-tied optimal entry.)

The search only compares ``g + d`` with that bound, so the map need not
be exact beyond it. When a target already holds a finite ``g`` at
activation, ``ub = min g(target)`` is the cost of a real path, so
``C* <= ub``, and the backward solve may stop at ``limit =
prune_threshold(ub)``: cells with ``d <= limit`` get their exact
distance, and cells beyond get ``inf`` — pruned either way, since
``g >= 0`` and ``prune_threshold`` is monotone (``thr <= limit``). The
optimal source lies inside the limit, so ``T`` is unchanged too. Only
the csgraph backend honours ``limit``; the sweep backend always solves
the whole window, which is still exact.

Two backends build the same map:

* ``csgraph`` (production, default when scipy is importable): the window
  graph is assembled as a fixed-slot CSR matrix with fully vectorized
  numpy index arithmetic — per-cell in-edges are ``[via down, in-layer
  back, in-layer forward, via up]`` (plus the two wrong-way slots when
  enabled), invalid slots carry ``inf`` which ``scipy.sparse.csgraph``
  treats as a non-edge — and one multi-source ``dijkstra(min_only=True)``
  from the target cells solves it in C. Structures (indices/indptr/step
  tables) are LRU-cached per window shape so repeat searches only pay
  the data fill.
* ``sweep`` (pure numpy, the executable specification): iterated
  backward Bellman–Ford relaxation where each round closes every grid
  line with a binary-lifting min-plus prefix scan along the layer's
  travel axes and couples layers through a vectorized via relaxation,
  until a fixpoint. The fixpoint of the full relaxation operator is the
  exact distance, so both backends agree; the property tests pin them
  to each other and to a scalar reference Dijkstra.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Sequence, Tuple

import numpy as np

try:  # scipy is an install-time dependency, but keep the import soft so
    # the sweep backend can serve minimal environments.
    import scipy.sparse as _sp
    import scipy.sparse.csgraph as _csg

    HAVE_SCIPY = True
except Exception:  # pragma: no cover - exercised only without scipy
    _sp = _csg = None
    HAVE_SCIPY = False

#: Slack added to the corridor bound: far above accumulated float64
#: summation-order noise (~1e-10 on realistic path costs), far below any
#: genuine cost difference the parameter set can produce.
PRUNE_EPS = 1e-6

#: Default number of unguided expansions after which ``guidance="auto"``
#: switches the running search over to map-guided pruning.
AUTO_TRIGGER_EXPANSIONS = 192

#: Window extents are padded up to multiples of this inside the csgraph
#: backend so the CSR structure cache hits across similar windows.
#: Padded cells are impassable (``inf`` entry cost), so the map restricted
#: to the real window is exact.
_SHAPE_PAD = 8

_INF = float("inf")


def prune_threshold(total: float) -> float:
    """The corridor bound for an optimal cost ``total`` (noise-padded)."""
    return total + PRUNE_EPS + 1e-9 * abs(total)


# ---------------------------------------------------------------------- #
# csgraph backend
# ---------------------------------------------------------------------- #


class _CsrStructure:
    """Shape-dependent CSR skeleton: indices, indptr, slot step tables.

    Everything except the per-call edge weights. The weight of every
    in-edge of cell ``v`` in the *reverse* graph is ``step + A[v]``
    (``A`` = folded cell cost, ``inf`` when impassable), so a call only
    broadcasts ``A`` across the slot columns and masks the static
    boundary slots — no Python per-cell work.
    """

    __slots__ = ("n", "k", "graph", "data2d", "steps", "invalid_idx")

    def __init__(
        self,
        num_layers: int,
        wx: int,
        wy: int,
        horizontal: Tuple[bool, ...],
        alpha: float,
        beta: float,
        wrong_way: float,
    ) -> None:
        stride = wx * wy
        n = num_layers * stride
        hl = np.asarray(horizontal[:num_layers], dtype=bool)
        if wrong_way:
            offsets = [-stride, -wy, -1, 1, wy, stride]
        else:
            off = np.where(hl, wy, 1).astype(np.int64)[:, None, None]
            offsets = [-stride, -off, off, stride]
        k = len(offsets)
        idx = np.arange(n, dtype=np.int64).reshape(num_layers, wx, wy)

        cols = np.empty((n, k), dtype=np.int32)
        invalid = np.zeros((num_layers, wx, wy, k), dtype=bool)
        steps = np.empty((num_layers, 1, 1, k), dtype=np.float64)
        ww = alpha * wrong_way
        for s, off_s in enumerate(offsets):
            # Wrapped columns stay in-range; every wrapped slot is masked
            # invalid below, and invalid slots carry inf weights which
            # csgraph treats as non-edges.
            cols[:, s] = ((idx + off_s) % n).ravel()
        if wrong_way:
            # slots: [-stride, -wy(x-1), -1(y-1), +1(y+1), +wy(x+1), +stride]
            invalid[:, :, :, 0][0] = True
            invalid[:, :, :, 5][-1] = True
            invalid[:, 0, :, 1] = True
            invalid[:, -1, :, 4] = True
            invalid[:, :, 0, 2] = True
            invalid[:, :, -1, 3] = True
            step_x = np.where(hl, alpha, ww)
            step_y = np.where(hl, ww, alpha)
            steps[:, 0, 0, 0] = beta
            steps[:, 0, 0, 1] = step_x
            steps[:, 0, 0, 2] = step_y
            steps[:, 0, 0, 3] = step_y
            steps[:, 0, 0, 4] = step_x
            steps[:, 0, 0, 5] = beta
        else:
            # slots: [-stride, -off(preferred back), +off(forward), +stride]
            invalid[:, :, :, 0][0] = True
            invalid[:, :, :, 3][-1] = True
            for layer in range(num_layers):
                if hl[layer]:
                    invalid[layer, 0, :, 1] = True
                    invalid[layer, -1, :, 2] = True
                else:
                    invalid[layer, :, 0, 1] = True
                    invalid[layer, :, -1, 2] = True
            steps[:, 0, 0, 0] = beta
            steps[:, 0, 0, 1] = alpha
            steps[:, 0, 0, 2] = alpha
            steps[:, 0, 0, 3] = beta

        indptr = np.arange(0, n * k + 1, k, dtype=np.int32)
        data = np.full(n * k, _INF, dtype=np.float64)
        graph = _sp.csr_matrix(
            (data, cols.ravel(), indptr), shape=(n, n), copy=False
        )
        self.n = n
        self.k = k
        self.graph = graph
        # Contiguous view into the matrix's own data buffer: per-call
        # weight fills write straight into the graph.
        self.data2d = graph.data.reshape(n, k)
        self.steps = steps
        # Flat positions of the boundary slots — integer fancy indexing
        # is cheaper than a boolean mask of the whole (n, k) plane on
        # every fill.
        self.invalid_idx = np.flatnonzero(invalid.reshape(-1))


_structures: "OrderedDict[tuple, _CsrStructure]" = OrderedDict()
_STRUCT_CACHE_MAX = 32
_lock = threading.Lock()


def _structure_for(
    num_layers: int,
    wx: int,
    wy: int,
    horizontal: Tuple[bool, ...],
    alpha: float,
    beta: float,
    wrong_way: float,
) -> _CsrStructure:
    key = (num_layers, wx, wy, horizontal, alpha, beta, wrong_way)
    struct = _structures.get(key)
    if struct is None:
        struct = _CsrStructure(
            num_layers, wx, wy, horizontal, alpha, beta, wrong_way
        )
        _structures[key] = struct
    _structures.move_to_end(key)
    while len(_structures) > _STRUCT_CACHE_MAX:
        _structures.popitem(last=False)
    return struct


def _csgraph_map(
    passable: np.ndarray,
    cost: np.ndarray,
    horizontal: Sequence[bool],
    alpha: float,
    beta: float,
    wrong_way: float,
    target_mask: np.ndarray,
    limit: float = _INF,
) -> np.ndarray:
    num_layers, wx, wy = passable.shape
    # Quantize the window shape so repeat searches share CSR skeletons.
    # Padding cells are impassable: their entry cost is inf, csgraph sees
    # no edges through them, and the slice back to the real extent is
    # bit-identical to an unpadded solve.
    pwx = -(-wx // _SHAPE_PAD) * _SHAPE_PAD
    pwy = -(-wy // _SHAPE_PAD) * _SHAPE_PAD
    if (pwx, pwy) != (wx, wy):
        padded = np.zeros((num_layers, pwx, pwy), dtype=bool)
        padded[:, :wx, :wy] = passable
        cost_p = np.zeros((num_layers, pwx, pwy), dtype=np.float64)
        cost_p[:, :wx, :wy] = cost
        tmask = np.zeros((num_layers, pwx, pwy), dtype=bool)
        tmask[:, :wx, :wy] = target_mask
    else:
        padded, cost_p, tmask = passable, cost, target_mask
    with _lock:
        struct = _structure_for(
            num_layers,
            pwx,
            pwy,
            tuple(bool(h) for h in horizontal[:num_layers]),
            alpha,
            beta,
            wrong_way,
        )
        entry = np.where(padded, cost_p, _INF)
        # Broadcast-add straight into the CSR data buffer, then stamp the
        # boundary slots; no (n, k) temporary.
        np.add(
            entry.reshape(num_layers, pwx, pwy, 1),
            struct.steps,
            out=struct.data2d.reshape(num_layers, pwx, pwy, struct.k),
        )
        struct.graph.data[struct.invalid_idx] = _INF
        targets = np.flatnonzero(tmask.ravel())
        dist = _csg.dijkstra(
            struct.graph, indices=targets, min_only=True, limit=limit
        )
    dist = dist.reshape(num_layers, pwx, pwy)[:, :wx, :wy]
    dist[~passable] = _INF
    return dist


# ---------------------------------------------------------------------- #
# sweep backend
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
    gain = np.full_like(Wm, _INF)
    gain[..., 1:] = Wm[..., :-1]
    bwd = Dm.copy()
    gain_b = np.full_like(Wm, _INF)
    gain_b[..., :-1] = Wm[..., 1:]
    span = 1
    while span < n:
        shifted = np.full_like(fwd, _INF)
        shifted[..., span:] = fwd[..., :-span]
        np.minimum(fwd, shifted + gain, out=fwd)
        g_shift = np.full_like(gain, _INF)
        g_shift[..., span:] = gain[..., :-span]
        gain = gain + g_shift

        shifted_b = np.full_like(bwd, _INF)
        shifted_b[..., :-span] = bwd[..., span:]
        np.minimum(bwd, shifted_b + gain_b, out=bwd)
        gb_shift = np.full_like(gain_b, _INF)
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
    wrong_way: float,
    target_mask: np.ndarray,
    max_iters: int = 64,
) -> Optional[np.ndarray]:
    num_layers, wx, wy = passable.shape
    hl = np.asarray(horizontal[:num_layers], dtype=bool)[:, None, None]
    entry = np.where(passable, cost, _INF)
    ww = alpha * wrong_way if wrong_way else _INF
    step_x = np.where(hl, alpha, ww)
    step_y = np.where(hl, ww, alpha)
    D = np.full(passable.shape, _INF, dtype=np.float64)
    D[target_mask] = 0.0
    Wx = entry + step_x
    Wy = entry + step_y
    Wv = entry + beta  # cost of entering each cell through a via
    for iteration in range(max_iters):
        prev = D
        D = _lift_scan(D, Wx, axis=1)
        D[~passable] = _INF
        D[target_mask] = 0.0
        D = _lift_scan(D, Wy, axis=2)
        D[~passable] = _INF
        D[target_mask] = 0.0
        # d(u) = d(v) + beta + cost(v): the forward search pays the cost
        # of the cell it *enters*, i.e. the via's far end.
        via = np.full_like(D, _INF)
        via[:-1] = D[1:] + Wv[1:]
        via[1:] = np.minimum(via[1:], D[:-1] + Wv[:-1])
        D = np.minimum(D, via)
        D[~passable] = _INF
        D[target_mask] = 0.0
        if np.array_equal(D, prev):
            return D
    return None  # did not converge; caller routes unguided


# ---------------------------------------------------------------------- #
# public entry point
# ---------------------------------------------------------------------- #


def resolve_backend(backend: str) -> str:
    """The backend ``backend`` runs as: ``"auto"`` is ``"csgraph"`` when
    scipy is importable and ``"sweep"`` otherwise."""
    if backend == "auto":
        return "csgraph" if HAVE_SCIPY else "sweep"
    return backend


def future_cost_map(
    passable: np.ndarray,
    cost: np.ndarray,
    horizontal: Sequence[bool],
    alpha: float,
    beta: float,
    wrong_way: float,
    target_mask: np.ndarray,
    backend: str = "auto",
    limit: float = _INF,
) -> Optional[np.ndarray]:
    """Exact cost-to-go of every window cell toward the target set.

    Parameters mirror the fast search's folded state: ``passable`` (bool
    array, layers x wx x wy), ``cost`` (the folded Eq. (5) + penalty
    grid), the per-layer direction table, the CostParams step weights,
    and the target mask. Returns a float64 array of the same shape with
    ``inf`` for unreachable or impassable cells, or ``None`` when the
    window is degenerate (guidance simply stays off for that search).

    A finite ``limit`` lets the csgraph backend stop the solve there:
    every cell with ``d <= limit`` still gets its exact distance, cells
    beyond get ``inf``. The sweep backend ignores it.
    """
    num_layers, wx, wy = passable.shape
    if wx < 2 or wy < 2 or not target_mask.any():
        return None
    backend = resolve_backend(backend)
    if backend == "csgraph":
        if not HAVE_SCIPY:
            raise RuntimeError("csgraph guidance backend requires scipy")
        return _csgraph_map(
            passable, cost, horizontal, alpha, beta, wrong_way, target_mask,
            limit,
        )
    if backend == "sweep":
        return _sweep_map(
            passable, cost, horizontal, alpha, beta, wrong_way, target_mask
        )
    raise ValueError(f"unknown guidance backend: {backend!r}")
