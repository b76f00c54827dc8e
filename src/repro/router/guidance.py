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

The A* search uses the map as a **corridor bound** rather than as a
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
optimal source lies inside the limit, so ``T`` is unchanged too.

Construction: the window graph is assembled as a fixed-slot CSR matrix
with fully vectorized numpy index arithmetic — per-cell in-edges are
``[via down, in-layer back, in-layer forward, via up]`` (plus the two
wrong-way slots when enabled), invalid slots carry ``inf`` which
``scipy.sparse.csgraph`` treats as a non-edge — and one multi-source
``dijkstra(min_only=True)`` from the target cells solves it in C.
Structures (indices/indptr/step tables) are LRU-cached per window shape
so repeat searches only pay the data fill. The property tests pin the
map to a scalar reference Dijkstra and to an independent pure-numpy
Bellman–Ford sweep.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as _sp
import scipy.sparse.csgraph as _csg

#: Slack added to the corridor bound: far above accumulated float64
#: summation-order noise (~1e-10 on realistic path costs), far below any
#: genuine cost difference the parameter set can produce.
PRUNE_EPS = 1e-6

#: Default number of unguided expansions after which ``guidance="auto"``
#: switches the running search over to map-guided pruning.
AUTO_TRIGGER_EXPANSIONS = 192

#: Window extents are padded up to multiples of this so the CSR
#: structure cache hits across similar windows.
#: Padded cells are impassable (``inf`` entry cost), so the map restricted
#: to the real window is exact.
_SHAPE_PAD = 8

_INF = float("inf")


def prune_threshold(total: float) -> float:
    """The corridor bound for an optimal cost ``total`` (noise-padded)."""
    return total + PRUNE_EPS + 1e-9 * abs(total)


# ---------------------------------------------------------------------- #
# CSR construction
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


def future_cost_map(
    passable: np.ndarray,
    cost: np.ndarray,
    horizontal: Sequence[bool],
    alpha: float,
    beta: float,
    wrong_way: float,
    target_mask: np.ndarray,
    limit: float = _INF,
) -> Optional[np.ndarray]:
    """Exact cost-to-go of every window cell toward the target set.

    Parameters mirror the search's folded state: ``passable`` (bool
    array, layers x wx x wy), ``cost`` (the folded Eq. (5) + penalty
    grid), the per-layer direction table, the CostParams step weights,
    and the target mask. Returns a float64 array of the same shape with
    ``inf`` for unreachable or impassable cells, or ``None`` when the
    window is degenerate (guidance simply stays off for that search).

    A finite ``limit`` stops the solve there: every cell with
    ``d <= limit`` still gets its exact distance, cells beyond get
    ``inf``.
    """
    num_layers, wx, wy = passable.shape
    if wx < 2 or wy < 2 or not target_mask.any():
        return None
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
