"""Future-cost guidance maps for the A* hot path.

A guidance map is the exact cost-to-go ``d(n)``: for every window cell
``n = (layer, x, y)``, the cheapest cost of reaching *any* search target
from ``n`` under the same edge costs the forward search pays — ``alpha``
per preferred-direction step, ``beta`` per via, plus the folded per-cell
extra cost (the Eq. (5) overlay term and rip-up penalties) of every cell
*entered*. ``d`` is computed backward from the targets over the frozen
window, so it is an admissible **and** consistent heuristic by
construction (it is the true remaining cost, which trivially satisfies
``d(u) <= w(u, v) + d(v)``).

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
optimal source lies inside the limit, so ``T`` is unchanged too. A
retry's search also carries the path its previous attempt found
(``SearchRequest.incumbent``). When that path still starts at a source,
ends at a target, stays in the window and makes only the search's own
moves, its cost on the search's ``entry`` grid, summed as the search
sums g-scores, is a real path's cost as well, and ``ub`` is the cheaper
of the two.

Construction: the map is solved over the search's own ``entry`` grid
(the folded per-cell cost, ``inf`` where impassable). The window graph
is assembled as a fixed-slot CSR matrix with fully vectorized numpy
index arithmetic — per-cell in-edges are the four slots ``[via down,
in-layer back, in-layer forward, via up]``, and every in-edge of an
impassable cell, like every invalid slot, carries ``inf``, which
``scipy.sparse.csgraph`` treats as a non-edge — and one multi-source
``dijkstra(min_only=True)`` from the target cells solves it in C.
Skeletons (indices, step tables and boundary slots; no weights)
are LRU-cached per padded window shape, and every solve writes its
weights into one shared buffer set as the skeleton's data, so repeat
searches only pay that fill. All skeletons share one ``indptr``
array. The property tests pin the map to a scalar reference Dijkstra
and to an independent pure-numpy Bellman–Ford sweep.
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

#: Default number of unguided expansions after which a running search
#: switches over to map-guided pruning (``AStarRouter.guidance_trigger``).
AUTO_TRIGGER_EXPANSIONS = 192

#: Window extents are padded up to multiples of this so the CSR
#: structure cache hits across similar windows.
#: Padded cells are impassable (``inf`` entry cost), so the map restricted
#: to the real window is exact.
_SHAPE_PAD = 8

_INF = float("inf")

#: In-edges per cell: via down, in-layer back, in-layer forward, via up.
_SLOTS = 4


def prune_threshold(total: float) -> float:
    """The corridor bound for an optimal cost ``total`` (noise-padded)."""
    return total + PRUNE_EPS + 1e-9 * abs(total)


# ---------------------------------------------------------------------- #
# CSR construction
# ---------------------------------------------------------------------- #


class _CsrStructure:
    """Shape-dependent CSR skeleton: indices, indptr, slot step tables.

    Everything except the per-call edge weights, which live in the one
    shared buffer of :func:`_weights`. The weight of every in-edge of
    cell ``v`` in the *reverse* graph is ``step + A[v]`` (``A`` = folded
    cell cost, ``inf`` when impassable), so a call only broadcasts ``A``
    across the slot columns and masks the static boundary slots — no
    Python per-cell work.
    """

    __slots__ = ("n", "graph", "steps", "invalid_idx")

    def __init__(
        self,
        num_layers: int,
        wx: int,
        wy: int,
        horizontal: Tuple[bool, ...],
        alpha: float,
        beta: float,
    ) -> None:
        stride = wx * wy
        n = num_layers * stride
        hl = np.asarray(horizontal[:num_layers], dtype=bool)
        off = np.where(hl, wy, 1).astype(np.int64)[:, None, None]
        offsets = [-stride, -off, off, stride]
        idx = np.arange(n, dtype=np.int64).reshape(num_layers, wx, wy)

        cols = np.empty((n, _SLOTS), dtype=np.int32)
        invalid = np.zeros((num_layers, wx, wy, _SLOTS), dtype=bool)
        for s, off_s in enumerate(offsets):
            # Wrapped columns stay in-range; every wrapped slot is masked
            # invalid below, and invalid slots carry inf weights which
            # csgraph treats as non-edges.
            cols[:, s] = ((idx + off_s) % n).ravel()
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

        self.n = n
        # Each solve sets its own weights as the data (under ``_lock``).
        self.graph = _sp.csr_matrix(
            (_weights(n * _SLOTS), cols.ravel(), _indptr(n)),
            shape=(n, n),
            copy=False,
        )
        self.steps = np.array([beta, alpha, alpha, beta], dtype=np.float64)
        # Flat positions of the boundary slots — integer fancy indexing
        # is cheaper than a boolean mask of the whole (n, k) plane on
        # every fill. Kept int64: numpy converts an int32 index array on
        # every ``data[idx] = inf``, which made that write about 2x slower.
        self.invalid_idx = np.flatnonzero(invalid.reshape(-1))


_structures: "OrderedDict[tuple, _CsrStructure]" = OrderedDict()
_STRUCT_CACHE_MAX = 64
_lock = threading.Lock()
_weight_buf = np.empty(0, dtype=np.float64)
_indptr_buf = np.empty(0, dtype=np.int32)


def _weights(size: int) -> np.ndarray:
    """The first ``size`` slots of the shared edge-weight buffer.

    Call under ``_lock``. A skeleton keeps the buffer it last solved
    with; the buffer at least doubles when it grows, so the outgrown
    buffers skeletons still hold add up to less than the current one.
    """
    global _weight_buf
    if _weight_buf.size < size:
        _weight_buf = np.empty(max(size, 2 * _weight_buf.size), dtype=np.float64)
    return _weight_buf[:size]


def _indptr(n: int) -> np.ndarray:
    """``arange(0, n*_SLOTS + 1, _SLOTS)`` as a prefix of one shared array.

    Call under ``_lock``. Every skeleton shares the int32 array; it at
    least doubles when it grows, like :func:`_weights`, and skeletons
    keep the outgrown ones they were built on.
    """
    global _indptr_buf
    if _indptr_buf.size <= n:
        size = max(n + 1, 2 * _indptr_buf.size)
        _indptr_buf = np.arange(0, size * _SLOTS, _SLOTS, dtype=np.int32)
    return _indptr_buf[: n + 1]


def _structure_for(
    num_layers: int,
    wx: int,
    wy: int,
    horizontal: Tuple[bool, ...],
    alpha: float,
    beta: float,
) -> _CsrStructure:
    key = (num_layers, wx, wy, horizontal, alpha, beta)
    struct = _structures.get(key)
    if struct is None:
        struct = _CsrStructure(num_layers, wx, wy, horizontal, alpha, beta)
        _structures[key] = struct
    _structures.move_to_end(key)
    while len(_structures) > _STRUCT_CACHE_MAX:
        _structures.popitem(last=False)
    return struct


def future_cost_map(
    entry: np.ndarray,
    horizontal: Sequence[bool],
    alpha: float,
    beta: float,
    target_mask: np.ndarray,
    limit: float = _INF,
) -> Optional[np.ndarray]:
    """Exact cost-to-go of every window cell toward the target set.

    Parameters mirror the search's own state: ``entry`` (float64 array,
    layers x wx x wy: the cost of entering each cell, i.e. the folded
    Eq. (5) + penalty grid, ``inf`` where the cell is impassable), the
    per-layer direction table, the CostParams step weights, and the
    target mask. Returns a float64 array of the same shape with ``inf``
    for unreachable or impassable cells, or ``None`` when the window is
    degenerate (guidance simply stays off for that search).

    A finite ``limit`` stops the solve there: every cell with
    ``d <= limit`` still gets its exact distance, cells beyond get
    ``inf``.
    """
    num_layers, wx, wy = entry.shape
    if wx < 2 or wy < 2 or not target_mask.any():
        return None
    # Quantize the window shape so repeat searches share CSR skeletons.
    # Padding cells are impassable: their entry cost is inf, csgraph sees
    # no edges through them, and the slice back to the real extent is
    # bit-identical to an unpadded solve.
    pwx = -(-wx // _SHAPE_PAD) * _SHAPE_PAD
    pwy = -(-wy // _SHAPE_PAD) * _SHAPE_PAD
    if (pwx, pwy) != (wx, wy):
        entry_p = np.full((num_layers, pwx, pwy), _INF)
        entry_p[:, :wx, :wy] = entry
        tmask = np.zeros((num_layers, pwx, pwy), dtype=bool)
        tmask[:, :wx, :wy] = target_mask
    else:
        entry_p, tmask = entry, target_mask
    with _lock:
        struct = _structure_for(
            num_layers,
            pwx,
            pwy,
            tuple(bool(h) for h in horizontal[:num_layers]),
            alpha,
            beta,
        )
        # Broadcast-add straight into the weight buffer, then stamp the
        # boundary slots; no (n, k) temporary.
        data = _weights(struct.n * _SLOTS)
        np.add(
            entry_p.reshape(num_layers, pwx, pwy, 1),
            struct.steps,
            out=data.reshape(num_layers, pwx, pwy, _SLOTS),
        )
        data[struct.invalid_idx] = _INF
        struct.graph.data = data
        targets = np.flatnonzero(tmask.ravel())
        dist = _csg.dijkstra(
            struct.graph, indices=targets, min_only=True, limit=limit
        )
    dist = dist.reshape(num_layers, pwx, pwy)[:, :wx, :wy]
    # The reverse solve reaches an impassable cell from a passable
    # neighbour; the cell itself cannot be entered, so its cost-to-go is
    # inf by definition.
    dist[entry == _INF] = _INF
    return dist
