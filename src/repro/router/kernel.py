"""Compiled A* inner loop for the fast search path.

This module holds a third implementation of the search loop in
:mod:`repro.router.astar` — the same flat-array state the fast path
uses, but with the heap, neighbour relaxation, direction/parity tables,
guidance corridor pruning and budget accounting expressed as
numba-jittable functions over numpy arrays. numba is **optional**: when
it is not importable the very same functions run interpreted (the
``njit`` decorator degrades to identity), so the kernel path stays
executable — and testable for bit-identity — in minimal environments.

Equivalence contract (the PR-2 ``use_reference`` pattern, one level up):
the kernel must return the identical node sequence, cost, outcome and
``(expansions, pushes, pops)`` counter triple as
:meth:`AStarRouter._search_fast` for every request. Three properties
make that hold:

* heap entries are ``(f, g, tiebreak, idx)`` with a unique, strictly
  increasing tiebreak per push — a strict total order — so *any*
  correct binary min-heap pops the exact sequence ``heapq`` does;
* every float expression mirrors the fast path's evaluation order
  (``g + step + cost[n]`` then ``ng + alpha*(dx+dy) + vb[...]``, all
  left-associative), so IEEE rounding is bit-identical;
* neighbours relax in the same tuple order (preferred direction, then
  wrong-way jogs, then vias down/up), so tiebreak counters match.

The loop is *resumable*: it returns a status code and persists its heap
and counters in caller-owned arrays, so the Python driver can grow the
heap (``HEAPFULL``) or build a guidance map mid-search (``TRIGGER`` —
the map build stays in Python/scipy, exactly like the fast path's
in-place activation) and re-enter without losing state.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..grid import CellState
from .overlay_cache import overlay_cost_grid

try:  # numba is deliberately optional — never a hard dependency.
    from numba import njit as _numba_njit

    HAVE_NUMBA = True
except Exception:  # pragma: no cover - exercised only without numba
    _numba_njit = None
    HAVE_NUMBA = False


def njit(*args, **kwargs):
    """``numba.njit`` when available, identity decorator otherwise.

    The interpreted fallback runs the *same* code paths, so the
    equivalence suite is meaningful even where numba is absent.
    """
    if HAVE_NUMBA:
        return _numba_njit(*args, **kwargs)

    def _identity(func):
        return func

    return _identity


def resolve_kernel(knob: str) -> bool:
    """Whether a ``kernel=`` knob value selects the kernel path.

    ``"python"`` never does; ``"numba"`` always does (interpreted when
    numba is missing — slow but bit-identical, which is what the
    equivalence tests exercise); ``"auto"`` does exactly when numba is
    importable, so the default never pays interpreter overhead.
    """
    if knob == "python":
        return False
    if knob == "numba":
        return True
    if knob == "auto":
        return HAVE_NUMBA
    raise ValueError(f"unknown kernel mode: {knob!r}")


def kernel_backend_name() -> str:
    """``"numba"`` or ``"interpreted"`` — what the kernel path runs as."""
    return "numba" if HAVE_NUMBA else "interpreted"


_FREE = int(CellState.FREE)
_INF = float("inf")

# Loop status codes.
FAILED = 0  #: heap drained without reaching a target
FOUND = 1  #: popped a target; its index is in ``istate[GOAL]``
BUDGET = 2  #: expansions exceeded the request budget
TRIGGER = 3  #: hit the guidance trigger; driver builds the map and resumes
HEAPFULL = 4  #: next expansion could overflow the heap; driver grows it

# ``istate`` slots (int64): mutable loop state that survives re-entry.
HEAP_SIZE = 0
COUNTER = 1  #: pushes so far == the fast path's ``next(counter)`` value
EXPANSIONS = 2
POPS = 3
GOAL = 4
PENDING = 5  #: 1 when a popped node awaits relaxation (TRIGGER resume)
PENDING_IDX = 6
_ISTATE_SLOTS = 7

#: Max heap pushes one expansion can make: 4 in-layer (incl. wrong-way
#: jogs) + 2 vias. The headroom check reserves this many slots.
_MAX_PUSHES_PER_EXPANSION = 6


@njit(cache=True)
def _heap_less(heap, i, j):
    """Strict lexicographic (f, g, tiebreak) order — matches tuple
    comparison on the fast path's ``(f, g, tiebreak, idx)`` entries
    (the unique tiebreak means idx never participates)."""
    if heap[i, 0] != heap[j, 0]:
        return heap[i, 0] < heap[j, 0]
    if heap[i, 1] != heap[j, 1]:
        return heap[i, 1] < heap[j, 1]
    return heap[i, 2] < heap[j, 2]


@njit(cache=True)
def _heap_swap(heap, i, j):
    for k in range(4):
        tmp = heap[i, k]
        heap[i, k] = heap[j, k]
        heap[j, k] = tmp


@njit(cache=True)
def _heap_push(heap, size, f, g, c, idx):
    """Insert ``(f, g, c, idx)``; returns the new size. The caller must
    have verified capacity (``size < heap.shape[0]``)."""
    heap[size, 0] = f
    heap[size, 1] = g
    heap[size, 2] = c
    heap[size, 3] = idx
    i = size
    while i > 0:
        p = (i - 1) >> 1
        if _heap_less(heap, i, p):
            _heap_swap(heap, i, p)
            i = p
        else:
            break
    return size + 1


@njit(cache=True)
def _heap_pop(heap, size, out):
    """Pop the minimum into ``out`` (f, g, idx); returns the new size."""
    out[0] = heap[0, 0]
    out[1] = heap[0, 1]
    out[2] = heap[0, 3]
    size -= 1
    if size > 0:
        for k in range(4):
            heap[0, k] = heap[size, k]
        i = 0
        while True:
            left = 2 * i + 1
            if left >= size:
                break
            smallest = left
            right = left + 1
            if right < size and _heap_less(heap, right, left):
                smallest = right
            if _heap_less(heap, smallest, i):
                _heap_swap(heap, smallest, i)
                i = smallest
            else:
                break
    return size


@njit(cache=True)
def _relax(
    heap,
    istate,
    best_g,
    parent,
    passable,
    cost,
    gd,
    has_gd,
    thr,
    vb,
    idx,
    nidx,
    layer,
    g,
    step_cost,
    nx,
    ny,
    txlo,
    txhi,
    tylo,
    tyhi,
    alpha,
):
    """One neighbour relaxation: passability, g-improvement, corridor
    prune, then push. Every float op mirrors the fast path exactly:
    ``ng = g + step_cost + cost[nidx]`` and
    ``f = ng + alpha * (dx + dy) + vb[...]``, both left-associative."""
    if passable[nidx] == 0:
        return
    ng = g + step_cost + cost[nidx]
    if ng < best_g[nidx]:
        if has_gd == 1 and ng + gd[nidx] > thr:
            return
        best_g[nidx] = ng
        parent[nidx] = idx
        dx = txlo - nx if nx < txlo else (nx - txhi if nx > txhi else 0)
        dy = tylo - ny if ny < tylo else (ny - tyhi if ny > tyhi else 0)
        f = ng + alpha * (dx + dy) + vb[
            layer * 4 + (2 if dx > 0 else 0) + (1 if dy > 0 else 0)
        ]
        c = istate[COUNTER]
        istate[COUNTER] = c + 1
        istate[HEAP_SIZE] = _heap_push(
            heap, istate[HEAP_SIZE], f, ng, float(c), float(nidx)
        )


@njit(cache=True)
def _kernel_loop(
    heap,
    istate,
    fstate,
    best_g,
    parent,
    passable,
    cost,
    is_target,
    gd,
    has_gd,
    thr,
    vb,
    horiz,
    num_layers,
    layer_stride,
    wx,
    wy,
    xlo,
    ylo,
    txlo,
    txhi,
    tylo,
    tyhi,
    alpha,
    beta,
    wrong_way,
    max_expansions,
    trigger,
    scratch,
):
    """The resumable search loop; returns a status code.

    Pop → staleness skip → goal test → corridor prune → expansion count
    → budget → guidance trigger → relax neighbours, in exactly the fast
    path's order. Suspension points (``TRIGGER``/``HEAPFULL``) leave all
    state in the caller-owned arrays; re-entering continues seamlessly
    (a pending popped node is relaxed before the next pop).
    """
    cap = heap.shape[0]
    while True:
        if istate[HEAP_SIZE] + _MAX_PUSHES_PER_EXPANSION > cap:
            return HEAPFULL
        if istate[PENDING] == 1:
            # Resuming after TRIGGER: this node already passed every
            # pre-relaxation check; go straight to its neighbours.
            istate[PENDING] = 0
            idx = istate[PENDING_IDX]
            g = fstate[0]
        else:
            if istate[HEAP_SIZE] == 0:
                return FAILED
            istate[HEAP_SIZE] = _heap_pop(heap, istate[HEAP_SIZE], scratch)
            g = scratch[1]
            idx = int(scratch[2])
            istate[POPS] += 1
            if g > best_g[idx]:
                continue
            if is_target[idx] == 1:
                istate[GOAL] = idx
                return FOUND
            if has_gd == 1 and g + gd[idx] > thr:
                continue
            istate[EXPANSIONS] += 1
            if istate[EXPANSIONS] > max_expansions:
                return BUDGET
            if istate[EXPANSIONS] == trigger:
                istate[PENDING] = 1
                istate[PENDING_IDX] = idx
                fstate[0] = g
                return TRIGGER

        layer = idx // layer_stride
        rem = idx - layer * layer_stride
        lx = rem // wy
        ly = rem - lx * wy
        x = xlo + lx
        y = ylo + ly

        # In-layer steps: preferred direction first, then wrong-way jogs
        # (same relaxation order as the fast path — tiebreaks depend on it).
        if horiz[layer] == 1:
            if lx > 0:
                _relax(heap, istate, best_g, parent, passable, cost, gd,
                       has_gd, thr, vb, idx, idx - wy, layer, g, alpha,
                       x - 1, y, txlo, txhi, tylo, tyhi, alpha)
            if lx + 1 < wx:
                _relax(heap, istate, best_g, parent, passable, cost, gd,
                       has_gd, thr, vb, idx, idx + wy, layer, g, alpha,
                       x + 1, y, txlo, txhi, tylo, tyhi, alpha)
            if wrong_way != 0.0:
                if ly > 0:
                    _relax(heap, istate, best_g, parent, passable, cost, gd,
                           has_gd, thr, vb, idx, idx - 1, layer, g, wrong_way,
                           x, y - 1, txlo, txhi, tylo, tyhi, alpha)
                if ly + 1 < wy:
                    _relax(heap, istate, best_g, parent, passable, cost, gd,
                           has_gd, thr, vb, idx, idx + 1, layer, g, wrong_way,
                           x, y + 1, txlo, txhi, tylo, tyhi, alpha)
        else:
            if ly > 0:
                _relax(heap, istate, best_g, parent, passable, cost, gd,
                       has_gd, thr, vb, idx, idx - 1, layer, g, alpha,
                       x, y - 1, txlo, txhi, tylo, tyhi, alpha)
            if ly + 1 < wy:
                _relax(heap, istate, best_g, parent, passable, cost, gd,
                       has_gd, thr, vb, idx, idx + 1, layer, g, alpha,
                       x, y + 1, txlo, txhi, tylo, tyhi, alpha)
            if wrong_way != 0.0:
                if lx > 0:
                    _relax(heap, istate, best_g, parent, passable, cost, gd,
                           has_gd, thr, vb, idx, idx - wy, layer, g, wrong_way,
                           x - 1, y, txlo, txhi, tylo, tyhi, alpha)
                if lx + 1 < wx:
                    _relax(heap, istate, best_g, parent, passable, cost, gd,
                           has_gd, thr, vb, idx, idx + wy, layer, g, wrong_way,
                           x + 1, y, txlo, txhi, tylo, tyhi, alpha)

        # Via moves (down then up, like the fast path's (layer-1, layer+1)).
        if layer > 0:
            _relax(heap, istate, best_g, parent, passable, cost, gd,
                   has_gd, thr, vb, idx, idx - layer_stride, layer - 1, g,
                   beta, x, y, txlo, txhi, tylo, tyhi, alpha)
        if layer + 1 < num_layers:
            _relax(heap, istate, best_g, parent, passable, cost, gd,
                   has_gd, thr, vb, idx, idx + layer_stride, layer + 1, g,
                   beta, x, y, txlo, txhi, tylo, tyhi, alpha)


def search_kernel(
    engine, request, extra_margin: int = 0
) -> Optional[Tuple[List[Tuple[int, int, int]], float, int]]:
    """Kernel twin of :meth:`AStarRouter._search_fast`.

    Builds the identical flat window state as numpy arrays, runs the
    compiled loop (re-entering across heap growth and in-place guidance
    activation), and returns ``(nodes, cost, expansions)`` — or ``None``
    with ``engine._last_stats``/``last_outcome`` set the same way the
    fast path sets them. The caller (``AStarRouter._search_kernel``)
    lowers nodes to segments/vias.
    """
    grid = engine.grid
    params = engine.params
    net_id = request.net_id
    occ = grid._occ
    num_layers = occ.shape[0]

    xlo, xhi, ylo, yhi = engine._window(request, extra_margin)
    wx = xhi - xlo + 1
    wy = yhi - ylo + 1
    layer_stride = wx * wy
    n = num_layers * layer_stride

    is_target = np.zeros(n, dtype=np.uint8)
    target_idx = []
    target_pts = []
    target_layers = []
    for layer, pt in request.targets:
        if grid.in_bounds(layer, pt) and occ[layer, pt.x, pt.y] in (_FREE, net_id):
            tidx = layer * layer_stride + (pt.x - xlo) * wy + (pt.y - ylo)
            is_target[tidx] = 1
            target_idx.append(tidx)
            target_pts.append(pt)
            target_layers.append(layer)
    if not target_pts:
        return None

    txlo = min(p.x for p in target_pts)
    txhi = max(p.x for p in target_pts)
    tylo = min(p.y for p in target_pts)
    tyhi = max(p.y for p in target_pts)
    alpha = params.alpha
    beta = params.beta
    wrong_way = alpha * params.wrong_way_factor if params.wrong_way_factor else 0.0
    horizontal = engine._horizontal

    occ_win = occ[:, xlo : xhi + 1, ylo : yhi + 1]
    passable = ((occ_win == _FREE) | (occ_win == net_id)).ravel().astype(np.uint8)

    if engine._overlay_terms is not None:
        own = engine.active_net
        if engine._overlay_cache is not None:
            cost_np = engine._overlay_cache.grid_for(own, (xlo, xhi, ylo, yhi))
        else:
            gamma, delta_tip = engine._overlay_terms
            cost_np = overlay_cost_grid(
                occ, horizontal, (xlo, xhi, ylo, yhi), own, gamma, delta_tip
            )
        # Always copy: the cache owns cost_np, and penalties fold in place.
        cost = np.array(cost_np, dtype=np.float64).ravel()
    else:
        cost = np.zeros(n, dtype=np.float64)

    pen_map = engine._penalty_map
    if pen_map:
        for (pl, px, py), amount in pen_map.items():
            if pl < num_layers and xlo <= px <= xhi and ylo <= py <= yhi:
                cost[pl * layer_stride + (px - xlo) * wy + (py - ylo)] += amount

    # Via lower bound table — the identical Python loop as the fast path
    # (it runs once per search over num_layers * 4 slots; not worth a
    # kernel), then frozen into an array for the loop.
    all_targets_horizontal = all(horizontal[l] for l in target_layers)
    all_targets_vertical = all(not horizontal[l] for l in target_layers)
    vb_list = [0.0] * (num_layers * 4)
    if not wrong_way:
        for layer in range(num_layers):
            for dx_pos in (0, 1):
                for dy_pos in (0, 1):
                    extra = 0
                    if dy_pos:
                        if horizontal[layer]:
                            extra += 1
                        if all_targets_horizontal:
                            extra += 1 if horizontal[layer] else 0
                    if dx_pos:
                        if not horizontal[layer]:
                            extra += 1
                        if all_targets_vertical:
                            extra += 1 if not horizontal[layer] else 0
                    vb_list[layer * 4 + dx_pos * 2 + dy_pos] = beta * extra
    vb = np.asarray(vb_list, dtype=np.float64)
    horiz = np.asarray(horizontal, dtype=np.uint8)

    best_g = np.full(n, _INF, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    cap = 1024
    heap = np.empty((cap, 4), dtype=np.float64)
    istate = np.zeros(_ISTATE_SLOTS, dtype=np.int64)
    istate[GOAL] = -1
    fstate = np.zeros(1, dtype=np.float64)
    scratch = np.empty(3, dtype=np.float64)

    counter = 0
    source_idx = []
    for layer, pt in request.sources:
        if not grid.in_bounds(layer, pt):
            continue
        if occ[layer, pt.x, pt.y] not in (_FREE, net_id):
            continue
        idx = layer * layer_stride + (pt.x - xlo) * wy + (pt.y - ylo)
        source_idx.append(idx)
        g = cost[idx]
        if g < best_g[idx]:
            best_g[idx] = g
            dx = txlo - pt.x if pt.x < txlo else (pt.x - txhi if pt.x > txhi else 0)
            dy = tylo - pt.y if pt.y < tylo else (pt.y - tyhi if pt.y > tyhi else 0)
            f = g + alpha * (dx + dy) + vb[layer * 4 + (dx > 0) * 2 + (dy > 0)]
            if istate[HEAP_SIZE] >= cap:
                cap *= 2
                grown = np.empty((cap, 4), dtype=np.float64)
                grown[: istate[HEAP_SIZE]] = heap[: istate[HEAP_SIZE]]
                heap = grown
            istate[HEAP_SIZE] = _heap_push(
                heap, int(istate[HEAP_SIZE]), float(f), float(g),
                float(counter), float(idx)
            )
            counter += 1
    istate[COUNTER] = counter
    if istate[HEAP_SIZE] == 0:
        return None

    # Guidance trigger resolution — identical to the fast path.
    gmode = engine.guidance
    trigger = 0 if gmode == "on" else (
        engine.guidance_trigger if gmode == "auto" else -1
    )

    gd = np.empty(0, dtype=np.float64)
    has_gd = 0
    thr = _INF

    def activate():
        # The folded cost array already equals the one the fast path
        # folds at activation (same source grid, same penalty order),
        # so the shared helper builds the bit-identical map.
        return engine._guidance_map(
            net_id, (xlo, xhi, ylo, yhi), occ_win, is_target, cost,
            best_g, target_idx, source_idx,
        )

    if trigger == 0:
        built, thr = activate()
        if built is not None:
            gd = built
            has_gd = 1
        trigger = -1

    max_expansions = request.max_expansions
    while True:
        status = _kernel_loop(
            heap, istate, fstate, best_g, parent, passable, cost, is_target,
            gd, has_gd, thr, vb, horiz, num_layers, layer_stride, wx, wy,
            xlo, ylo, txlo, txhi, tylo, tyhi, alpha, beta, wrong_way,
            max_expansions, trigger, scratch,
        )
        if status == HEAPFULL:
            cap = heap.shape[0] * 2
            grown = np.empty((cap, 4), dtype=np.float64)
            grown[: istate[HEAP_SIZE]] = heap[: istate[HEAP_SIZE]]
            heap = grown
            continue
        if status == TRIGGER:
            built, thr = activate()
            if built is not None:
                gd = built
                has_gd = 1
            trigger = -1
            continue
        break

    expansions = int(istate[EXPANSIONS])
    pushes = int(istate[COUNTER])
    pops = int(istate[POPS])
    if status == BUDGET:
        engine._last_stats = (expansions, pushes, pops)
        engine.last_outcome = "budget_exhausted"
        return None
    engine._last_stats = (expansions, pushes, pops)
    if status != FOUND:
        return None
    goal = int(istate[GOAL])
    nodes: List[Tuple[int, int, int]] = []
    cur = goal
    while cur >= 0:
        layer = cur // layer_stride
        rem = cur - layer * layer_stride
        lx = rem // wy
        nodes.append((layer, xlo + lx, ylo + rem - lx * wy))
        cur = int(parent[cur])
    nodes.reverse()
    return nodes, float(best_g[goal]), expansions
