"""Slow, obviously-correct reference implementations.

Cross-check oracles for the optimised algorithms — used by the property
tests, by :func:`repro.router.reference.reference_router`, and available
to future maintainers chasing a miscompare:

* :class:`ScenarioDetector` — per-fragment scenario detection over a
  ``GridIndex``, one ``classify_relation`` call per candidate pair (the
  production :class:`~repro.core.scenario_detect.VectorScenarioDetector`
  must emit the same scenarios in the same order);
* :func:`reference_dependent_pairs` — O(n²) scenario detection;
* :func:`reference_hard_feasible` — hard-edge satisfiability via
  networkx bipartiteness on the dummy-vertex expansion (the paper's
  Fig. 11(b) encoding, literally);
* :func:`reference_unit_colors` and :func:`reference_tree_coloring` —
  the color-flipping kernel (maximum spanning forest, Eq. (4) DP,
  refinement) on :class:`~repro.color.Color` values and 2x2 matrices
  with explicit transposes (the production
  :mod:`~repro.core.color_flip` kernel on 0/1 colors must return the
  same unit colors, in the same order).

None of these are performance-relevant; they trade every optimisation for
transparency.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..color import Color
from ..geometry import GridIndex, Segment
from .edges import ConstraintEdge
from .relation import classify_relation
from .scenario_detect import NEIGHBOUR_RADIUS, DetectedScenario, ShapeRecord
from .odd_cycle import ParityUnionFind
from .scenarios import SCENARIO_RULES, ScenarioType, scenario_for_relation

if TYPE_CHECKING:
    from .color_flip import _UnitGraph


class ScenarioDetector:
    """Per-layer spatial index + pairwise scenario classification.

    The detector is the geometry front-end of the overlay constraint graph:
    ``add_net`` returns the new scenario instances the net creates, and
    ``remove_net`` forgets a ripped-up net.
    """

    def __init__(self, num_layers: int, include_trivial: bool = False) -> None:
        self._indexes: List[GridIndex[ShapeRecord]] = [
            GridIndex(bucket_size=8) for _ in range(num_layers)
        ]
        self._shapes_by_net: Dict[int, List[ShapeRecord]] = {}
        # Types 2-c, 2-d and 3-e never induce side overlay; the paper drops
        # them from the constraint graph ("the three scenarios are not
        # considered"). Pass include_trivial=True to see them anyway.
        self._include_trivial = include_trivial

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_net(
        self, net_id: int, segments: Iterable[Segment]
    ) -> List[DetectedScenario]:
        """Register a routed net's segments; returns the induced scenarios."""
        records = [
            ShapeRecord(
                net_id=net_id,
                rect=seg.to_rect(),
                horizontal=seg.horizontal,
                layer=seg.layer,
            )
            for seg in segments
        ]
        detected = []
        for record in records:
            detected.extend(self._scan(record))
        for record in records:
            self._indexes[record.layer].insert(record.rect, record)
        self._shapes_by_net.setdefault(net_id, []).extend(records)
        return detected

    def remove_net(self, net_id: int) -> int:
        """Forget a net's shapes; returns how many fragments were removed."""
        records = self._shapes_by_net.pop(net_id, [])
        for record in records:
            self._indexes[record.layer].remove(record.rect, record)
        return len(records)

    def shapes_of(self, net_id: int) -> List[ShapeRecord]:
        return list(self._shapes_by_net.get(net_id, []))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def probe_segments(
        self, net_id: int, segments: Iterable[Segment]
    ) -> List[DetectedScenario]:
        """What scenarios *would* these segments create? (no mutation)

        The router's what-if analysis during rip-up & reroute uses this to
        price candidate paths without committing them.
        """
        detected = []
        for seg in segments:
            record = ShapeRecord(
                net_id=net_id,
                rect=seg.to_rect(),
                horizontal=seg.horizontal,
                layer=seg.layer,
            )
            detected.extend(self._scan(record))
        return detected

    def _scan(self, record: ShapeRecord) -> List[DetectedScenario]:
        """Scenarios between ``record`` and existing fragments of other nets."""
        index = self._indexes[record.layer]
        out: List[DetectedScenario] = []
        for rect, other in index.neighbours(record.rect, NEIGHBOUR_RADIUS):
            if other.net_id == record.net_id:
                continue
            rel = classify_relation(
                record.rect, record.horizontal, rect, other.horizontal
            )
            if rel is None:
                continue
            stype = scenario_for_relation(rel)
            if stype is None:
                continue
            if not self._include_trivial and SCENARIO_RULES[stype].is_trivial:
                continue
            out.append(
                DetectedScenario(
                    layer=record.layer,
                    net_a=record.net_id,
                    net_b=other.net_id,
                    scenario=stype,
                    a_is_tip_owner=rel.a_is_tip_owner,
                    overlap=rel.overlap,
                    rect_a=record.rect,
                    rect_b=rect,
                )
            )
        return out


def reference_dependent_pairs(
    nets: Dict[int, Sequence[Segment]], include_trivial: bool = False
) -> List[Tuple[int, int, ScenarioType]]:
    """All scenario instances among the given nets, O(n²) brute force.

    Returns unordered-pair records ``(net_a, net_b, scenario)`` — one per
    fragment pair, with ``net_a < net_b`` — against which the incremental
    detector's output can be compared as a multiset.
    """
    flat = [
        (net_id, seg.to_rect(), seg.horizontal)
        for net_id, segs in nets.items()
        for seg in segs
        if seg.layer == 0  # reference is single-layer by construction
    ]
    out: List[Tuple[int, int, ScenarioType]] = []
    for (na, ra, ha), (nb, rb, hb) in combinations(flat, 2):
        if na == nb:
            continue
        rel = classify_relation(ra, ha, rb, hb)
        if rel is None:
            continue
        stype = scenario_for_relation(rel)
        if stype is None:
            continue
        if not include_trivial and SCENARIO_RULES[stype].is_trivial:
            continue
        lo, hi = min(na, nb), max(na, nb)
        out.append((lo, hi, stype))
    return out


def reference_hard_feasible(edges: Iterable[ConstraintEdge]) -> bool:
    """Two-colorability of the hard edges via networkx bipartiteness.

    Expands every hard-same edge into a dummy vertex with two
    hard-different edges — the literal Fig. 11(b) construction — and asks
    networkx whether the resulting graph is bipartite.
    """
    import networkx as nx

    g = nx.Graph()
    for i, edge in enumerate(edges):
        if not edge.kind.is_hard:
            continue
        g.add_node(edge.u)
        g.add_node(edge.v)
        if edge.parity == 1:
            g.add_edge(edge.u, edge.v)
        else:
            dummy = ("dummy", i)
            g.add_edge(edge.u, dummy)
            g.add_edge(dummy, edge.v)
    if g.number_of_nodes() == 0:
        return True
    return nx.is_bipartite(g)


# ---------------------------------------------------------------------- #
# Color flipping on Color values
# ---------------------------------------------------------------------- #

_COLORS = (Color.CORE, Color.SECOND)
_IDX = {Color.CORE: 0, Color.SECOND: 1}

#: A 2x2 cost matrix m[color_a][color_b].
Matrix = List[List[float]]


def _square(flat: Sequence[float]) -> Matrix:
    return [[flat[0], flat[1]], [flat[2], flat[3]]]


def _matrix_spread(m: Matrix) -> float:
    flat = [m[i][j] for i in range(2) for j in range(2)]
    return max(flat) - min(flat)


def _maximum_spanning_forest(ug: "_UnitGraph") -> Dict[int, List[Tuple[int, Matrix]]]:
    """Kruskal by descending spread; returns adjacency of the kept edges."""
    uf = ParityUnionFind()  # reused as a plain union-find (parity 0)
    for unit in ug.units:
        uf.add(unit)
    pairs = [(key, _square(m)) for key, m in ug.pair_cost.items()]
    ranked = sorted(pairs, key=lambda kv: (-_matrix_spread(kv[1]), kv[0]))
    adjacency: Dict[int, List[Tuple[int, Matrix]]] = {u: [] for u in ug.units}
    for (a, b), matrix in ranked:
        if uf.same_set(a, b):
            continue  # non-tree edge: ignored by the DP, as in the paper
        uf.union(a, b, 0)
        adjacency[a].append((b, matrix))
        transposed = [[matrix[j][i] for j in range(2)] for i in range(2)]
        adjacency[b].append((a, transposed))
    return adjacency


def reference_tree_coloring(
    adjacency: Dict[int, List[Tuple[int, Matrix]]],
    self_cost: Dict[int, List[float]],
    root: int,
) -> Tuple[Dict[int, Color], float]:
    """Eq. (4): bottom-up DP on a tree from ``root``, then backtrace.

    ``adjacency[u]`` lists ``(v, matrix)`` with ``matrix[color_u][color_v]``.
    Returns (unit colors, total cost), like
    :func:`repro.core.color_flip.optimal_tree_coloring`.
    """
    order: List[int] = []
    parent: Dict[int, Optional[int]] = {root: None}
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for child, _ in adjacency.get(node, ()):
            if child not in parent:
                parent[child] = node
                stack.append(child)

    cost: Dict[int, List[float]] = {}
    pick: Dict[int, Dict[int, List[int]]] = {}  # node -> child -> best child color per node color
    for node in reversed(order):
        c = list(self_cost.get(node, [0.0, 0.0]))
        pick[node] = {}
        for child, matrix in adjacency.get(node, ()):
            if parent.get(child) != node:
                continue
            best_for = []
            for i in range(2):
                options = [cost[child][j] + matrix[i][j] for j in range(2)]
                j_best = 0 if options[0] <= options[1] else 1
                best_for.append(j_best)
                c[i] += options[j_best]
            pick[node][child] = best_for
        cost[node] = c

    colors: Dict[int, Color] = {}
    root_idx = 0 if cost[root][0] <= cost[root][1] else 1
    total = cost[root][root_idx]
    colors[root] = _COLORS[root_idx]
    for node in order:
        i = _IDX[colors[node]]
        for child, chosen in pick[node].items():
            colors[child] = _COLORS[chosen[i]]
    return colors, total


def _reachable(adjacency: Dict[int, List[Tuple[int, Matrix]]], start: int) -> Set[int]:
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for other, _ in adjacency.get(node, ()):
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


def _refine_unit_colors(
    ug: "_UnitGraph", colors: Dict[int, Color], max_sweeps: int = 3
) -> None:
    """Mirror check, then bounded single-unit flip sweeps over all pairs."""
    pair_cost = {key: _square(m) for key, m in ug.pair_cost.items()}
    incident: Dict[int, List[Tuple[int, Matrix]]] = {u: [] for u in ug.units}
    for (a, b), matrix in pair_cost.items():
        incident[a].append((b, matrix))
        incident[b].append((a, [[matrix[j][i] for j in range(2)] for i in range(2)]))

    def total(assign: Dict[int, Color]) -> float:
        cost = sum(ug.self_cost[u][_IDX[assign[u]]] for u in ug.units)
        for (a, b), matrix in pair_cost.items():
            cost += matrix[_IDX[assign[a]]][_IDX[assign[b]]]
        return cost

    mirrored = {u: c.flipped for u, c in colors.items()}
    if total(mirrored) < total(colors):
        colors.update(mirrored)

    for _ in range(max_sweeps):
        improved = False
        for unit in ug.units:
            current = _IDX[colors[unit]]
            flipped = 1 - current
            delta = ug.self_cost[unit][flipped] - ug.self_cost[unit][current]
            for other, matrix in incident[unit]:
                j = _IDX[colors[other]]
                delta += matrix[flipped][j] - matrix[current][j]
            if delta < 0:
                colors[unit] = _COLORS[flipped]
                improved = True
        if not improved:
            break


def reference_unit_colors(ug: "_UnitGraph") -> Dict[int, Color]:
    """Unit colors of a contracted component: spanning forest, a DP per
    tree from its first unit, then refinement."""
    adjacency = _maximum_spanning_forest(ug)
    unit_colors: Dict[int, Color] = {}
    seen: Set[int] = set()
    for unit in ug.units:
        if unit in seen:
            continue
        tree_nodes = _reachable(adjacency, unit)
        seen |= tree_nodes
        tree_colors, _ = reference_tree_coloring(
            {n: adjacency[n] for n in tree_nodes}, ug.self_cost, unit
        )
        unit_colors.update(tree_colors)
    _refine_unit_colors(ug, unit_colors)
    return unit_colors
