"""Linear-time color flipping (Section III-C, Theorem 4).

Fixing net colors at route time wastes routing resources; the paper instead
re-optimises colors globally whenever a freshly routed net induces too much
side overlay, and once more after all nets are routed. The algorithm:

1. **Super-vertex contraction** — nets joined by hard edges have forced
   relative colors (parity); each hard-connected group collapses to one
   *unit* with two legal colorings. This subsumes the paper's even-cycle
   reduction (Fig. 12) and its dummy vertices.
2. **Maximum spanning tree** — per component of the (contracted) graph,
   keep the most significant soft edges; edge weight is how much side
   overlay mis-coloring that edge can cost (hard edges weigh infinitely,
   but they are already inside units).
3. **Flipping-graph DP** — every unit splits into a CORE and a SECOND
   vertex; Eq. (4) computes the minimum subtree cost bottom-up; a
   backtrace reads off the optimal assignment. O(V + E) total.

On graphs whose contracted soft structure is a forest the result is
globally optimal (Theorem 4); non-tree soft edges are ignored during the
DP, exactly as in the paper.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..color import Color
from .constraint_graph_soa import ConstraintGraph
from .edges import ConstraintEdge
from .odd_cycle import ParityUnionFind

_COLORS = (Color.CORE, Color.SECOND)
_IDX = {Color.CORE: 0, Color.SECOND: 1}

#: A 2x2 cost matrix m[color_a][color_b] over unit root colors.
CostMatrix = List[List[float]]


def _matrix_spread(m: CostMatrix) -> float:
    flat = [m[i][j] for i in range(2) for j in range(2)]
    return max(flat) - min(flat)


class _UnitGraph:
    """The contracted (super-vertex) view of one OCG component."""

    def __init__(self) -> None:
        self.units: List[int] = []  # unit ids are hard-UF roots, stable order
        self.members: Dict[int, List[Tuple[int, int]]] = {}  # unit -> [(net, parity)]
        self.self_cost: Dict[int, List[float]] = {}  # unit -> [cost_C, cost_S]
        self.pair_cost: Dict[Tuple[int, int], CostMatrix] = {}  # (u<v) -> matrix

    def add_pair_cost(self, a: int, b: int, matrix: CostMatrix) -> None:
        if a == b:
            raise ValueError("self edges go to self_cost")
        if a > b:
            a, b = b, a
            matrix = [[matrix[j][i] for j in range(2)] for i in range(2)]
        acc = self.pair_cost.get((a, b))
        if acc is None:
            # Adopt the caller's matrix outright — callers hand over a
            # fresh one per edge, so no zero-matrix allocation is needed
            # (and 0.0 + x == x bit-exactly for these non-negative costs).
            self.pair_cost[(a, b)] = matrix
            return
        for i in range(2):
            for j in range(2):
                acc[i][j] += matrix[i][j]


def _contract(
    edges: Sequence[ConstraintEdge], nets: Iterable[int]
) -> Optional[_UnitGraph]:
    """Contract hard components; None when hard edges are inconsistent."""
    uf = ParityUnionFind()
    for net in nets:
        uf.add(net)
    for edge in edges:
        if edge.kind.is_hard and not uf.union(edge.u, edge.v, edge.parity):
            return None

    ug = _UnitGraph()
    for net in sorted(set(nets)):
        root, parity = uf.find(net)
        if root not in ug.members:
            ug.members[root] = []
            ug.units.append(root)
            ug.self_cost[root] = [0.0, 0.0]
        ug.members[root].append((net, parity))

    for edge in edges:
        if edge.kind.is_hard:
            continue  # already encoded in the parities
        root_u, pu = uf.find(edge.u)
        root_v, pv = uf.find(edge.v)
        if root_u == root_v:
            # Cost depends only on the unit's root color.
            for color in _COLORS:
                cu = color if pu == 0 else color.flipped
                cv = color if pv == 0 else color.flipped
                ug.self_cost[root_u][_IDX[color]] += edge.dp_cost(cu, cv)
        else:
            # Built as a literal (in _COLORS == _IDX order) — no scratch
            # zero matrix per soft edge.
            matrix = [
                [
                    edge.dp_cost(
                        ca if pu == 0 else ca.flipped,
                        cb if pv == 0 else cb.flipped,
                    )
                    for cb in _COLORS
                ]
                for ca in _COLORS
            ]
            ug.add_pair_cost(root_u, root_v, matrix)
    return ug


def _maximum_spanning_forest(ug: _UnitGraph) -> Dict[int, List[Tuple[int, CostMatrix]]]:
    """Kruskal by descending spread; returns adjacency of the kept edges."""
    uf = ParityUnionFind()  # reused as a plain union-find (parity 0)
    for unit in ug.units:
        uf.add(unit)
    ranked = sorted(
        ug.pair_cost.items(), key=lambda kv: (-_matrix_spread(kv[1]), kv[0])
    )
    adjacency: Dict[int, List[Tuple[int, CostMatrix]]] = {u: [] for u in ug.units}
    for (a, b), matrix in ranked:
        if uf.same_set(a, b):
            continue  # non-tree edge: ignored by the DP, as in the paper
        uf.union(a, b, 0)
        adjacency[a].append((b, matrix))
        transposed = [[matrix[j][i] for j in range(2)] for i in range(2)]
        adjacency[b].append((a, transposed))
    return adjacency


def optimal_tree_coloring(
    adjacency: Dict[int, List[Tuple[int, CostMatrix]]],
    self_cost: Dict[int, List[float]],
    root: int,
) -> Tuple[Dict[int, Color], float]:
    """Eq. (4): bottom-up DP on a tree, then backtrace. O(V + E).

    ``adjacency[u]`` lists ``(v, matrix)`` with ``matrix[color_u][color_v]``;
    the tree is explored from ``root``. Returns (unit colors, total cost).
    """
    # Iterative DFS ordering (explicit stack: components can be huge).
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


def flip_colors(
    graph: ConstraintGraph, scope: Optional[Set[int]] = None
) -> Dict[int, Color]:
    """Optimal color assignment of the graph (or of ``scope``'s components).

    Runs the paper's spanning-tree DP (optimal when the contracted soft
    structure is a forest), then a bounded greedy sweep over *all*
    edges, which can only improve on cyclic components whose non-tree
    edges the DP ignored.

    Returns a fresh net -> color mapping for every net in scope, each
    component colored afresh. Raises :class:`~repro.errors.ColoringError`
    when the hard edges alone are unsatisfiable (the router prevents this
    by construction).
    """
    from ..errors import ColoringError

    if scope is None:
        components = graph.components()
    else:
        components = []
        remaining = set(scope)
        while remaining:
            comp = graph.component_of(next(iter(remaining)))
            components.append(comp)
            remaining -= comp

    result: Dict[int, Color] = {}
    for comp in components:
        result.update(_color_component(graph, comp, ColoringError))
    return result


def _color_component(
    graph: ConstraintGraph, comp: Set[int], ColoringError
) -> Dict[int, Color]:
    """Contract + maximum spanning forest + DP + refine for one component."""
    ug = graph.contract_component(comp)
    if ug is None:
        raise ColoringError("hard-constraint odd cycle: no legal coloring")
    adjacency = _maximum_spanning_forest(ug)
    # The forest may still have several trees (soft edges need not
    # connect all units); DP each tree from its smallest unit.
    unit_colors: Dict[int, Color] = {}
    seen: Set[int] = set()
    for unit in ug.units:
        if unit in seen:
            continue
        tree_nodes = _reachable(adjacency, unit)
        seen |= tree_nodes
        tree_colors, _ = optimal_tree_coloring(
            {n: adjacency[n] for n in tree_nodes}, ug.self_cost, unit
        )
        unit_colors.update(tree_colors)
    _refine_unit_colors(ug, unit_colors)
    result: Dict[int, Color] = {}
    for u, color in unit_colors.items():
        for net, parity in ug.members[u]:
            result[net] = color if parity == 0 else color.flipped
    return result


def _refine_unit_colors(
    ug: _UnitGraph, colors: Dict[int, Color], max_sweeps: int = 3
) -> None:
    """Greedy refinement over the FULL edge set (non-tree included).

    First considers the global polarity flip — cost-neutral on tree edges
    (the DP tie-breaks arbitrarily between mirror assignments) but not on
    asymmetric non-tree edges — then bounded single-unit flip sweeps.
    """
    incident: Dict[int, List[Tuple[int, CostMatrix]]] = {u: [] for u in ug.units}
    for (a, b), matrix in ug.pair_cost.items():
        incident[a].append((b, matrix))
        incident[b].append((a, [[matrix[j][i] for j in range(2)] for i in range(2)]))

    def total(assign: Dict[int, Color]) -> float:
        cost = sum(
            ug.self_cost[u][_IDX[assign[u]]] for u in ug.units
        )
        for (a, b), matrix in ug.pair_cost.items():
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


def _reachable(
    adjacency: Dict[int, List[Tuple[int, CostMatrix]]], start: int
) -> Set[int]:
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for other, _ in adjacency.get(node, ()):
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


def brute_force_coloring(
    graph: ConstraintGraph, nets: Sequence[int]
) -> Tuple[Dict[int, Color], float]:
    """Exhaustive optimum over all 2^n assignments (tests/benchmarks only).

    Prices with the same DP cost as :func:`flip_colors`, so on soft-forest
    instances the two must agree (Theorem 4's optimality claim).
    """
    nets = list(nets)
    edges = graph.edges_within(set(nets))
    best: Optional[Dict[int, Color]] = None
    best_cost = float("inf")
    for mask in range(1 << len(nets)):
        coloring = {
            net: (Color.SECOND if (mask >> i) & 1 else Color.CORE)
            for i, net in enumerate(nets)
        }
        total = 0.0
        for edge in edges:
            total += edge.dp_cost(coloring[edge.u], coloring[edge.v])
            if total >= best_cost:
                break
        if total < best_cost:
            best_cost = total
            best = coloring
    assert best is not None
    return best, best_cost
