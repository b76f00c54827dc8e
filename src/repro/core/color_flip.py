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

The kernel runs on 0/1 colors (0 = CORE, 1 = SECOND). A unit pair's
cost matrix is one flat list ``m[(i << 1) | j]`` over the colors of its
smaller and larger unit; the spanning forest, the DP and the refinement
read it in either orientation instead of building transposes, and
:class:`~repro.color.Color` objects appear only in the returned
net -> color map. :func:`repro.core.reference.reference_unit_colors` is
the Color-based oracle of the same steps. Everything that sets the
result is shared with it: unit names (the contraction's union-find
roots), Kruskal's key (-spread, pair), the DFS and child order, the
``<=``/``<`` tie-breaks and the summation order. All costs are
integer-valued floats, so sums are exact in any order anyway.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..color import Color
from .constraint_graph_soa import ConstraintGraph
from .edges import ConstraintEdge
from .odd_cycle import ParityUnionFind

#: Color of each 0/1 kernel color.
_COLORS = (Color.CORE, Color.SECOND)

#: A 2x2 cost matrix m[color_a][color_b] (``optimal_tree_coloring``'s input).
CostMatrix = List[List[float]]

#: A unit pair's flat cost matrix ``m[(i << 1) | j]``.
FlatMatrix = List[float]

#: One forest or incidence entry ``(other unit, m, t)``: ``t`` is 1 when
#: the entry's own unit is the pair's larger one, so ``m`` reads
#: ``m[(j << 1) | i]`` for own color ``i`` and other color ``j``.
Link = Tuple[int, FlatMatrix, int]

_NO_COST = (0.0, 0.0)


class _UnitGraph:
    """The contracted (super-vertex) view of one OCG component."""

    def __init__(self) -> None:
        self.units: List[int] = []  # unit ids are hard-UF roots, stable order
        self.members: Dict[int, List[Tuple[int, int]]] = {}  # unit -> [(net, parity)]
        self.self_cost: Dict[int, List[float]] = {}  # unit -> [cost_0, cost_1]
        self.pair_cost: Dict[Tuple[int, int], FlatMatrix] = {}  # (u<v) -> m

    def add_pair_cost(self, a: int, b: int, m: FlatMatrix) -> None:
        """Accumulate ``m`` (over the colors of ``a`` and ``b``)."""
        if a == b:
            raise ValueError("self edges go to self_cost")
        if a > b:
            a, b = b, a
            m = [m[0], m[2], m[1], m[3]]
        acc = self.pair_cost.get((a, b))
        if acc is None:
            # Adopt the caller's matrix outright: callers hand over a
            # fresh one per edge (and 0.0 + x == x for these costs).
            self.pair_cost[(a, b)] = m
            return
        acc[0] += m[0]
        acc[1] += m[1]
        acc[2] += m[2]
        acc[3] += m[3]


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
            for i in (0, 1):
                ug.self_cost[root_u][i] += edge.dp_cost(
                    _COLORS[i ^ pu], _COLORS[i ^ pv]
                )
        else:
            ug.add_pair_cost(
                root_u,
                root_v,
                [
                    edge.dp_cost(_COLORS[i ^ pu], _COLORS[j ^ pv])
                    for i in (0, 1)
                    for j in (0, 1)
                ],
            )
    return ug


def _kruskal_key(item: Tuple[Tuple[int, int], FlatMatrix]):
    m = item[1]
    return (-(max(m) - min(m)), item[0])


def _spanning_forest(ug: _UnitGraph) -> Dict[int, List[Link]]:
    """Kruskal by descending spread; returns adjacency of the kept edges."""
    parent = {unit: unit for unit in ug.units}
    adjacency: Dict[int, List[Link]] = {unit: [] for unit in ug.units}
    for (a, b), m in sorted(ug.pair_cost.items(), key=_kruskal_key):
        ra = a
        while parent[ra] != ra:
            parent[ra] = ra = parent[parent[ra]]
        rb = b
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        if ra == rb:
            continue  # non-tree edge: ignored by the DP, as in the paper
        parent[ra] = rb
        adjacency[a].append((b, m, 0))
        adjacency[b].append((a, m, 1))
    return adjacency


def _tree_dp(
    adjacency: Dict[int, List[Link]],
    self_cost: Dict[int, List[float]],
    root: int,
    colors: Dict[int, int],
) -> float:
    """Eq. (4) on the tree of ``root``: write its 0/1 colors into
    ``colors`` (root first, then in backtrace order); return its cost."""
    # Iterative DFS ordering (explicit stack: components can be huge).
    order: List[int] = []
    parent: Dict[int, Optional[int]] = {root: None}
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for child, _, _ in adjacency.get(node, ()):
            if child not in parent:
                parent[child] = node
                stack.append(child)

    cost: Dict[int, Tuple[float, float]] = {}
    picks: Dict[int, List[Tuple[int, int, int]]] = {}
    for node in reversed(order):
        c0, c1 = self_cost.get(node, _NO_COST)
        chosen = []
        for child, m, t in adjacency.get(node, ()):
            if parent[child] != node:
                continue
            k0, k1 = cost[child]
            if t:
                m00, m10, m01, m11 = m
            else:
                m00, m01, m10, m11 = m
            # Best child color under each node color; ties go to 0.
            o0 = k0 + m00
            o1 = k1 + m01
            if o0 <= o1:
                j0 = 0
                c0 += o0
            else:
                j0 = 1
                c0 += o1
            o0 = k0 + m10
            o1 = k1 + m11
            if o0 <= o1:
                j1 = 0
                c1 += o0
            else:
                j1 = 1
                c1 += o1
            chosen.append((child, j0, j1))
        cost[node] = (c0, c1)
        picks[node] = chosen

    c0, c1 = cost[root]
    colors[root] = 0 if c0 <= c1 else 1
    for node in order:
        i = colors[node]
        for child, j0, j1 in picks[node]:
            colors[child] = j1 if i else j0
    return c1 if colors[root] else c0


def optimal_tree_coloring(
    adjacency: Dict[int, List[Tuple[int, CostMatrix]]],
    self_cost: Dict[int, List[float]],
    root: int,
) -> Tuple[Dict[int, Color], float]:
    """Eq. (4): bottom-up DP on a tree, then backtrace. O(V + E).

    ``adjacency[u]`` lists ``(v, matrix)`` with ``matrix[color_u][color_v]``;
    the tree is explored from ``root``. Returns (unit colors, total cost).
    """
    links = {
        u: [(v, [m[0][0], m[0][1], m[1][0], m[1][1]], 0) for v, m in entries]
        for u, entries in adjacency.items()
    }
    colors: Dict[int, int] = {}
    total = _tree_dp(links, self_cost, root, colors)
    return {u: _COLORS[c] for u, c in colors.items()}, total


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
        ug = graph.contract_component(comp)
        if ug is None:
            raise ColoringError("hard-constraint odd cycle: no legal coloring")
        for unit, color in _color_units(ug).items():
            for net, parity in ug.members[unit]:
                result[net] = _COLORS[color ^ parity]
    return result


def _color_units(ug: _UnitGraph) -> Dict[int, int]:
    """Maximum spanning forest + DP + refine: unit -> 0/1 color."""
    adjacency = _spanning_forest(ug)
    # The forest may still have several trees (soft edges need not
    # connect all units); DP each tree from its first unit.
    colors: Dict[int, int] = {}
    for unit in ug.units:
        if unit not in colors:
            _tree_dp(adjacency, ug.self_cost, unit, colors)
    _refine_unit_colors(ug, colors)
    return colors


def _refine_unit_colors(
    ug: _UnitGraph, colors: Dict[int, int], max_sweeps: int = 3
) -> None:
    """Greedy refinement over the FULL edge set (non-tree included).

    First considers the global polarity flip — cost-neutral on tree edges
    (the DP tie-breaks arbitrarily between mirror assignments) but not on
    asymmetric non-tree edges — then bounded single-unit flip sweeps.
    """
    units = ug.units
    self_cost = ug.self_cost
    # Both totals: the coloring as it stands and its mirror image, each
    # summed over units, then over pairs.
    kept = 0
    mirrored = 0
    for unit in units:
        c = colors[unit]
        sc = self_cost[unit]
        kept += sc[c]
        mirrored += sc[c ^ 1]
    incident: Dict[int, List[Link]] = {unit: [] for unit in units}
    for (a, b), m in ug.pair_cost.items():
        k = (colors[a] << 1) | colors[b]
        kept += m[k]
        mirrored += m[3 - k]
        incident[a].append((b, m, 0))
        incident[b].append((a, m, 1))
    if mirrored < kept:
        for unit in colors:
            colors[unit] ^= 1

    for _ in range(max_sweeps):
        improved = False
        for unit in units:
            current = colors[unit]
            flipped = current ^ 1
            sc = self_cost[unit]
            delta = sc[flipped] - sc[current]
            for other, m, t in incident[unit]:
                j = colors[other]
                if t:
                    delta += m[(j << 1) | flipped] - m[(j << 1) | current]
                else:
                    delta += m[(flipped << 1) | j] - m[(current << 1) | j]
            if delta < 0:
                colors[unit] = flipped
                improved = True
        if not improved:
            break


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
