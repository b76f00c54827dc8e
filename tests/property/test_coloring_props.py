"""Property-based tests on parity union-find and color flipping."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color import Color
from repro.core import (
    ConstraintEdge,
    OverlayConstraintGraph,
    ParityUnionFind,
    ScenarioType,
)
from repro.core.color_flip import (
    _COLORS as _KERNEL_COLORS,
    _UnitGraph,
    _color_units,
    brute_force_coloring,
    flip_colors,
    optimal_tree_coloring,
)
from repro.core.edges import CUT_VETO
from repro.core.reference import (
    _maximum_spanning_forest,
    reference_tree_coloring,
    reference_unit_colors,
)
from repro.errors import ColoringError

NODES = list(range(8))

parity_edges = st.lists(
    st.tuples(
        st.sampled_from(NODES), st.sampled_from(NODES), st.integers(0, 1)
    ).filter(lambda e: e[0] != e[1]),
    max_size=16,
)


class TestParityUnionFindVsNetworkx:
    @settings(max_examples=100)
    @given(parity_edges)
    def test_matches_bipartiteness_oracle(self, edges):
        """Union-find accepts the edge set iff the 'different' relation
        graph (with same-edges contracted) is bipartite."""
        uf = ParityUnionFind()
        accepted = all(uf.union(u, v, p) for u, v, p in edges)

        # Oracle: expand each parity-0 edge into two parity-1 edges via a
        # dummy vertex, then check bipartiteness with networkx.
        g = nx.Graph()
        g.add_nodes_from(NODES)
        for i, (u, v, p) in enumerate(edges):
            if p == 1:
                g.add_edge(u, v)
            else:
                dummy = f"d{i}"
                g.add_edge(u, dummy)
                g.add_edge(dummy, v)
        assert accepted == nx.is_bipartite(g)

    @settings(max_examples=60)
    @given(parity_edges)
    def test_relations_transitively_consistent(self, edges):
        uf = ParityUnionFind()
        kept = []
        for u, v, p in edges:
            if uf.union(u, v, p):
                kept.append((u, v, p))
        for u, v, p in kept:
            assert uf.relation(u, v) == p


soft_types = st.sampled_from(
    [
        ScenarioType.T2A,
        ScenarioType.T2B,
        ScenarioType.T3A,
        ScenarioType.T3B,
        ScenarioType.T3C,
        ScenarioType.T3D,
    ]
)
hard_types = st.sampled_from([ScenarioType.T1A, ScenarioType.T1B])
any_types = st.one_of(soft_types, hard_types)

graph_edges = st.lists(
    st.tuples(
        st.sampled_from(NODES), st.sampled_from(NODES), any_types,
        st.booleans(), st.integers(1, 4),
    ).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=10,
)


def dp_total(graph, coloring):
    return sum(
        e.dp_cost(coloring.get(e.u, Color.CORE), coloring.get(e.v, Color.CORE))
        for e in graph.edges
    )


class TestFlipColorsProperties:
    @settings(max_examples=60, deadline=None)
    @given(graph_edges)
    def test_flip_matches_bruteforce_or_raises(self, edges):
        """On every random graph, flip_colors either raises (hard odd
        cycle) in exact agreement with the union-find, or returns an
        assignment that (a) satisfies every hard edge and (b) on graphs
        whose soft structure is a forest, reaches the brute-force optimum.
        """
        g = OverlayConstraintGraph()
        offenders = g.add_edges(
            ConstraintEdge.from_scenario(u, v, t, tip, ov)
            for u, v, t, tip, ov in edges
        )
        if offenders:
            try:
                flip_colors(g)
                assert False, "expected ColoringError on hard odd cycle"
            except ColoringError:
                return
        colors = flip_colors(g)
        total = dp_total(g, colors)
        assert total < float("inf")  # no hard edge violated
        _, best = brute_force_coloring(g, sorted(g.vertices))
        # Never better than optimal; equal when the contracted soft
        # structure is a forest (Theorem 4). On cyclic structures the
        # refinement sweep may stop at a local optimum.
        assert total >= best
        if self._soft_structure_is_forest(g):
            assert total == best

    @staticmethod
    def _soft_structure_is_forest(graph) -> bool:
        uf = ParityUnionFind()
        for e in graph.edges:
            if e.kind.is_hard:
                uf.union(e.u, e.v, e.parity)
        nxg = nx.MultiGraph()
        for e in graph.edges:
            if e.kind.is_hard:
                continue
            ru, _ = uf.find(e.u)
            rv, _ = uf.find(e.v)
            if ru != rv:
                nxg.add_edge(ru, rv)
        if nxg.number_of_nodes() == 0:
            return True
        return nx.number_of_edges(nxg) == nxg.number_of_nodes() - len(
            list(nx.connected_components(nxg))
        )

    @settings(max_examples=40, deadline=None)
    @given(graph_edges)
    def test_scope_subset_consistency(self, edges):
        g = OverlayConstraintGraph()
        if g.add_edges(
            ConstraintEdge.from_scenario(u, v, t, tip, ov)
            for u, v, t, tip, ov in edges
        ):
            return
        full = flip_colors(g)
        for vertex in sorted(g.vertices):
            scoped = flip_colors(g, scope={vertex})
            assert set(scoped) == g.component_of(vertex)
        assert set(full) == set(g.vertices)


# Few distinct costs, so Kruskal's spreads, the DP's two options per
# color, refinement deltas and the two mirror totals tie often.
_TIE_COSTS = st.sampled_from([0.0, 1.0, 2.0, CUT_VETO])


@st.composite
def unit_graphs(draw):
    """A random contracted component: units named out of order, self
    costs, and flat pair matrices inserted in random key order. With
    ``mirror`` every cost is unchanged when all colors flip, so the
    refinement's mirror totals are equal."""
    names = draw(st.lists(st.integers(0, 60), min_size=1, max_size=9, unique=True))
    mirror = draw(st.booleans())
    ug = _UnitGraph()
    for name in names:
        ug.units.append(name)
        ug.members[name] = [(name, 0)]
        c0 = draw(_TIE_COSTS)
        ug.self_cost[name] = [c0, c0 if mirror else draw(_TIE_COSTS)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    else:
        chosen = []
    for a, b in chosen:
        m00, m01 = draw(_TIE_COSTS), draw(_TIE_COSTS)
        if mirror:
            m = [m00, m01, m01, m00]
        else:
            m = [m00, m01, draw(_TIE_COSTS), draw(_TIE_COSTS)]
        ug.pair_cost[(min(a, b), max(a, b))] = m
    return ug


class TestKernelMatchesColorOracle:
    """The 0/1 kernel against the Color-based MST + DP + refinement."""

    @settings(max_examples=300, deadline=None)
    @given(unit_graphs())
    def test_unit_colors_match(self, ug):
        expected = [(u, c) for u, c in reference_unit_colors(ug).items()]
        got = [(u, _KERNEL_COLORS[c]) for u, c in _color_units(ug).items()]
        assert got == expected  # same colors, same order

    @settings(max_examples=150, deadline=None)
    @given(unit_graphs())
    def test_tree_coloring_matches(self, ug):
        forest = _maximum_spanning_forest(ug)
        seen = set()
        for root in ug.units:
            if root in seen:
                continue
            expected = reference_tree_coloring(forest, ug.self_cost, root)
            got = optimal_tree_coloring(forest, ug.self_cost, root)
            assert list(got[0].items()) == list(expected[0].items())
            assert got[1] == expected[1]
            seen |= set(expected[0])

    def test_forced_ties_are_reached(self):
        """The strategy does produce each kind of tie the kernel breaks."""
        ties = {"spread": 0, "option": 0, "delta": 0, "mirror": 0}

        @settings(max_examples=200, deadline=None)
        @given(unit_graphs())
        def count(ug):
            spreads = [max(m) - min(m) for m in ug.pair_cost.values()]
            ties["spread"] += len(spreads) != len(set(spreads))
            ties["option"] += any(m[0] == m[1] or m[2] == m[3] for m in ug.pair_cost.values())
            ties["delta"] += any(c[0] == c[1] for c in ug.self_cost.values())
            ties["mirror"] += all(c[0] == c[1] for c in ug.self_cost.values()) and all(
                m[0] == m[3] and m[1] == m[2] for m in ug.pair_cost.values()
            )

        count()
        assert all(ties.values()), ties
