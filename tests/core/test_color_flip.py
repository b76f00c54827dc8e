"""Unit tests for the linear-time color flipping algorithm (Theorem 4)."""

import pytest

from repro.color import Color
from repro.core import ConstraintEdge, OverlayConstraintGraph, ScenarioType
from repro.core.color_flip import brute_force_coloring, flip_colors
from repro.errors import ColoringError


def edge(u, v, stype, **kw):
    return ConstraintEdge.from_scenario(u, v, stype, **kw)


def dp_total(graph, coloring):
    return sum(
        e.dp_cost(coloring.get(e.u, Color.CORE), coloring.get(e.v, Color.CORE))
        for e in graph.edges
    )


class TestHardConstraints:
    def test_hard_diff_respected(self):
        g = OverlayConstraintGraph()
        g.add_edges([edge(0, 1, ScenarioType.T1A)])
        colors = flip_colors(g)
        assert colors[0] != colors[1]

    def test_hard_same_respected(self):
        g = OverlayConstraintGraph()
        g.add_edges([edge(0, 1, ScenarioType.T1B)])
        colors = flip_colors(g)
        assert colors[0] == colors[1]

    def test_chain_of_hard_edges(self):
        g = OverlayConstraintGraph()
        g.add_edges(
            [
                edge(0, 1, ScenarioType.T1A),
                edge(1, 2, ScenarioType.T1B),
                edge(2, 3, ScenarioType.T1A),
            ]
        )
        colors = flip_colors(g)
        assert colors[0] != colors[1]
        assert colors[1] == colors[2]
        assert colors[2] != colors[3]

    def test_odd_cycle_raises(self):
        g = OverlayConstraintGraph()
        g.add_edges(
            [
                edge(0, 1, ScenarioType.T1A),
                edge(1, 2, ScenarioType.T1A),
                edge(2, 0, ScenarioType.T1A),
            ]
        )
        with pytest.raises(ColoringError):
            flip_colors(g)

    def test_odd_cycle_decomposed_by_merge(self):
        # 1-a, 1-a, 1-b triangle: legal, with the 1-b pair same-colored.
        g = OverlayConstraintGraph()
        g.add_edges(
            [
                edge(0, 1, ScenarioType.T1A),
                edge(1, 2, ScenarioType.T1A),
                edge(2, 0, ScenarioType.T1B),
            ]
        )
        colors = flip_colors(g)
        assert colors[0] != colors[1]
        assert colors[1] != colors[2]
        assert colors[2] == colors[0]


class TestSoftOptimisation:
    def test_both_second_preference(self):
        g = OverlayConstraintGraph()
        g.add_edges([edge(0, 1, ScenarioType.T3B)])
        colors = flip_colors(g)
        # SS is one of the zero-cost assignments for 3-b (CS also free);
        # the result must be a zero-cost assignment.
        assert dp_total(g, colors) == 0

    def test_soft_same_preference(self):
        g = OverlayConstraintGraph()
        g.add_edges([edge(0, 1, ScenarioType.T2A, overlap=5)])
        colors = flip_colors(g)
        assert colors[0] == colors[1]

    def test_tree_optimality_matches_bruteforce(self):
        g = OverlayConstraintGraph()
        g.add_edges(
            [
                edge(0, 1, ScenarioType.T2A),
                edge(1, 2, ScenarioType.T3A),
                edge(1, 3, ScenarioType.T3C),
                edge(3, 4, ScenarioType.T2B),
            ]
        )
        ours = flip_colors(g)
        _, best_cost = brute_force_coloring(g, [0, 1, 2, 3, 4])
        assert dp_total(g, ours) == best_cost

    def test_tree_with_hard_edges_matches_bruteforce(self):
        g = OverlayConstraintGraph()
        g.add_edges(
            [
                edge(0, 1, ScenarioType.T1A),
                edge(1, 2, ScenarioType.T2A),
                edge(2, 3, ScenarioType.T1B),
                edge(3, 4, ScenarioType.T3A),
            ]
        )
        ours = flip_colors(g)
        _, best_cost = brute_force_coloring(g, [0, 1, 2, 3, 4])
        assert dp_total(g, ours) == best_cost

    def test_cyclic_component_never_worse_than_bruteforce_on_tree(self):
        # Fig. 14's situation: B, C, E form a cycle; the max spanning tree
        # drops the least significant edge, and the refinement sweep keeps
        # the final cost at the brute-force optimum here.
        g = OverlayConstraintGraph()
        g.add_edges(
            [
                edge(0, 1, ScenarioType.T2A, overlap=3),
                edge(1, 2, ScenarioType.T2A, overlap=2),
                edge(2, 0, ScenarioType.T3A),
                edge(2, 3, ScenarioType.T1A),
            ]
        )
        ours = flip_colors(g)
        _, best_cost = brute_force_coloring(g, [0, 1, 2, 3])
        assert dp_total(g, ours) == best_cost

    def test_scope_restricts_output(self):
        g = OverlayConstraintGraph()
        g.add_edges([edge(0, 1, ScenarioType.T2A), edge(5, 6, ScenarioType.T2A)])
        colors = flip_colors(g, scope={0})
        assert set(colors) == {0, 1}

    def test_isolated_vertices_colored(self):
        g = OverlayConstraintGraph()
        g.add_vertex(7)
        colors = flip_colors(g)
        assert colors[7] in (Color.CORE, Color.SECOND)


class TestRefinement:
    def test_refine_improves_cycles(self):
        # Build a 4-cycle where the DP-on-tree alone could settle on a
        # suboptimal assignment of the dropped edge; refinement must land
        # at the brute-force optimum.
        g = OverlayConstraintGraph()
        g.add_edges(
            [
                edge(0, 1, ScenarioType.T3A),
                edge(1, 2, ScenarioType.T3A),
                edge(2, 3, ScenarioType.T3A),
                edge(3, 0, ScenarioType.T3A),
                edge(0, 2, ScenarioType.T3D),
            ]
        )
        refined = flip_colors(g)
        _, best = brute_force_coloring(g, [0, 1, 2, 3])
        assert dp_total(g, refined) == best


class TestRecoloring:
    """Every call colors the graph as it stands."""

    def test_mutations_between_calls(self):
        g = OverlayConstraintGraph()
        g.add_edges(
            [
                edge(0, 1, ScenarioType.T1A),
                edge(1, 2, ScenarioType.T2A),
                edge(3, 4, ScenarioType.T3A),
            ]
        )
        flip_colors(g)
        g.add_edges([edge(2, 5, ScenarioType.T1A)])
        colors = flip_colors(g)
        assert colors[2] != colors[5]
        g.remove_net(1)
        colors = flip_colors(g)
        assert 1 not in colors
        assert set(colors) == g.vertices
