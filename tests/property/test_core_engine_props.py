"""Property-based equivalence tests for the vectorized core engine.

The SoA constraint graph, the batch edge store, the vector scenario
detector, and the bulk grid writes are all pure representation changes:
on any input they must reproduce the object-per-edge oracles
(:mod:`repro.core.reference`, the object constraint graph, per-cell
``occupy``) exactly. These tests drive randomized inputs through both
and assert bit-identical outcomes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.color import ALL_PAIRS
from repro.core import (
    ConstraintEdge,
    EdgeStore,
    OverlayConstraintGraph,
    ScenarioType,
    SoAOverlayConstraintGraph,
    VectorScenarioDetector,
)
from repro.core.color_flip import brute_force_coloring, flip_colors
from repro.core.edge_store import SCENARIO_ORDER
from repro.core.odd_cycle import ParityUnionFind
from repro.core.reference import ScenarioDetector
from repro.core.scenario_detect import DetectedScenario
from repro.errors import ColoringError, GridError
from repro.geometry import Point, Rect, Segment
from repro.grid import CellState, RoutingGrid

NODES = list(range(10))

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
    max_size=12,
)


_UNIT = Rect(0, 0, 1, 1)


def _build_pair(edges):
    """The same random scenario batch in both graph implementations."""
    batch = [
        DetectedScenario(0, u, v, t, tip, ov, _UNIT, _UNIT)
        for u, v, t, tip, ov in edges
    ]
    obj = OverlayConstraintGraph()
    soa = SoAOverlayConstraintGraph()
    obj_off = obj.add_scenarios(batch)
    soa_off = soa.add_scenarios(batch)
    return obj, soa, obj_off, soa_off


def _dp_total(graph, coloring):
    from repro.color import Color

    return sum(
        e.dp_cost(coloring.get(e.u, Color.CORE), coloring.get(e.v, Color.CORE))
        for e in graph.edges
    )


class TestVectorFlipEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(graph_edges)
    def test_flip_matches_object_graph_and_bruteforce(self, edges):
        """flip_colors over the SoA graph returns the object graph's
        exact coloring, and on graphs of <= 10 units never beats (and on
        forests exactly matches) the brute-force optimum."""
        obj, soa, obj_off, soa_off = _build_pair(edges)
        assert soa_off == obj_off
        if obj_off:
            with pytest.raises(ColoringError):
                flip_colors(soa)
            return
        obj_colors = flip_colors(obj)
        soa_colors = flip_colors(soa)
        assert soa_colors == obj_colors
        total = _dp_total(soa, soa_colors)
        _, best = brute_force_coloring(soa, sorted(soa.vertices))
        assert total >= best
        assert total == _dp_total(obj, obj_colors)

    @settings(max_examples=40, deadline=None)
    @given(graph_edges)
    def test_evaluate_matches_object_graph(self, edges):
        obj, soa, obj_off, _ = _build_pair(edges)
        if obj_off:
            return
        colors = flip_colors(obj)
        ev_obj = obj.evaluate(colors)
        ev_soa = soa.evaluate(colors)
        assert ev_soa.overlay_units == ev_obj.overlay_units
        assert ev_soa.hard_violations == ev_obj.hard_violations
        assert ev_soa.cut_risks == ev_obj.cut_risks


scenario_rows = st.lists(
    st.tuples(
        st.sampled_from(NODES), st.sampled_from(NODES),
        st.integers(0, len(SCENARIO_ORDER) - 1),
        st.booleans(), st.integers(1, 4),
    ).filter(lambda r: r[0] != r[1]),
    min_size=1,
    max_size=80,
)


class TestEdgeStoreEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(scenario_rows)
    def test_batch_rows_match_from_scenario(self, rows):
        """Every appended row materializes to exactly the edge
        ``ConstraintEdge.from_scenario`` would build, and its DP column
        equals that edge's ``dp_cost`` for every color pair."""
        store = EdgeStore()
        for u, v, s, tip, ov in rows:
            store.append_scenarios([u], [v], [s], [tip], [ov])
        for i, (u, v, s, tip, ov) in enumerate(rows):
            want = ConstraintEdge.from_scenario(u, v, SCENARIO_ORDER[s], tip, ov)
            got = store.materialize(i)
            assert (got.u, got.v) == (u, v)
            assert got.scenario == want.scenario
            assert got.kind == want.kind
            assert got.cost == want.cost
            assert got.cut_risk == want.cut_risk
            if want.kind.is_hard:
                assert got.parity == want.parity
            assert store.dp4[i] == tuple(
                want.dp_cost(pair.a, pair.b) for pair in ALL_PAIRS
            )


coord = st.integers(min_value=0, max_value=30)
length = st.integers(min_value=0, max_value=10)


@st.composite
def segments(draw):
    x = draw(coord)
    y = draw(coord)
    run = draw(length)
    if draw(st.booleans()):
        return Segment(0, Point(x, y), Point(x + run, y))
    return Segment(0, Point(x, y), Point(x, y + run))


def _scenario_key(sc):
    return (
        sc.net_a, sc.net_b, sc.scenario, sc.a_is_tip_owner, sc.overlap,
        sc.rect_a, sc.rect_b,
    )


@st.composite
def layouts(draw):
    """2-6 nets of 1-4 segments each, no segment repeated."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=6))
    segs = draw(
        st.lists(
            segments(),
            min_size=sum(sizes),
            max_size=sum(sizes),
            unique_by=lambda s: (s.a, s.b),
        )
    )
    nets, start = [], 0
    for size in sizes:
        nets.append(segs[start : start + size])
        start += size
    return nets


class TestDetectorEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(layouts())
    def test_vector_detector_matches_object_detector(self, nets):
        """Committing the same random layout net by net, with 1-4
        segments per net, yields the same scenario stream from both
        detector implementations, element for element and in order —
        rip-up and repair consume that order."""
        obj = ScenarioDetector(num_layers=1)
        vec = VectorScenarioDetector(num_layers=1)
        for i, segs in enumerate(nets):
            got_obj = list(map(_scenario_key, obj.add_net(i, segs)))
            got_vec = list(map(_scenario_key, vec.add_net(i, segs)))
            assert got_vec == got_obj
            assert vec.shapes_of(i) == obj.shapes_of(i)


#: Few nets, so removals often hit a net sharing rows with the newest batch.
OP_NETS = NODES[:6]

#: One step of a rip-up sequence: a scenario batch for a net (what the
#: router adds per commit and layer), undoing the newest batch's net (the
#: router rejecting that commit), or removing any net (rip-up, repair).
graph_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("batch"),
            st.sampled_from(OP_NETS),
            st.lists(
                st.tuples(
                    st.sampled_from(OP_NETS), any_types, st.booleans(),
                    st.integers(1, 4),
                ),
                min_size=1,
                max_size=4,
            ),
        ),
        st.tuples(st.just("undo")),
        st.tuples(st.just("remove"), st.sampled_from(OP_NETS)),
    ),
    min_size=1,
    max_size=25,
)


def _relation(uf):
    """The union-find's content, free of its root choices: each net's
    smallest fellow member and the net's parity relative to it."""
    anchors = {}
    out = {}
    for net in NODES:
        if net not in uf:
            out[net] = (net, 0)
            continue
        root, parity = uf.find(net)
        first, first_parity = anchors.setdefault(root, (net, parity))
        out[net] = (first, parity ^ first_parity)
    return out


class TestIncrementalHardParity:
    @settings(max_examples=150, deadline=None)
    @given(graph_ops)
    # removing an older net whose row count equals the newest batch's
    @example([
        ("batch", 1, [(2, ScenarioType.T1A, True, 1)]),
        ("batch", 0, [(3, ScenarioType.T1A, True, 1)]),
        ("remove", 1),
    ])
    def test_undo_and_removal_match_object_graph(self, ops):
        """The SoA graph's undo-point rollback and lazy rebuild keep its
        hard-parity union-find equal to the object graph's full rebuild:
        the same batches close the same odd cycles at every step, and
        both agree with a from-scratch parity check."""
        obj = OverlayConstraintGraph()
        soa = SoAOverlayConstraintGraph()
        newest = None
        odd = False
        for op in ops:
            offenders = []
            if op[0] == "batch":
                _, net, rows = op
                batch = [
                    DetectedScenario(0, net, other, t, tip, ov, _UNIT, _UNIT)
                    for other, t, tip, ov in rows
                    if other != net
                ]
                if not batch:
                    continue
                got_obj = obj.add_scenarios(batch)
                assert soa.add_scenarios(batch) == got_obj
                offenders = got_obj
                newest = net
            elif op[0] == "undo":
                if newest is None:
                    continue
                assert soa.remove_net(newest) == obj.remove_net(newest)
                newest = None
            else:
                assert soa.remove_net(op[1]) == obj.remove_net(op[1])
            # What the next rollback or rebuild starts from: the live hard
            # rows in insertion order, and (when clean) a union-find that
            # relates exactly what a fresh replay of those rows relates.
            store = soa._store
            assert [(store.us[r], store.vs[r]) for r in soa._hard_rows] == [
                (e.u, e.v) for e in obj._hard_edges
            ]
            if not soa._uf_dirty:
                replay = ParityUnionFind()
                for e in obj._hard_edges:
                    replay.union(e.u, e.v, e.parity)
                assert _relation(soa._hard_uf) == _relation(replay)
            now_odd = obj.has_hard_odd_cycle()
            assert soa.has_hard_odd_cycle() == now_odd
            if op[0] == "batch":
                # A batch only adds edges: it leaves the graph odd iff it
                # was odd already or the union-find rejected an edge.
                assert now_odd == (odd or bool(offenders))
            odd = now_odd


cells = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 7), st.integers(0, 7)),
    min_size=0,
    max_size=60,
)


class TestOccupyManyEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(cells, st.integers(0, 2), st.integers(0, 7), st.integers(0, 7))
    def test_matches_scalar_loop(self, batch, other_net, ox, oy):
        """occupy_many ends in the same grid state and error behaviour as
        per-cell occupy — including around a foreign-owned cell."""

        def build():
            grid = RoutingGrid(8, 8, rules=None)
            grid.occupy(other_net, Point(ox, oy), 99)
            return grid

        ref_grid = build()
        ref_err = None
        try:
            for layer, x, y in batch:
                ref_grid.occupy(layer, Point(x, y), 5)
        except GridError as exc:
            ref_err = str(exc)

        got_grid = build()
        got_err = None
        try:
            got_grid.occupy_many(batch, 5)
        except GridError as exc:
            got_err = str(exc)

        assert got_err == ref_err
        np.testing.assert_array_equal(got_grid._occ, ref_grid._occ)

    def test_fast_path_partial_write_then_raise(self):
        grid = RoutingGrid(8, 8)
        grid.occupy(0, Point(3, 3), 9)
        with pytest.raises(GridError, match="already owned by net 9"):
            grid.occupy_many([(0, 1, 1), (0, 2, 2), (0, 3, 3)], 5)
        # Cells before the conflict were written, exactly like the scalar
        # loop; nothing else was.
        assert grid.owner(0, Point(1, 1)) == 5
        assert grid.owner(0, Point(2, 2)) == 5
        assert grid.owner(0, Point(3, 3)) == 9
        assert int(np.count_nonzero(grid._occ != int(CellState.FREE))) == 3

    def test_duplicate_cells_notify_once(self):
        """A cell repeated in the batch is written once, without an error."""
        grid = RoutingGrid(8, 8)
        batch = [(0, 1, 1)] * 3 + [(1, 2, 2)]
        grid.occupy_many(batch, 4)
        assert grid.owner(0, Point(1, 1)) == 4
        assert grid.owner(1, Point(2, 2)) == 4
        big = [(0, x, y) for x in range(8) for y in range(8)]
        grid2 = RoutingGrid(8, 8)
        grid2.occupy_many(big + big, 4)
        assert all(
            grid2.owner(0, Point(x, y)) == 4
            for x in range(8)
            for y in range(8)
        )
        assert grid2._occ[1].max() == int(CellState.FREE)
