"""SoA backend of the overlay constraint graph.

Same contract as :class:`~repro.core.constraint_graph.OverlayConstraintGraph`
(the bit-exact object oracle, see :mod:`repro.router.reference`; the two
classes share no code), but edges live in a columnar
:class:`~repro.core.edge_store.EdgeStore`: batch scenario insertion,
pricing, pseudo-color totals, and the flip-time component contraction
read plain row lists instead of walking edge objects.

Bit-identity notes: every cost in the system is an integer-valued
float64 (Table II units, CUT_VETO, HARD=inf), so sums are exact and
accumulation order cannot change results. Orderings that *do* leak into
results (edge insertion order, incident traversal order, and the
flip-time contraction's hard-union order and unit roots) are replicated
exactly from the object path.

The layer's hard-parity union-find replicates only its relations: which
nets it joins, and with what parity. A union's answer depends on nothing
else, so after a removal the graph re-derives just the hard components
the removed nets belonged to (the object path rebuilds the whole layer),
and it takes back a rejected commit's batch from a journal of the
entries that batch's unions wrote.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .. import obs
from ..color import Color
from .constraint_graph import Evaluation, OverlayConstraintGraph
from .edge_store import KIND_IS_HARD, KIND_ORDER, SCENARIO_INDEX, EdgeStore
from .edges import ConstraintEdge
from .odd_cycle import JournalEntry, ParityUnionFind
from .scenario_detect import DetectedScenario
from .scenarios import HARD

#: 0/1 index of each color (the color-flip kernel's colors).
_CIDX = {Color.CORE: 0, Color.SECOND: 1}

#: dp4 index of each entry ``(i << 1) | j`` of the flat cost matrix of a
#: soft row between units ``ru`` and ``rv``, by ``(pu << 1) | pv``, the
#: parities of the row's endpoints to those units: the row's color pair
#: is ``(i ^ pu, j ^ pv)``. ``_ORIENT_T`` lays the matrix out over
#: ``(rv, ru)`` instead, for when ``rv`` is the smaller unit.
_ORIENT = [
    tuple((((k >> 1) ^ pu) << 1) | ((k & 1) ^ pv) for k in range(4))
    for pu in (0, 1)
    for pv in (0, 1)
]
_ORIENT_T = [
    tuple((((k & 1) ^ pu) << 1) | ((k >> 1) ^ pv) for k in range(4))
    for pu in (0, 1)
    for pv in (0, 1)
]


class SoAOverlayConstraintGraph:
    """Drop-in constraint graph over columnar edge storage."""

    def __init__(self) -> None:
        self._store = EdgeStore()
        self._vertices: Set[int] = set()
        #: The layer's hard-parity union-find. It is repaired in place,
        #: never replaced, so its op tallies are the graph's lifetime ones.
        self._hard_uf = ParityUnionFind()
        #: Op tallies the metrics registry has already been told.
        self._uf_published_finds = 0
        self._uf_published_unions = 0
        #: Nets whose hard components the next ``add_scenarios`` repairs
        #: in the union-find: each net removed since, that had hard rows,
        #: and its live hard neighbours at the time.
        self._repair_seeds: Set[int] = set()
        #: Undo point of the newest ``add_scenarios`` batch: its first
        #: row, its size, and the journal of the union-find entries its
        #: unions could write. Removing a net whose live rows are exactly
        #: that batch (the router undoing a rejected commit) undoes the
        #: journal instead of seeding a repair. Any other mutation clears
        #: it, so no unjournaled write falls between a batch and its undo.
        self._undo: Optional[Tuple[int, int, List[JournalEntry]]] = None

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def vertices(self) -> Set[int]:
        """A copy of the vertex set; test one net with ``in`` instead."""
        return set(self._vertices)

    def __contains__(self, net_id: int) -> bool:
        return net_id in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    @property
    def edges(self) -> List[ConstraintEdge]:
        return self._store.materialize_many(self._store.live_rows())

    def num_edges(self) -> int:
        return self._store.live

    def edges_of(self, net_id: int) -> List[ConstraintEdge]:
        return self._store.materialize_many(self._store.incident.get(net_id, ()))

    def add_vertex(self, net_id: int) -> None:
        """Register a net even if it has no scenario yet (isolated vertex)."""
        self._vertices.add(net_id)

    def add_scenarios(
        self, scenarios: Sequence[DetectedScenario]
    ) -> List[DetectedScenario]:
        """Batch-insert one edge per detected scenario.

        Same counters and offenders as the object graph's
        ``add_scenarios``, but row construction is a table lookup.
        Returns the scenarios whose hard edges closed odd cycles (in
        insertion order).
        """
        if self._repair_seeds:
            self._repair_hard_uf()
        ob = obs.get_active()
        offenders: List[DetectedScenario] = []
        if not scenarios:
            if ob is not None:
                self._flush_uf_stats(ob)
            return offenders
        store = self._store
        rows = store.append_scenarios(
            [sc.net_a for sc in scenarios],
            [sc.net_b for sc in scenarios],
            [SCENARIO_INDEX[sc.scenario] for sc in scenarios],
            [sc.a_is_tip_owner for sc in scenarios],
            [sc.overlap for sc in scenarios],
        )
        kinds = store.kinds
        us = store.us
        vs = store.vs
        pars = store.pars
        vertices = self._vertices
        for sc, row in zip(scenarios, rows):
            store.link(row)
            vertices.add(sc.net_a)
            vertices.add(sc.net_b)
        if ob is not None:
            counts: Dict[int, int] = {}
            for row in rows:
                code = kinds[row]
                counts[code] = counts.get(code, 0) + 1
            for code, n in counts.items():
                ob.registry.counter(
                    "ocg_edges_added_total", kind=KIND_ORDER[code].value
                ).inc(n)
        journal: List[JournalEntry] = []
        self._undo = (rows.start, len(rows), journal)
        union = self._hard_uf.union
        for sc, row in zip(scenarios, rows):
            if KIND_IS_HARD[kinds[row]]:
                if not union(us[row], vs[row], pars[row], journal):
                    offenders.append(sc)
                    if ob is not None:
                        ob.registry.counter("ocg_odd_cycle_hits_total").inc()
        if ob is not None:
            self._flush_uf_stats(ob)
        return offenders

    def remove_net(self, net_id: int) -> int:
        store = self._store
        rows = store.incident.get(net_id)
        if not rows:
            store.incident.pop(net_id, None)
            self._vertices.discard(net_id)
            return 0
        kinds = store.kinds
        us = store.us
        vs = store.vs
        hard_neighbours = [
            vs[row] if us[row] == net_id else us[row]
            for row in rows
            if KIND_IS_HARD[kinds[row]]
        ]
        undo = self._undo
        self._undo = None
        dead = store.kill_net(net_id)
        self._vertices.discard(net_id)
        if not hard_neighbours:
            return len(dead)
        if undo is not None and (dead[0], len(dead)) == undo[:2]:
            # The dead rows are exactly the newest batch (the router
            # undoing a rejected commit): roll the union-find back to
            # before it.
            self._hard_uf.undo(undo[2])
            obs.counter_inc("ocg_uf_rollbacks_total")
        else:
            self._repair_seeds.add(net_id)
            self._repair_seeds.update(hard_neighbours)
        return len(dead)

    def _repair_hard_uf(self) -> None:
        """Re-derive the union-find around the nets removed since the
        last batch.

        Walks the live hard rows reachable from the repair seeds, forgets
        every net it reaches and unions exactly those rows again, in
        ascending row order as a whole-layer rebuild would. The walk
        covers each hard component a removal touched (the seeds hold a
        live net of every piece it split into), and unions in other
        components never touch these nets, so the union-find relates
        what a whole-layer rebuild relates.
        """
        store = self._store
        us = store.us
        vs = store.vs
        kinds = store.kinds
        pars = store.pars
        incident = store.incident
        nets = self._repair_seeds
        self._repair_seeds = set()
        stack = list(nets)
        rows: List[int] = []
        while stack:
            node = stack.pop()
            for row in incident.get(node, ()):
                if KIND_IS_HARD[kinds[row]]:
                    other = us[row]
                    if other == node:
                        rows.append(row)  # once: from its first endpoint
                        other = vs[row]
                    if other not in nets:
                        nets.add(other)
                        stack.append(other)
        uf = self._hard_uf
        uf.forget(nets)
        rows.sort()
        union = uf.union
        for row in rows:
            union(us[row], vs[row], pars[row])
        ob = obs.get_active()
        if ob is not None:
            ob.registry.counter("ocg_uf_rebuilds_total").inc()
            ob.registry.counter("ocg_uf_repair_rows_total").inc(len(rows))
            self._flush_uf_stats(ob)

    def _flush_uf_stats(self, ob) -> None:
        """Publish union-find op deltas since the last flush."""
        uf = self._hard_uf
        if uf.find_ops > self._uf_published_finds:
            ob.registry.counter("uf_find_ops_total").inc(
                uf.find_ops - self._uf_published_finds
            )
            self._uf_published_finds = uf.find_ops
        if uf.union_ops > self._uf_published_unions:
            ob.registry.counter("uf_union_ops_total").inc(
                uf.union_ops - self._uf_published_unions
            )
            self._uf_published_unions = uf.union_ops

    def has_hard_odd_cycle(self) -> bool:
        """Full recheck: replay the live hard rows into a fresh union-find."""
        store = self._store
        us = store.us
        vs = store.vs
        kinds = store.kinds
        pars = store.pars
        union = ParityUnionFind().union
        return not all(
            union(us[row], vs[row], pars[row])
            for row in store.live_rows()
            if KIND_IS_HARD[kinds[row]]
        )

    # ------------------------------------------------------------------ #
    # Pricing
    # ------------------------------------------------------------------ #

    def evaluate(self, coloring: Dict[int, Color]) -> Evaluation:
        store = self._store
        us = store.us
        vs = store.vs
        cost4 = store.cost4
        risk4 = store.risk4
        get = coloring.get
        overlay = 0.0
        hard = 0
        risks = 0
        for row in store.live_rows():
            pair = (_CIDX[get(us[row], Color.CORE)] << 1) | _CIDX[
                get(vs[row], Color.CORE)
            ]
            cost = cost4[row][pair]
            if cost == HARD:
                hard += 1
            else:
                overlay += cost
            if risk4[row][pair]:
                risks += 1
        return Evaluation(overlay_units=overlay, hard_violations=hard, cut_risks=risks)

    def net_cost(self, net_id: int, coloring: Dict[int, Color]) -> float:
        store = self._store
        us = store.us
        vs = store.vs
        cost4 = store.cost4
        get = coloring.get
        total = 0.0
        for row in store.incident.get(net_id, ()):
            cu = _CIDX[get(us[row], Color.CORE)]
            cv = _CIDX[get(vs[row], Color.CORE)]
            total += cost4[row][(cu << 1) | cv]
        return total

    def incident_dp_totals(
        self, net_id: int, coloring: Dict[int, Color]
    ) -> Tuple[float, float]:
        store = self._store
        us = store.us
        vs = store.vs
        dp4 = store.dp4
        get = coloring.get
        t0 = 0.0
        t1 = 0.0
        for row in store.incident.get(net_id, ()):
            u = us[row]
            d = dp4[row]
            if u == net_id:
                c = _CIDX[get(vs[row], Color.CORE)]
                t0 += d[c]
                t1 += d[2 | c]
            else:
                c = _CIDX[get(u, Color.CORE)]
                t0 += d[c << 1]
                t1 += d[(c << 1) | 1]
        return t0, t1

    # ------------------------------------------------------------------ #
    # Components
    # ------------------------------------------------------------------ #

    def components(self) -> List[Set[int]]:
        seen: Set[int] = set()
        out: List[Set[int]] = []
        for start in sorted(self._vertices):
            if start in seen:
                continue
            comp = self.component_of(start)
            seen |= comp
            out.append(comp)
        return out

    def component_of(self, net_id: int, cap: Optional[int] = None) -> Set[int]:
        # Faithful replication of the object DFS: comp-set insertion
        # order feeds set-iteration order downstream (edges_within →
        # hard-union order → unit-root identity), so it must match. The
        # same ``cap`` stop: past it, the set is partial.
        store = self._store
        us = store.us
        vs = store.vs
        incident = store.incident
        limit = float("inf") if cap is None else cap
        comp = {net_id}
        stack = [net_id]
        while stack:
            node = stack.pop()
            for row in incident.get(node, ()):
                other = vs[row] if us[row] == node else us[row]
                if other not in comp:
                    comp.add(other)
                    stack.append(other)
            if len(comp) > limit:
                break
        return comp

    def _rows_within(self, nets: Set[int]) -> List[int]:
        """Rows with both endpoints in ``nets``, in the object path's
        edges_within order (incident traversal, first-occurrence dedup)."""
        incident = self._store.incident
        us = self._store.us
        vs = self._store.vs
        seen: set = set()
        out: List[int] = []
        for node in nets:
            rows = incident.get(node)
            if rows:
                for r in rows:
                    if r not in seen:
                        seen.add(r)
                        if us[r] in nets and vs[r] in nets:
                            out.append(r)
        return out

    def edges_within(self, nets: Set[int]) -> List[ConstraintEdge]:
        return self._store.materialize_many(self._rows_within(nets))

    # ------------------------------------------------------------------ #
    # Flip-time contraction (row twin of color_flip._contract)
    # ------------------------------------------------------------------ #

    def contract_component(self, comp: Set[int]):
        """Super-vertex contraction straight from the row lists.

        Follows the object path's edge order exactly; all accumulated
        values are integer-valued float64, so the result is bit-identical
        to ``color_flip._contract`` over the materialised edges.

        Each net's (root, parity) is read once, after the unions; the
        roots name the units, so they feed Kruskal's tie-break and the DP
        roots.
        """
        from .color_flip import _UnitGraph

        store = self._store
        rows = self._rows_within(comp)
        us = store.us
        vs = store.vs
        kinds = store.kinds
        pars = store.pars
        dp4 = store.dp4
        uf = ParityUnionFind()
        for net in comp:
            uf.add(net)
        union = uf.union
        soft: List[int] = []
        for r in rows:
            if KIND_IS_HARD[kinds[r]]:
                if not union(us[r], vs[r], pars[r]):
                    return None
            else:
                soft.append(r)

        ug = _UnitGraph()
        units = ug.units
        members = ug.members
        self_cost = ug.self_cost
        unit_of: Dict[int, Tuple[int, int]] = {}
        find = uf.find
        for net in sorted(comp):
            root, p = unit_of[net] = find(net)
            group = members.get(root)
            if group is None:
                members[root] = [(net, p)]
                units.append(root)
                self_cost[root] = [0.0, 0.0]
            else:
                group.append((net, p))

        pair_cost = ug.pair_cost
        for r in soft:
            d = dp4[r]
            ru, pu = unit_of[us[r]]
            rv, pv = unit_of[vs[r]]
            if ru == rv:
                sc = self_cost[ru]
                sc[0] += d[(pu << 1) | pv]
                sc[1] += d[((1 - pu) << 1) | (1 - pv)]
                continue
            if ru < rv:
                i0, i1, i2, i3 = _ORIENT[(pu << 1) | pv]
                key = (ru, rv)
            else:
                i0, i1, i2, i3 = _ORIENT_T[(pu << 1) | pv]
                key = (rv, ru)
            acc = pair_cost.get(key)
            if acc is None:
                pair_cost[key] = [d[i0], d[i1], d[i2], d[i3]]
            else:
                acc[0] += d[i0]
                acc[1] += d[i1]
                acc[2] += d[i2]
                acc[3] += d[i3]
        return ug


#: A layer's constraint graph as the router and the coloring functions
#: take it: production builds the SoA graph, and ``reference_router``
#: swaps in the object oracle.
ConstraintGraph = Union[OverlayConstraintGraph, SoAOverlayConstraintGraph]
