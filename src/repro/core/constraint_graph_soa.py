"""SoA backend of the overlay constraint graph.

Same contract as :class:`~repro.core.constraint_graph.OverlayConstraintGraph`
(which stays as the bit-exact object oracle, see
:mod:`repro.router.reference`), but edges live in a columnar
:class:`~repro.core.edge_store.EdgeStore`: batch scenario insertion,
pricing, pseudo-color totals, and the flip-time component contraction
read plain row lists instead of walking edge objects.

Bit-identity notes: every cost in the system is an integer-valued
float64 (Table II units, CUT_VETO, HARD=inf), so sums are exact and
accumulation order cannot change results. Orderings that *do* leak into
results (edge insertion order, incident traversal order, hard-union
order, unit-root identity) are replicated exactly from the object path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..color import Color
from .constraint_graph import Evaluation, OverlayConstraintGraph
from .edge_store import KIND_IS_HARD, KIND_ORDER, SCENARIO_INDEX, EdgeStore
from .edges import ConstraintEdge
from .odd_cycle import ParityUnionFind
from .scenario_detect import DetectedScenario
from .scenarios import HARD

#: _COLORS index of each color (matches color_flip._IDX).
_CIDX = {Color.CORE: 0, Color.SECOND: 1}


class SoAOverlayConstraintGraph(OverlayConstraintGraph):
    """Drop-in constraint graph over columnar edge storage."""

    def __init__(self) -> None:
        super().__init__()
        self._store = EdgeStore()
        #: Live hard rows in insertion order (replayed by the UF rebuild,
        #: mirroring the object path's ``_hard_edges`` list).
        self._hard_rows: List[int] = []
        #: Undo point of the newest ``add_scenarios`` batch that held a
        #: hard row: (first row, batch size, ``_hard_rows`` length, UF
        #: snapshot), all taken before the batch's unions. Removing a net
        #: whose live rows are exactly that batch (the router undoing a
        #: rejected commit) restores the snapshot instead of marking the
        #: UF for a full rebuild. Any other mutation clears it.
        self._undo: Optional[Tuple[int, int, int, tuple]] = None

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def edges(self) -> List[ConstraintEdge]:
        return self._store.materialize_many(self._store.live_rows())

    def num_edges(self) -> int:
        return self._store.live

    def edges_of(self, net_id: int) -> List[ConstraintEdge]:
        return self._store.materialize_many(self._store.incident.get(net_id, ()))

    def add_edges(self, edges):
        raise TypeError("SoA graphs insert scenario batches: use add_scenarios")

    def add_scenarios(
        self, scenarios: Sequence[DetectedScenario]
    ) -> List[DetectedScenario]:
        """Batch-insert one edge per detected scenario.

        Same counters and hard-union order as the object graph's
        ``add_scenarios``, but row construction is a table lookup.
        Returns the scenarios whose hard edges closed odd cycles (in
        insertion order).
        """
        if self._uf_dirty:
            self._rebuild_hard_uf()
        ob = obs.get_active()
        offenders: List[DetectedScenario] = []
        if not scenarios:
            if ob is not None:
                self._flush_uf_stats(ob)
            return offenders
        store = self._store
        self._undo = None
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
        union = self._hard_uf.union
        for sc, row in zip(scenarios, rows):
            if KIND_IS_HARD[kinds[row]]:
                if self._undo is None:
                    self._undo = (
                        rows.start,
                        len(rows),
                        len(self._hard_rows),
                        self._hard_uf.snapshot(),
                    )
                self._hard_rows.append(row)
                if not union(us[row], vs[row], pars[row]):
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
        had_hard = any(KIND_IS_HARD[kinds[row]] for row in rows)
        undo = self._undo
        self._undo = None
        dead = store.kill_net(net_id)
        self._vertices.discard(net_id)
        if not had_hard:
            return len(dead)
        if undo is not None and (dead[0], len(dead)) == undo[:2]:
            # The dead rows are exactly the newest batch (the router
            # undoing a rejected commit): roll the union-find back to
            # before it.
            _, _, hard_len, snap = undo
            self._hard_uf.restore(snap)
            del self._hard_rows[hard_len:]
            obs.counter_inc("ocg_uf_rollbacks_total")
        else:
            doomed = set(dead)
            self._hard_rows = [r for r in self._hard_rows if r not in doomed]
            self._uf_dirty = True
        return len(dead)

    def _rebuild_hard_uf(self) -> None:
        self._uf_dirty = False
        self._uf_retired_finds += self._hard_uf.find_ops
        self._uf_retired_unions += self._hard_uf.union_ops
        self._hard_uf = ParityUnionFind()
        self._replay_hard_rows(self._hard_uf)
        ob = obs.get_active()
        if ob is not None:
            ob.registry.counter("ocg_uf_rebuilds_total").inc()
            self._flush_uf_stats(ob)

    def _replay_hard_rows(self, uf: ParityUnionFind) -> bool:
        """Union every live hard row into ``uf``; False on an odd cycle."""
        store = self._store
        us = store.us
        vs = store.vs
        pars = store.pars
        union = uf.union
        ok = True
        for row in self._hard_rows:
            ok &= union(us[row], vs[row], pars[row])
        return ok

    def has_hard_odd_cycle(self) -> bool:
        """Full recheck: replay the live hard rows into a fresh union-find."""
        return not self._replay_hard_rows(ParityUnionFind())

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

    def component_of(self, net_id: int) -> Set[int]:
        # Faithful replication of the object DFS: comp-set insertion
        # order feeds set-iteration order downstream (edges_within →
        # hard-union order → unit-root identity), so it must match.
        store = self._store
        us = store.us
        vs = store.vs
        incident = store.incident
        comp = {net_id}
        stack = [net_id]
        while stack:
            node = stack.pop()
            for row in incident.get(node, ()):
                other = vs[row] if us[row] == node else us[row]
                if other not in comp:
                    comp.add(other)
                    stack.append(other)
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
        members = ug.members
        self_cost = ug.self_cost
        find = uf.find
        for net in sorted(comp):
            root, parity = find(net)
            if root not in members:
                members[root] = []
                ug.units.append(root)
                self_cost[root] = [0.0, 0.0]
            members[root].append((net, parity))

        for r in soft:
            d = dp4[r]
            ru, pu = find(us[r])
            rv, pv = find(vs[r])
            if ru == rv:
                sc = self_cost[ru]
                sc[0] += d[(pu << 1) | pv]
                sc[1] += d[((1 - pu) << 1) | (1 - pv)]
            else:
                # matrix[i][j] = dp[2*(i^pu) + (j^pv)]
                ug.add_pair_cost(
                    ru,
                    rv,
                    [
                        [d[(pu << 1) | pv], d[(pu << 1) | (1 ^ pv)]],
                        [d[((1 ^ pu) << 1) | pv], d[((1 ^ pu) << 1) | (1 ^ pv)]],
                    ],
                )
        return ug
