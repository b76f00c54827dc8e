"""Structure-of-arrays storage for constraint edges.

:class:`EdgeStore` keeps the columns of every scenario edge — endpoints,
scenario, kind, parity, overlap, and the 4-vector cost/cut-risk/DP
matrices (ALL_PAIRS order) — as parallel Python lists instead of
per-object :class:`~repro.core.edges.ConstraintEdge` instances. Appends
fill rows from per-(scenario, tip-owner) tables built once at import.
The router's commits append a handful of rows and its queries read a
handful of incident rows, and at that size plain list indexing is the
cheapest representation.

The store is the backing of
:class:`~repro.core.constraint_graph_soa.SoAOverlayConstraintGraph`;
rows materialise back into bit-identical ``ConstraintEdge`` objects on
demand, so object-consuming callers (reports, tests, the brute-force
oracle) keep working unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..color import ALL_PAIRS
from .edges import _KIND_BY_SCENARIO, CUT_VETO, ConstraintEdge, EdgeKind
from .scenarios import SCENARIO_RULES, ScenarioType

#: Stable codings: enum declaration order, shared by every consumer.
SCENARIO_ORDER: Tuple[ScenarioType, ...] = tuple(ScenarioType)
SCENARIO_INDEX: Dict[ScenarioType, int] = {s: i for i, s in enumerate(SCENARIO_ORDER)}
KIND_ORDER: Tuple[EdgeKind, ...] = tuple(EdgeKind)
KIND_INDEX: Dict[EdgeKind, int] = {k: i for i, k in enumerate(KIND_ORDER)}

#: Per-kind-code hardness.
KIND_IS_HARD: List[bool] = [k.is_hard for k in KIND_ORDER]

Cost4 = Tuple[float, float, float, float]
Risk4 = Tuple[bool, bool, bool, bool]

_INF = float("inf")


def _dp4(cost: Cost4, risk: Risk4) -> Cost4:
    """DP cost: physical cost plus CUT_VETO on every risky finite pair."""
    return tuple(  # type: ignore[return-value]
        c + CUT_VETO if (r and c != _INF) else c for c, r in zip(cost, risk)
    )


def _build_tables():
    """Fold Table II + orientation into per-scenario lookup tables.

    ``cost[s][tip]`` / ``risk[s][tip]`` / ``dp[s][tip]`` give the base
    cost, cut-risk flag and DP cost of scenario ``s`` for each color pair
    (ALL_PAIRS order) with ``tip`` = 1 when A is the tip-owner — exactly
    what :func:`~repro.core.scenarios.oriented_cost` computes per call,
    minus the overlap scaling (applied at append time).
    """
    cost, risk, dp, scales, kind, parity = [], [], [], [], [], []
    for stype in SCENARIO_ORDER:
        rule = SCENARIO_RULES[stype]
        per_tip = []
        for tip in (0, 1):
            pairs = [pair if tip else pair.swapped for pair in ALL_PAIRS]
            per_tip.append(
                (
                    tuple(float(rule.cost[p]) for p in pairs),
                    tuple(p in rule.cut_risk for p in pairs),
                )
            )
        cost.append([c4 for c4, _ in per_tip])
        risk.append([r4 for _, r4 in per_tip])
        dp.append([_dp4(c4, r4) for c4, r4 in per_tip])
        scales.append(rule.scales_with_overlap)
        ekind = _KIND_BY_SCENARIO[stype]
        kind.append(KIND_INDEX[ekind])
        if ekind is EdgeKind.HARD_DIFF:
            parity.append(1)
        elif ekind is EdgeKind.HARD_SAME:
            parity.append(0)
        else:
            parity.append(-1)
    return cost, risk, dp, scales, kind, parity


SCEN_COST, SCEN_RISK, SCEN_DP, SCEN_SCALES, SCEN_KIND, SCEN_PARITY = _build_tables()


class EdgeStore:
    """Columnar edge storage with incident row lists.

    Rows are append-only; removal marks rows dead (``alive``) and drops
    them from the incident lists, which preserves the surviving rows'
    relative order exactly like the object path's order-preserving list
    filters.
    """

    def __init__(self) -> None:
        self.us: List[int] = []
        self.vs: List[int] = []
        self.scens: List[int] = []
        self.kinds: List[int] = []
        self.pars: List[int] = []
        self.ovrs: List[int] = []
        self.cost4: List[Cost4] = []
        self.risk4: List[Risk4] = []
        #: DP cost (physical + CUT_VETO on risky finite pairs) — computed
        #: once per row at append instead of per query.
        self.dp4: List[Cost4] = []
        self.alive: List[bool] = []
        #: Live-row count.
        self.live = 0
        #: net id -> incident live rows in insertion order.
        self.incident: Dict[int, List[int]] = {}

    def append_scenarios(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        scodes: Sequence[int],
        tips: Sequence[bool],
        overlaps: Sequence[int],
    ) -> range:
        """Append one row per detected scenario instance; returns row ids.

        The cost/risk/dp columns come from the precomputed per-(scenario,
        tip) tables — the batch equivalent of ``ConstraintEdge.
        from_scenario`` per instance.
        """
        n = len(us)
        lo = len(self.us)
        for i in range(n):
            s = scodes[i]
            t = 1 if tips[i] else 0
            ovr = overlaps[i]
            if ovr < 1:
                ovr = 1
            c4 = SCEN_COST[s][t]
            r4 = SCEN_RISK[s][t]
            if SCEN_SCALES[s] and ovr != 1:
                # inf * k == inf and the finite entries are small ints, so
                # the multiply is exact (== oriented_cost).
                c4 = tuple(c * ovr for c in c4)
                d4 = _dp4(c4, r4)
            else:
                d4 = SCEN_DP[s][t]
            self.us.append(us[i])
            self.vs.append(vs[i])
            self.scens.append(s)
            self.kinds.append(SCEN_KIND[s])
            self.pars.append(SCEN_PARITY[s])
            self.ovrs.append(ovr)
            self.cost4.append(c4)
            self.risk4.append(r4)
            self.dp4.append(d4)
        self.alive.extend([True] * n)
        self.live += n
        return range(lo, lo + n)

    def link(self, row: int) -> None:
        """Register ``row`` on both endpoints' incident lists."""
        self.incident.setdefault(self.us[row], []).append(row)
        self.incident.setdefault(self.vs[row], []).append(row)

    def kill_net(self, net_id: int) -> List[int]:
        """Drop every row incident to ``net_id``; returns the dead rows."""
        rows = self.incident.pop(net_id, [])
        if not rows:
            return rows
        doomed = set(rows)
        alive = self.alive
        us = self.us
        vs = self.vs
        for row in rows:
            alive[row] = False
            other = vs[row] if us[row] == net_id else us[row]
            lst = self.incident.get(other)
            if lst is not None:
                kept = [r for r in lst if r not in doomed]
                if kept:
                    self.incident[other] = kept
                else:
                    del self.incident[other]
        self.live -= len(rows)
        return rows

    def live_rows(self) -> List[int]:
        """Live rows in insertion order (== the object path's edge order)."""
        return [row for row, ok in enumerate(self.alive) if ok]

    def materialize(self, row: int) -> ConstraintEdge:
        """Rebuild the bit-identical ConstraintEdge object of one row."""
        return ConstraintEdge(
            u=self.us[row],
            v=self.vs[row],
            scenario=SCENARIO_ORDER[self.scens[row]],
            kind=KIND_ORDER[self.kinds[row]],
            cost=self.cost4[row],
            cut_risk=self.risk4[row],
            overlap=self.ovrs[row],
        )

    def materialize_many(self, rows) -> List[ConstraintEdge]:
        return [self.materialize(r) for r in rows]
