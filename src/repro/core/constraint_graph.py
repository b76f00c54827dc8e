"""The overlay constraint graph (Section III-B).

One graph per routing layer. Vertices are routed nets (per-layer color
freedom: "a net can be assigned to different colors in different routing
layers"); edges are scenario instances. The graph maintains a parity
union-find over its hard edges so that inserting a net's edges detects
hard odd cycles immediately, and it prices any color assignment (side
overlay units + type A cut risks) for the flipping machinery.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..color import Color
from .edges import ConstraintEdge
from .odd_cycle import ParityUnionFind
from .scenarios import HARD

if TYPE_CHECKING:
    from .scenario_detect import DetectedScenario


@dataclass(frozen=True)
class Evaluation:
    """Price of a color assignment on one layer's graph."""

    overlay_units: float
    hard_violations: int
    cut_risks: int

    @property
    def feasible(self) -> bool:
        return self.hard_violations == 0


class OverlayConstraintGraph:
    """Multigraph of constraint edges with incremental hard-cycle checking.

    One object per edge: the readable form of the graph, and the oracle
    of the router's :class:`~repro.core.constraint_graph_soa.
    SoAOverlayConstraintGraph`. Production never instantiates it; the
    tests and :func:`repro.router.reference.reference_router` do.
    """

    def __init__(self) -> None:
        self._edges: List[ConstraintEdge] = []
        #: The hard subset of ``_edges`` in insertion order — the rebuild
        #: below replays exactly these, so keeping them separate turns a
        #: full-edge-list scan (with an enum-membership test per edge)
        #: into a direct walk.
        self._hard_edges: List[ConstraintEdge] = []
        self._incident: Dict[int, List[ConstraintEdge]] = defaultdict(list)
        self._hard_uf = ParityUnionFind()
        #: True when removals invalidated ``_hard_uf``; the rebuild is
        #: deferred to the next hard-edge union or parity query so a
        #: multi-net rip-up pays for one rebuild, not one per net.
        self._uf_dirty = False
        self._vertices: Set[int] = set()
        # Union-find op accounting across rebuilds (retired = ops made by
        # union-finds that were since thrown away; published = what the
        # metrics registry has already been told).
        self._uf_retired_finds = 0
        self._uf_retired_unions = 0
        self._uf_published_finds = 0
        self._uf_published_unions = 0

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
        return list(self._edges)

    def num_edges(self) -> int:
        return len(self._edges)

    def edges_of(self, net_id: int) -> List[ConstraintEdge]:
        return list(self._incident.get(net_id, ()))

    def add_vertex(self, net_id: int) -> None:
        """Register a net even if it has no scenario yet (isolated vertex)."""
        self._vertices.add(net_id)

    def add_edges(self, edges: Iterable[ConstraintEdge]) -> List[ConstraintEdge]:
        """Insert scenario edges; returns the hard edges that closed odd
        cycles (empty list = consistent).

        On failure the inserted edges *remain* in the graph — the router
        rips up the offending net, which calls :meth:`remove_net` and
        restores consistency. This mirrors the paper's flow (Fig. 19,
        lines 4-9): update, check, rip-up on violation.
        """
        offenders: List[ConstraintEdge] = []
        if self._uf_dirty:
            self._rebuild_hard_uf()
        ob = obs.get_active()
        for edge in edges:
            self._edges.append(edge)
            self._incident[edge.u].append(edge)
            self._incident[edge.v].append(edge)
            self._vertices.add(edge.u)
            self._vertices.add(edge.v)
            if ob is not None:
                ob.registry.counter(
                    "ocg_edges_added_total", kind=edge.kind.value
                ).inc()
            if edge.kind.is_hard:
                self._hard_edges.append(edge)
                if not self._hard_uf.union(edge.u, edge.v, edge.parity):
                    offenders.append(edge)
                    if ob is not None:
                        ob.registry.counter("ocg_odd_cycle_hits_total").inc()
        if ob is not None:
            self._flush_uf_stats(ob)
        return offenders

    def add_scenarios(
        self, scenarios: Sequence["DetectedScenario"]
    ) -> List["DetectedScenario"]:
        """Insert one edge per detected scenario; returns the scenarios
        whose hard edges closed odd cycles (in insertion order)."""
        edges = [
            ConstraintEdge.from_scenario(
                sc.net_a, sc.net_b, sc.scenario, sc.a_is_tip_owner, sc.overlap
            )
            for sc in scenarios
        ]
        scenario_of = {id(edge): sc for edge, sc in zip(edges, scenarios)}
        return [scenario_of[id(edge)] for edge in self.add_edges(edges)]

    def remove_net(self, net_id: int) -> int:
        """Remove a net and its incident edges; returns edges removed.

        The parity union-find does not support deletion, so the next
        insertion rebuilds it from every surviving hard edge. This is the
        oracle of the SoA graph, which repairs only the touched components.
        """
        incident = self._incident.pop(net_id, [])
        if not incident:
            self._vertices.discard(net_id)
            return 0
        doomed = set(map(id, incident))
        self._edges = [e for e in self._edges if id(e) not in doomed]
        for edge in incident:
            other = edge.other(net_id)
            self._incident[other] = [
                e for e in self._incident[other] if id(e) not in doomed
            ]
        self._vertices.discard(net_id)
        if any(e.kind.is_hard for e in incident):
            # Only hard edges live in the union-find; dropping a net with
            # none leaves it valid as-is.
            self._hard_edges = [e for e in self._hard_edges if id(e) not in doomed]
            self._uf_dirty = True
        return len(incident)

    def _rebuild_hard_uf(self) -> None:
        self._uf_dirty = False
        self._uf_retired_finds += self._hard_uf.find_ops
        self._uf_retired_unions += self._hard_uf.union_ops
        self._hard_uf = ParityUnionFind()
        for edge in self._hard_edges:
            self._hard_uf.union(edge.u, edge.v, edge.parity)
        ob = obs.get_active()
        if ob is not None:
            ob.registry.counter("ocg_uf_rebuilds_total").inc()
            ob.registry.counter("ocg_uf_repair_rows_total").inc(
                len(self._hard_edges)
            )
            self._flush_uf_stats(ob)

    def _flush_uf_stats(self, ob) -> None:
        """Publish union-find op deltas since the last flush."""
        finds = self._uf_retired_finds + self._hard_uf.find_ops
        unions = self._uf_retired_unions + self._hard_uf.union_ops
        if finds > self._uf_published_finds:
            ob.registry.counter("uf_find_ops_total").inc(
                finds - self._uf_published_finds
            )
            self._uf_published_finds = finds
        if unions > self._uf_published_unions:
            ob.registry.counter("uf_union_ops_total").inc(
                unions - self._uf_published_unions
            )
            self._uf_published_unions = unions

    # ------------------------------------------------------------------ #
    # Hard-constraint queries
    # ------------------------------------------------------------------ #

    def has_hard_odd_cycle(self) -> bool:
        """Full recheck: is the current hard-edge set two-color satisfiable?"""
        uf = ParityUnionFind()
        return not all(
            uf.union(e.u, e.v, e.parity) for e in self._edges if e.kind.is_hard
        )

    # ------------------------------------------------------------------ #
    # Pricing
    # ------------------------------------------------------------------ #

    def evaluate(self, coloring: Dict[int, Color]) -> Evaluation:
        """Price a full assignment. Vertices missing from ``coloring``
        default to CORE (the pseudo-coloring default)."""
        overlay = 0.0
        hard = 0
        risks = 0
        for edge in self._edges:
            cu = coloring.get(edge.u, Color.CORE)
            cv = coloring.get(edge.v, Color.CORE)
            cost = edge.pair_cost(cu, cv)
            if cost == HARD:
                hard += 1
            else:
                overlay += cost
            if edge.has_cut_risk(cu, cv):
                risks += 1
        return Evaluation(overlay_units=overlay, hard_violations=hard, cut_risks=risks)

    def net_cost(self, net_id: int, coloring: Dict[int, Color]) -> float:
        """Side-overlay units on edges incident to one net (HARD -> inf)."""
        total = 0.0
        for edge in self._incident.get(net_id, ()):
            cu = coloring.get(edge.u, Color.CORE)
            cv = coloring.get(edge.v, Color.CORE)
            total += edge.pair_cost(cu, cv)
        return total

    def incident_dp_totals(
        self, net_id: int, coloring: Dict[int, Color]
    ) -> Tuple[float, float]:
        """(total CORE, total SECOND) DP cost of coloring one net.

        For each candidate color of ``net_id``, sums the DP cost
        (physical overlay + cut-conflict veto) over its incident edges
        with neighbours at their current colors (missing -> CORE). A
        total that reaches HARD stops early: costs are non-negative, so
        it stays HARD.
        """
        totals = []
        for color in (Color.CORE, Color.SECOND):
            total = 0.0
            for edge in self._incident.get(net_id, ()):
                if edge.u == net_id and edge.v == net_id:
                    continue  # self-loops cannot occur, but stay safe
                if edge.u == net_id:
                    total += edge.dp_cost(color, coloring.get(edge.v, Color.CORE))
                else:
                    total += edge.dp_cost(coloring.get(edge.u, Color.CORE), color)
                if total >= HARD:
                    break
            totals.append(total)
        return totals[0], totals[1]

    # ------------------------------------------------------------------ #
    # Components
    # ------------------------------------------------------------------ #

    def components(self) -> List[Set[int]]:
        """Connected components over *all* edges (hard and soft)."""
        seen: Set[int] = set()
        out: List[Set[int]] = []
        for start in sorted(self._vertices):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for edge in self._incident.get(node, ()):
                    other = edge.other(node)
                    if other not in comp:
                        comp.add(other)
                        stack.append(other)
            seen |= comp
            out.append(comp)
        return out

    def component_of(self, net_id: int, cap: Optional[int] = None) -> Set[int]:
        """The nets connected to ``net_id``, in depth-first order.

        With ``cap``, the walk stops as soon as it holds more than ``cap``
        nets and returns that partial set: a component within the cap
        comes back whole and in the same order.
        """
        limit = float("inf") if cap is None else cap
        comp = {net_id}
        stack = [net_id]
        while stack:
            node = stack.pop()
            for edge in self._incident.get(node, ()):
                other = edge.other(node)
                if other not in comp:
                    comp.add(other)
                    stack.append(other)
            if len(comp) > limit:
                break
        return comp

    def edges_within(self, nets: Set[int]) -> List[ConstraintEdge]:
        """All edges whose endpoints both lie in ``nets`` (each once)."""
        out = []
        seen = set()
        for node in nets:
            for edge in self._incident.get(node, ()):
                if id(edge) in seen:
                    continue
                if edge.u in nets and edge.v in nets:
                    seen.add(id(edge))
                    out.append(edge)
        return out

    def contract_component(self, comp: Set[int]):
        """Super-vertex contraction of one component (see color_flip).

        Returns the contracted unit graph, or ``None`` when the
        component's hard edges are inconsistent. The SoA backend
        overrides this with a contraction straight from its row lists;
        flip_colors calls through this hook so both backends share the
        downstream spanning-forest + DP machinery.
        """
        from .color_flip import _contract

        return _contract(self.edges_within(comp), comp)
