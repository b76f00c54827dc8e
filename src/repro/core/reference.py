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
* :func:`reference_optimal_coloring` — exhaustive 2^n enumeration with
  the same DP costs the flipping machinery uses.

None of these are performance-relevant; they trade every optimisation for
transparency.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..color import Color
from ..geometry import GridIndex, Segment
from .constraint_graph import OverlayConstraintGraph
from .edges import ConstraintEdge
from .relation import classify_relation
from .scenario_detect import NEIGHBOUR_RADIUS, DetectedScenario, ShapeRecord
from .scenarios import SCENARIO_RULES, ScenarioType, scenario_for_relation


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


def reference_optimal_coloring(
    graph: OverlayConstraintGraph, nets: Optional[Sequence[int]] = None
) -> Tuple[Dict[int, Color], float]:
    """Exhaustive optimum over all assignments (<= ~20 nets).

    Identical semantics to
    :func:`repro.core.color_flip.brute_force_coloring`, re-exported here
    so the oracle suite lives in one module.
    """
    from .color_flip import brute_force_coloring

    if nets is None:
        nets = sorted(graph.vertices)
    return brute_force_coloring(graph, list(nets))

