"""Incremental detection of potential overlay scenarios between nets.

After each net is routed, its wire segments are fragmented into rectangles
(Theorem 3) and checked against every existing rectangle within the
independence radius (Theorem 1) using a bucketed spatial index. Each
dependent pair maps to a scenario type (Theorem 2) and becomes a constraint
edge. Rip-up removes a net's shapes and the scenarios they induced.

:class:`VectorScenarioDetector` is the router's detector. The
per-fragment object detector it was derived from,
:class:`repro.core.reference.ScenarioDetector`, is the oracle it is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..geometry import Rect, Segment
from .edge_store import SCENARIO_INDEX, SCENARIO_ORDER
from .scenarios import SCENARIO_RULES, ScenarioType, _ORTHOGONAL_MAP, _PARALLEL_MAP

#: Query radius in tracks; Theorem 1/2 guarantee independence beyond it.
NEIGHBOUR_RADIUS = 3


@dataclass(frozen=True)
class ShapeRecord:
    """One wire fragment registered in the index."""

    net_id: int
    rect: Rect  # grid-cell footprint (track coordinates)
    horizontal: bool
    layer: int


@dataclass(frozen=True)
class DetectedScenario:
    """A scenario instance between net_a's fragment and net_b's fragment."""

    layer: int
    net_a: int
    net_b: int
    scenario: ScenarioType
    a_is_tip_owner: bool
    overlap: int
    rect_a: Rect
    rect_b: Rect


def _scenario_code_tables():
    """Dense (along, across) -> scenario-index tables from the rule maps
    (-1: no scenario), plus the per-index triviality flags."""
    par = [[-1] * 3 for _ in range(3)]
    orth = [[-1] * 3 for _ in range(3)]
    for (along, across), stype in _PARALLEL_MAP.items():
        par[along][across] = SCENARIO_INDEX[stype]
    for (along, across), stype in _ORTHOGONAL_MAP.items():
        orth[along][across] = SCENARIO_INDEX[stype]
    trivial = [SCENARIO_RULES[s].is_trivial for s in SCENARIO_ORDER]
    return par, orth, trivial


_PAR_CODE, _ORTH_CODE, _SCEN_TRIVIAL = _scenario_code_tables()


class _LayerShapes:
    """One layer's fragments in columnar form + the bucket grid.

    Mirrors a ``GridIndex[ShapeRecord]`` exactly: rows appended in
    insertion order, each row registered in every bucket its rect spans,
    removed rows dropped from the bucket lists (relative order kept).
    """

    def __init__(self, bucket_size: int = 8) -> None:
        self.bucket = bucket_size
        self.xlo: List[int] = []
        self.ylo: List[int] = []
        self.xhi: List[int] = []
        self.yhi: List[int] = []
        self.net: List[int] = []
        self.horiz: List[bool] = []
        self.rects: List[Rect] = []
        self.buckets: Dict[Tuple[int, int], List[int]] = {}

    def _keys(self, rect: Rect):
        b = self.bucket
        for bx in range(rect.xlo // b, (rect.xhi - 1) // b + 1):
            for by in range(rect.ylo // b, (rect.yhi - 1) // b + 1):
                yield bx, by

    def insert(self, rect: Rect, net_id: int, horizontal: bool) -> int:
        row = len(self.rects)
        self.xlo.append(rect.xlo)
        self.ylo.append(rect.ylo)
        self.xhi.append(rect.xhi)
        self.yhi.append(rect.yhi)
        self.net.append(net_id)
        self.horiz.append(horizontal)
        self.rects.append(rect)
        for key in self._keys(rect):
            self.buckets.setdefault(key, []).append(row)
        return row

    def remove(self, row: int) -> None:
        rect = self.rects[row]
        for key in self._keys(rect):
            lst = self.buckets.get(key)
            if lst is not None:
                lst.remove(row)
                if not lst:
                    del self.buckets[key]

    def candidate_rows(self, region: Rect) -> List[int]:
        """Rows whose bucket ranges meet ``region``, in GridIndex query
        order (bucket-scan order, first occurrence kept).

        Single-bucket queries return the bucket list itself — callers
        must treat the result as read-only.
        """
        b = self.bucket
        bx_lo, bx_hi = region.xlo // b, (region.xhi - 1) // b
        by_lo, by_hi = region.ylo // b, (region.yhi - 1) // b
        if bx_lo == bx_hi and by_lo == by_hi:
            return self.buckets.get((bx_lo, by_lo)) or []
        seen: set = set()
        out: List[int] = []
        for bx in range(bx_lo, bx_hi + 1):
            for by in range(by_lo, by_hi + 1):
                rows = self.buckets.get((bx, by))
                if rows:
                    for row in rows:
                        if row not in seen:
                            seen.add(row)
                            out.append(row)
        return out


class VectorScenarioDetector:
    """Column-backed scenario detector, bit-identical to the object oracle.

    Candidate gathering walks the same uniform buckets in the same
    order as the oracle's ``GridIndex``, and the per-pair relation
    classification (Theorems 1/2 and the scenario tables) reads the
    layer's coordinate columns instead of calling ``classify_relation``
    per candidate pair. The emitted ``DetectedScenario`` list is
    identical, element for element and in order, to the oracle's —
    that order feeds rip-up and repair decisions downstream, so it is
    part of the contract.
    """

    def __init__(self, num_layers: int) -> None:
        self._layers = [_LayerShapes(bucket_size=8) for _ in range(num_layers)]
        self._rows_by_net: Dict[int, List[Tuple[int, int]]] = {}

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_net(
        self, net_id: int, segments: Iterable[Segment]
    ) -> List[DetectedScenario]:
        """Register a routed net's segments; returns the induced scenarios."""
        records = [
            (seg.layer, seg.to_rect(), seg.horizontal) for seg in segments
        ]
        detected = self._scan_records(net_id, records)
        rows = self._rows_by_net.setdefault(net_id, [])
        for layer, rect, horizontal in records:
            row = self._layers[layer].insert(rect, net_id, horizontal)
            rows.append((layer, row))
        return detected

    def remove_net(self, net_id: int) -> int:
        """Forget a net's shapes; returns how many fragments were removed."""
        rows = self._rows_by_net.pop(net_id, [])
        for layer, row in rows:
            self._layers[layer].remove(row)
        return len(rows)

    def shapes_of(self, net_id: int) -> List[ShapeRecord]:
        out = []
        for layer, row in self._rows_by_net.get(net_id, ()):
            shapes = self._layers[layer]
            out.append(
                ShapeRecord(
                    net_id=net_id,
                    rect=shapes.rects[row],
                    horizontal=shapes.horiz[row],
                    layer=layer,
                )
            )
        return out

    # ------------------------------------------------------------------ #
    # Classification
    # ------------------------------------------------------------------ #

    def _scan_records(
        self, net_id: int, records: List[Tuple[int, Rect, bool]]
    ) -> List[DetectedScenario]:
        """Scenarios between the net's new fragments and existing
        fragments of other nets.

        Pair order is record-major, bucket-scan order within a record —
        the oracle's nested loop order. The oracle's bucket pre-filters
        (region overlap, rectilinear gap) are subsumed by the dependence
        test: ``max(dx, dy) < 3`` implies a gap below the neighbour
        radius, so only the net filter and the Theorem-2 classification
        remain.
        """
        radius = NEIGHBOUR_RADIUS
        out: List[DetectedScenario] = []
        for layer, rect, a_h in records:
            shapes = self._layers[layer]
            if not shapes.buckets:
                continue
            ax0, ax1 = rect.xlo, rect.xhi - 1
            ay0, ay1 = rect.ylo, rect.yhi - 1
            xlo, ylo = shapes.xlo, shapes.ylo
            xhi, yhi = shapes.xhi, shapes.yhi
            net, horiz = shapes.net, shapes.horiz
            for row in shapes.candidate_rows(rect.inflated(radius)):
                if net[row] == net_id:
                    continue
                bx0, bx1 = xlo[row], xhi[row] - 1
                by0, by1 = ylo[row], yhi[row] - 1
                if ax1 < bx0:
                    dx = bx0 - ax1
                elif bx1 < ax0:
                    dx = ax0 - bx1
                else:
                    dx = 0
                if ay1 < by0:
                    dy = by0 - ay1
                elif by1 < ay0:
                    dy = ay0 - by1
                else:
                    dy = 0
                if dx == 0 and dy == 0:
                    continue
                if dx >= 3 or dy >= 3:
                    continue
                if dx >= 2 and dy >= 2:
                    continue
                if a_h:
                    along, across = dx, dy
                else:
                    along, across = dy, dx
                if horiz[row] == a_h:
                    if along == 0:
                        if a_h:
                            ov = min(ax1, bx1) - max(ax0, bx0) + 1
                        else:
                            ov = min(ay1, by1) - max(ay0, by0) + 1
                        overlap = ov if ov > 1 else 1
                    else:
                        overlap = 1
                    tip = True
                    code = _PAR_CODE[along if along < 2 else 2][
                        across if across < 2 else 2
                    ]
                else:
                    overlap = 1
                    tip = along >= across
                    lo = dx if dx < dy else dy
                    hi = dx if dx > dy else dy
                    code = _ORTH_CODE[lo if lo < 2 else 2][hi if hi < 2 else 2]
                # Types 2-c, 2-d and 3-e never induce side overlay; the
                # paper drops them from the constraint graph ("the three
                # scenarios are not considered").
                if code < 0 or _SCEN_TRIVIAL[code]:
                    continue
                out.append(
                    DetectedScenario(
                        layer=layer,
                        net_a=net_id,
                        net_b=net[row],
                        scenario=SCENARIO_ORDER[code],
                        a_is_tip_owner=tip,
                        overlap=overlap,
                        rect_a=rect,
                        rect_b=shapes.rects[row],
                    )
                )
        return out
