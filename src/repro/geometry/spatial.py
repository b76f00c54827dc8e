"""Uniform-bucket spatial index for neighbour queries.

Scenario detection asks, after each net is routed: "which existing
rectangles lie within the independence distance of this new rectangle?"
(Theorem 1). A uniform grid of buckets answers that in expected O(1) per
query for routing-style workloads where shapes are small and evenly spread.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generic, Iterable, Iterator, List, Set, Tuple, TypeVar

from ..errors import GeometryError
from .rect import Rect

T = TypeVar("T")


class GridIndex(Generic[T]):
    """Maps rectangles to arbitrary payloads; queries by region.

    Items may be inserted and removed (rip-up & reroute removes a net's
    shapes). The same payload may be registered under several rectangles.
    """

    def __init__(self, bucket_size: int = 8) -> None:
        if bucket_size <= 0:
            raise GeometryError(f"bucket size must be positive, got {bucket_size}")
        self._bucket = bucket_size
        self._cells: Dict[Tuple[int, int], List[Tuple[Rect, T]]] = defaultdict(list)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _keys(self, rect: Rect) -> Iterator[Tuple[int, int]]:
        b = self._bucket
        for bx in range(rect.xlo // b, (rect.xhi - 1) // b + 1):
            for by in range(rect.ylo // b, (rect.yhi - 1) // b + 1):
                yield bx, by

    def insert(self, rect: Rect, item: T) -> None:
        for key in self._keys(rect):
            self._cells[key].append((rect, item))
        self._count += 1

    def remove(self, rect: Rect, item: T) -> bool:
        """Remove one (rect, item) registration; returns False if absent."""
        entry = (rect, item)
        present = False
        for key in self._keys(rect):
            bucket = self._cells.get(key)
            if not bucket:
                continue
            try:
                bucket.remove(entry)
            except ValueError:
                continue
            present = True
            if not bucket:
                del self._cells[key]
        if present:
            self._count -= 1
        return present

    def query(self, region: Rect) -> List[Tuple[Rect, T]]:
        """All (rect, item) pairs whose rect overlaps ``region`` (deduplicated)."""
        b = self._bucket
        bx_lo, bx_hi = region.xlo // b, (region.xhi - 1) // b
        by_lo, by_hi = region.ylo // b, (region.yhi - 1) // b
        if bx_lo == bx_hi and by_lo == by_hi:
            # Single-bucket region (the common case for cut/wire-sized
            # queries): every entry appears at most once, skip the
            # dedup-set bookkeeping.
            bucket = self._cells.get((bx_lo, by_lo))
            if not bucket:
                return []
            return [(rect, item) for rect, item in bucket if rect.overlaps(region)]
        seen: Set[Tuple[Rect, int]] = set()
        out: List[Tuple[Rect, T]] = []
        for bx in range(bx_lo, bx_hi + 1):
            for by in range(by_lo, by_hi + 1):
                for rect, item in self._cells.get((bx, by), ()):
                    if rect.overlaps(region):
                        ident = (rect, id(item))
                        if ident in seen:
                            continue
                        seen.add(ident)
                        out.append((rect, item))
        return out

    def neighbours(self, rect: Rect, distance: int) -> List[Tuple[Rect, T]]:
        """All entries whose rect lies strictly within ``distance`` of ``rect``.

        Distance is the rectilinear gap ``max(gap_x, gap_y)`` — the metric
        the track-difference scenario tuples are built on. The query shape
        itself (identical rect+item) is *not* filtered; callers exclude
        self-hits by payload.
        """
        region = rect.inflated(distance)
        out = []
        for other, item in self.query(region):
            if max(rect.gap_x(other), rect.gap_y(other)) < distance:
                out.append((other, item))
        return out

    def items(self) -> Iterator[Tuple[Rect, T]]:
        """Iterate all registrations (each exactly once).

        Registrations spanning several buckets are deduplicated by identity
        of their first bucket.
        """
        emitted: Set[Tuple[int, int, int]] = set()
        for key, bucket in self._cells.items():
            for rect, item in bucket:
                first_key = next(self._keys(rect))
                if key != first_key:
                    continue
                yield rect, item

    def clear(self) -> None:
        self._cells.clear()
        self._count = 0
