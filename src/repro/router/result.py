"""Routing result records and aggregate metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..color import Color
from ..geometry import Segment
from ..grid import Via


@dataclass
class NetRoute:
    """The committed route of one net."""

    net_id: int
    segments: List[Segment] = field(default_factory=list)
    vias: List[Via] = field(default_factory=list)
    success: bool = False
    ripups: int = 0

    @property
    def wirelength(self) -> int:
        return sum(seg.length for seg in self.segments)

    @property
    def via_count(self) -> int:
        return len(self.vias)


@dataclass
class RoutingResult:
    """Everything the evaluation section reports, for one run.

    ``colorings`` maps layer -> net -> color; overlay figures are both in
    abstract units (1 unit = w_line) and nm. ``cut_conflicts`` counts the
    type A + type B conflicts remaining in the committed result — zero for
    the proposed router by construction (contribution 5 of the paper).
    """

    routes: Dict[int, NetRoute] = field(default_factory=dict)
    colorings: Dict[int, Dict[int, Color]] = field(default_factory=dict)
    overlay_units: float = 0.0
    overlay_nm: float = 0.0
    hard_overlays: int = 0
    cut_conflicts: int = 0
    #: Rejected commits over the whole run, retried attempts included.
    total_ripups: int = 0
    color_flips: int = 0
    cpu_seconds: float = 0.0

    @property
    def routed_count(self) -> int:
        return sum(1 for r in self.routes.values() if r.success)

    @property
    def routability(self) -> float:
        """Fraction of nets successfully routed (the paper's 'Rout. %')."""
        if not self.routes:
            return 0.0
        return self.routed_count / len(self.routes)

    @property
    def total_wirelength(self) -> int:
        return sum(r.wirelength for r in self.routes.values() if r.success)

    @property
    def total_vias(self) -> int:
        return sum(r.via_count for r in self.routes.values() if r.success)

    def summary(self) -> str:
        """One-line human-readable digest (used by the examples)."""
        return (
            f"routed {self.routed_count}/{len(self.routes)} "
            f"({self.routability * 100:.1f}%), "
            f"overlay {self.overlay_nm:.0f} nm ({self.overlay_units:.0f} units), "
            f"{self.cut_conflicts} cut conflicts, "
            f"wl {self.total_wirelength}, vias {self.total_vias}, "
            f"{self.cpu_seconds:.2f}s"
        )
