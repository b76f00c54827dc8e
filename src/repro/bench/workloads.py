"""Synthetic benchmarks reproducing the paper's Test1-Test10.

The paper evaluates on ten randomly generated two-pin-net benchmarks with
three routing layers at the 10 nm node (track pitch 40 nm):

=======  ======  ===========  =================
Circuit  #nets   die (um^2)   pin model
=======  ======  ===========  =================
Test1    1500    6.8 x 6.8    fixed
Test2    2700    9.6 x 9.6    fixed
Test3    5500    16 x 16      fixed
Test4    12000   24 x 24      fixed
Test5    28000   36 x 36      fixed
Test6    1500    6.8 x 6.8    multi-candidate
Test7    2700    9.6 x 9.6    multi-candidate
Test8    5500    16 x 16      multi-candidate
Test9    12000   24 x 24      multi-candidate
Test10   28000   36 x 36      multi-candidate
=======  ======  ===========  =================

The exact net distribution is unpublished; we use uniformly placed pins
with bounded net span, which lands the proposed router in the paper's
94-98 % routability band. ``scale`` shrinks an instance for laptop runs:
the die side scales by ``scale`` and the net count by ``scale**2`` so the
congestion profile is preserved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..errors import ReproError
from ..geometry import Point
from ..grid import RoutingGrid, default_layer_stack
from ..netlist import Net, Netlist, Pin
from ..rules import DesignRules


@dataclass(frozen=True)
class BenchmarkSpec:
    """One row of the paper's benchmark tables."""

    name: str
    num_nets: int
    die_um: float
    multi_candidate: bool

    @property
    def tracks(self) -> int:
        """Die side in tracks at the default 40 nm pitch."""
        return round(self.die_um * 1000 / DesignRules().pitch)


FIXED_PIN_BENCHMARKS: List[BenchmarkSpec] = [
    BenchmarkSpec("Test1", 1500, 6.8, False),
    BenchmarkSpec("Test2", 2700, 9.6, False),
    BenchmarkSpec("Test3", 5500, 16.0, False),
    BenchmarkSpec("Test4", 12000, 24.0, False),
    BenchmarkSpec("Test5", 28000, 36.0, False),
]

MULTI_PIN_BENCHMARKS: List[BenchmarkSpec] = [
    BenchmarkSpec("Test6", 1500, 6.8, True),
    BenchmarkSpec("Test7", 2700, 9.6, True),
    BenchmarkSpec("Test8", 5500, 16.0, True),
    BenchmarkSpec("Test9", 12000, 24.0, True),
    BenchmarkSpec("Test10", 28000, 36.0, True),
]


def generate_benchmark(
    spec: BenchmarkSpec,
    scale: float = 1.0,
    seed: int = 2014,
    num_layers: int = 3,
    max_span_tracks: int = 12,
    blockage_density: float = 0.0,
) -> Tuple[RoutingGrid, Netlist]:
    """Instantiate a benchmark as (grid, netlist).

    Pins sit on layer 0 at distinct grid points; net spans are uniform in
    [3, max_span_tracks] per axis — detailed-routing nets are local, and
    the default of 12 tracks keeps full-scale instances in the paper's
    routability band (~25-30 % wire utilisation on Test1). Multi-candidate
    specs give each pin 2-4 candidates on neighbouring tracks (the model
    of [10]).

    ``blockage_density`` > 0 sprinkles square macro blockages (blocked on
    every layer) covering roughly that fraction of the die — an extension
    for obstacle-aware experiments; pins avoid blocked cells.
    """
    if not 0.0 < scale <= 1.0:
        raise ReproError(f"scale must be in (0, 1], got {scale}")
    if not 0.0 <= blockage_density < 0.5:
        raise ReproError(
            f"blockage_density must be in [0, 0.5), got {blockage_density}"
        )
    # zlib.crc32 keeps the instance identical across processes (str hash()
    # is randomised per interpreter run).
    import zlib

    rng = random.Random(seed + zlib.crc32(spec.name.encode()) % 10_000)
    side = max(int(spec.tracks * scale), 24)
    num_nets = max(int(spec.num_nets * scale * scale), 8)
    max_span_tracks = min(max_span_tracks, max(side // 3, 6))

    grid = RoutingGrid(
        width=side, height=side, layers=default_layer_stack(num_layers)
    )
    used: Set[Point] = set()

    if blockage_density > 0.0:
        # Square macros of ~side/10, placed until the density is reached;
        # their cells are blocked on every layer and excluded from pins.
        from ..geometry import Rect

        macro = max(side // 10, 2)
        target_cells = int(blockage_density * side * side)
        covered = 0
        attempts = 0
        while covered < target_cells and attempts < 1000:
            attempts += 1
            x0 = rng.randrange(0, side - macro)
            y0 = rng.randrange(0, side - macro)
            rect = Rect(x0, y0, x0 + macro, y0 + macro)
            cells = [Point(x, y) for x in range(rect.xlo, rect.xhi)
                     for y in range(rect.ylo, rect.yhi)]
            if any(p in used for p in cells):
                continue
            for layer in range(num_layers):
                grid.block(layer, rect)
            used.update(cells)
            covered += rect.area

    def free_point(near: Optional[Point] = None) -> Point:
        for _ in range(10_000):
            if near is None:
                p = Point(rng.randrange(side), rng.randrange(side))
            else:
                dx = rng.randint(-max_span_tracks, max_span_tracks)
                dy = rng.randint(-max_span_tracks, max_span_tracks)
                if abs(dx) + abs(dy) < 3:
                    continue
                p = Point(
                    min(max(near.x + dx, 0), side - 1),
                    min(max(near.y + dy, 0), side - 1),
                )
            if p not in used:
                return p
        raise ReproError("could not place pins: benchmark too dense")

    def make_pin(base: Point, multi: bool) -> Pin:
        used.add(base)
        if not multi:
            return Pin(candidates=(base,), layer=0)
        candidates = [base]
        for _ in range(rng.randint(1, 3)):
            for _ in range(50):
                q = Point(
                    min(max(base.x + rng.randint(-2, 2), 0), side - 1),
                    min(max(base.y + rng.randint(-2, 2), 0), side - 1),
                )
                if q not in used:
                    candidates.append(q)
                    used.add(q)
                    break
        return Pin(candidates=tuple(candidates), layer=0)

    nets = Netlist()
    for i in range(num_nets):
        src_base = free_point()
        src = make_pin(src_base, spec.multi_candidate)
        dst_base = free_point(near=src_base)
        dst = make_pin(dst_base, spec.multi_candidate)
        nets.add(Net(net_id=i, name=f"n{i}", source=src, target=dst))
    return grid, nets


def spec_by_name(name: str) -> BenchmarkSpec:
    """Look a benchmark up by its paper name (Test1..Test10)."""
    for spec in FIXED_PIN_BENCHMARKS + MULTI_PIN_BENCHMARKS:
        if spec.name.lower() == name.lower():
            return spec
    raise ReproError(f"unknown benchmark {name!r}")
