"""The single configuration object of a staged pipeline run.

A :class:`PipelineConfig` pins down everything a run depends on — the
design source (a netlist file or a paper benchmark instance), grid
dimensions, layer stack and router. The route stage routes with the
paper's parameters (§IV), and decomposition runs at the default bitmap
resolution. Stages declare which *slice* of the config they depend on
(see ``stages.py``), and only that slice enters their content hash, so
changing e.g. ``router`` invalidates routing and everything after it
but leaves the design and grid artifacts valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional

from ..errors import PipelineError, ReproError
from .store import default_cache_dir

#: Router names the route stage can instantiate (the CLI's ``--router``).
KNOWN_ROUTERS = ("ours", "gao-pan", "cut16", "du")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one end-to-end run depends on.

    Exactly one design source must be set: ``netlist`` (path to a text
    design file; requires ``width``/``height``) or ``circuit`` (a paper
    benchmark name, ``Test1``..``Test10``, instantiated at ``scale`` with
    ``seed``).
    """

    #: Routing runs in one process, one net at a time. Not a field:
    #: ``perfbench/run.py`` reads it, and nothing sets it.
    workers: ClassVar[int] = 1

    # --- design source ------------------------------------------------- #
    netlist: Optional[str] = None
    circuit: Optional[str] = None
    scale: float = 0.15
    seed: int = 2014

    # --- grid ---------------------------------------------------------- #
    width: Optional[int] = None
    height: Optional[int] = None
    num_layers: int = 3

    # --- routing ------------------------------------------------------- #
    router: str = "ours"
    #: Extra keyword arguments for the router constructor (must be
    #: JSON-serialisable; they enter the route stage's hash).
    router_options: Optional[Dict[str, Any]] = None

    # --- artifact store (not hashed; $REPRO_CACHE_DIR overrides the
    # --- .repro_cache default) ----------------------------------------- #
    cache_dir: str = field(default_factory=default_cache_dir)

    def validate(self) -> None:
        if (self.netlist is None) == (self.circuit is None):
            raise PipelineError(
                "config needs exactly one design source: netlist=<path> "
                "or circuit=<Test1..Test10>"
            )
        if self.netlist is not None and (self.width is None or self.height is None):
            raise PipelineError(
                "netlist designs need explicit grid dimensions "
                "(width and height, in tracks)"
            )
        if self.circuit is not None:
            from ..bench.workloads import spec_by_name

            try:
                spec_by_name(str(self.circuit))
            except ReproError:
                raise PipelineError(
                    f"unknown circuit {self.circuit!r}; choose from "
                    "Test1..Test10"
                ) from None
            if not 0.0 < self.scale <= 1.0:
                raise PipelineError(f"scale must be in (0, 1], got {self.scale}")
        for name in ("width", "height"):
            value = getattr(self, name)
            if value is not None and (not _is_int(value) or value <= 0):
                raise PipelineError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if not _is_int(self.num_layers) or self.num_layers <= 0:
            raise PipelineError(
                f"num_layers must be a positive integer, got {self.num_layers!r}"
            )
        if self.router not in KNOWN_ROUTERS:
            raise PipelineError(
                f"unknown router {self.router!r}; choose from {KNOWN_ROUTERS}"
            )

    # ------------------------------------------------------------------ #
    # Per-stage config slices (what enters each stage's content hash)
    # ------------------------------------------------------------------ #

    def design_slice(self) -> Dict[str, Any]:
        if self.netlist is not None:
            # The file's *content* hash is added by the stage fingerprint;
            # the path itself stays out so moving a file is not a miss.
            return {
                "mode": "netlist",
                "width": self.width,
                "height": self.height,
                "num_layers": self.num_layers,
            }
        return {
            "mode": "benchmark",
            "circuit": self.circuit,
            "scale": self.scale,
            "seed": self.seed,
            "num_layers": self.num_layers,
        }

    def grid_slice(self) -> Dict[str, Any]:
        # Dimensions live in the design artifact (whose hash is already an
        # input); nothing extra to pin here.
        return {}

    def route_slice(self) -> Dict[str, Any]:
        return {
            "router": self.router,
            "router_options": dict(self.router_options or {}),
        }


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
