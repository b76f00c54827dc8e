"""repro — Overlay-aware detailed routing for SADP lithography (cut process).

A from-scratch reproduction of Liu, Fang and Chang, "Overlay-Aware Detailed
Routing for Self-Aligned Double Patterning Lithography Using the Cut
Process" (DAC 2014 / IEEE TCAD 2016).

Quickstart::

    from repro import RoutingGrid, Netlist, Net, Pin, SadpRouter

    grid = RoutingGrid(width=40, height=40)
    nets = Netlist([
        Net(0, "n0", Pin.at(2, 5), Pin.at(30, 9)),
        Net(1, "n1", Pin.at(4, 8), Pin.at(28, 20)),
    ])
    result = SadpRouter(grid, nets).route_all()
    print(result.summary())

The top-level namespace re-exports the pieces a user typically needs; the
subpackages (``repro.core``, ``repro.decompose``, ``repro.baselines``,
``repro.bench``, ``repro.viz``) hold the full machinery.

The re-exports and subpackages resolve on first use (PEP 562), so
``import repro`` alone, and a command that routes nothing, loads
neither numpy nor scipy.
"""

import importlib
from typing import Any

__version__ = "1.0.0"

#: Re-exported name -> the submodule it comes from.
_EXPORTS = {
    "Color": "color",
    "ColorPair": "color",
    "Point": "geometry",
    "Rect": "geometry",
    "Segment": "geometry",
    "Direction": "grid",
    "RoutingGrid": "grid",
    "Via": "grid",
    "Net": "netlist",
    "Netlist": "netlist",
    "Pin": "netlist",
    "read_netlist": "netlist",
    "write_netlist": "netlist",
    "CostParams": "router",
    "NetRoute": "router",
    "RoutingResult": "router",
    "SadpRouter": "router",
    "DesignRules": "rules",
    "ReproError": "errors",
    "GeometryError": "errors",
    "DesignRuleError": "errors",
    "GridError": "errors",
    "NetlistError": "errors",
    "RoutingError": "errors",
    "ColoringError": "errors",
    "DecompositionError": "errors",
}

#: Subpackages reachable as attributes of ``repro`` without an import.
_SUBMODULES = frozenset(
    {
        "color",
        "core",
        "errors",
        "geometry",
        "grid",
        "netlist",
        "obs",
        "router",
        "rules",
        "units",
    }
)

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
