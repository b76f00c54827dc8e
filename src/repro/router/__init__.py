"""Overlay-aware detailed router (Section III-E).

:class:`SadpRouter` is the library's main entry point: it sequentially
routes a netlist with A* (cost Eq. 5), maintains one overlay constraint
graph per layer, pseudo-colors each net, flips colors when overlay grows,
rips up nets that close hard odd cycles or unavoidable cut conflicts, and
returns a fully colored, conflict-free routing result.
"""

from .cost import CostParams
from .astar import AStarRouter, SearchRequest
from .guidance import future_cost_map, prune_threshold
from .overlay_cache import overlay_cost_grid
from .result import NetRoute, RoutingResult
from .sadp_router import SadpRouter
from .trace import RouterTrace, TraceEvent
from .io import load_result, save_result

__all__ = [
    "CostParams",
    "AStarRouter",
    "SearchRequest",
    "future_cost_map",
    "prune_threshold",
    "overlay_cost_grid",
    "NetRoute",
    "RoutingResult",
    "SadpRouter",
    "RouterTrace",
    "TraceEvent",
    "save_result",
    "load_result",
]
