"""Greedy pseudo-coloring of a freshly routed net (Fig. 19, line 11).

After a net is routed its vertex joins the layer's constraint graph. The
net gets a provisional color immediately — the choice with "least hard
overlay violations and induced overlay" against the colors of already
routed nets. Color flipping later revisits the decision globally; pseudo
coloring only has to be locally sensible and O(degree).
"""

from __future__ import annotations

from typing import Dict

from ..color import Color
from .constraint_graph import OverlayConstraintGraph


def pseudo_color(
    graph: OverlayConstraintGraph,
    net_id: int,
    coloring: Dict[int, Color],
) -> Color:
    """Pick the cheaper color for ``net_id`` given its neighbours' colors.

    Uses the DP cost (physical overlay + cut-conflict veto); hard overlays
    count as infinite. Ties break toward CORE, which keeps isolated nets on
    the core mask — the assignment with no assist-core overhead.

    The chosen color is also written into ``coloring``.
    """
    core_total, second_total = graph.incident_dp_totals(net_id, coloring)
    best = Color.SECOND if second_total < core_total else Color.CORE
    coloring[net_id] = best
    return best
