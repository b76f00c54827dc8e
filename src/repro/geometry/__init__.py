"""Manhattan geometry substrate.

Everything the router and the SADP decomposition engine need to talk about
shapes: integer points, axis-aligned rectangles, 1-D interval arithmetic,
wire segments, and a uniform-bucket spatial index for neighbour queries.

All coordinates are integers; callers choose the unit (tracks or nm).
"""

from .point import Point
from .interval import Interval, IntervalSet
from .rect import Rect
from .segment import Segment, points_to_segments
from .spatial import GridIndex

__all__ = [
    "Point",
    "Interval",
    "IntervalSet",
    "Rect",
    "Segment",
    "points_to_segments",
    "GridIndex",
]
