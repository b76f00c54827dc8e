"""Mask colors for SADP decomposition.

In the cut process every printed pattern is either a **core pattern**
(drawn on the core mask, printed directly) or a **second pattern** (printed
in the trench between spacers). Assigning each routed net a color per layer
is the layout-decomposition half of the routing problem.
"""

from __future__ import annotations

import enum
from typing import Tuple


class Color(enum.Enum):
    """CORE = drawn on the core mask; SECOND = printed between spacers."""

    CORE = "C"
    SECOND = "S"

    #: Members are singletons that compare by identity, so the identity
    #: hash is consistent with ``==``; it skips Enum's Python-level
    #: ``__hash__`` on every dict lookup keyed by a color.
    __hash__ = object.__hash__

    @property
    def flipped(self) -> "Color":
        return Color.SECOND if self is Color.CORE else Color.CORE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ColorPair(enum.Enum):
    """Ordered color assignment of a pattern pair (A, B).

    The paper's notation: ``CC`` means both core, ``CS`` means A core and
    B second, etc. Order matters for the asymmetric scenarios (3-b, 3-c).
    """

    CC = ("C", "C")
    CS = ("C", "S")
    SC = ("S", "C")
    SS = ("S", "S")

    @property
    def a(self) -> Color:
        return Color.CORE if self.value[0] == "C" else Color.SECOND

    @property
    def b(self) -> Color:
        return Color.CORE if self.value[1] == "C" else Color.SECOND

    @property
    def same(self) -> bool:
        return self.value[0] == self.value[1]

    @property
    def swapped(self) -> "ColorPair":
        return _SWAP[self]

    @classmethod
    def of(cls, a: Color, b: Color) -> "ColorPair":
        return _FROM_COLORS[(a, b)]


_SWAP = {
    ColorPair.CC: ColorPair.CC,
    ColorPair.CS: ColorPair.SC,
    ColorPair.SC: ColorPair.CS,
    ColorPair.SS: ColorPair.SS,
}

_FROM_COLORS = {
    (Color.CORE, Color.CORE): ColorPair.CC,
    (Color.CORE, Color.SECOND): ColorPair.CS,
    (Color.SECOND, Color.CORE): ColorPair.SC,
    (Color.SECOND, Color.SECOND): ColorPair.SS,
}

#: Deterministic iteration order used throughout tables and tests.
ALL_PAIRS: Tuple[ColorPair, ...] = (
    ColorPair.CC,
    ColorPair.CS,
    ColorPair.SC,
    ColorPair.SS,
)
