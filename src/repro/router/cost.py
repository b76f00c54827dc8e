"""Routing cost model (Eq. 5) and algorithm parameters.

The grid cost of extending a path from grid i to grid j is::

    C_grid(j) = C_grid(i) + alpha * C_wl(i,j) + beta * C_via(i,j)
                + gamma * T2b(j)

where ``T2b(j)`` is 1 when occupying j would create a type 2-b potential
overlay scenario with an already routed net — the one scenario that costs
at least one unit of side overlay no matter how it is colored, so the
router steers around it. The paper's experiments use ``alpha = beta = 1``,
``gamma = 1.5`` and a flipping threshold of 10.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import RoutingError


@dataclass(frozen=True)
class CostParams:
    """User-tunable knobs of the overlay-aware router."""

    alpha: float = 1.0  # wirelength weight
    beta: float = 1.0  # via weight
    gamma: float = 1.5  # type 2-b scenario penalty weight
    #: Soft penalty for creating a tip abutment (type 1-b). The merge+cut
    #: technique makes 1-b free overlay-wise, but *chains* of abutting tips
    #: (A|B|C) force same colors along the chain and the two merge cuts then
    #: violate d_cut over the middle wire — the Fig. 16 pattern. A small
    #: penalty keeps chains rare while still allowing the odd-cycle merges
    #: the paper advertises.
    delta_tip: float = 0.5
    #: Per-net flipping skips components larger than this (they are
    #: re-optimised once, in the final full-layout pass) — keeps the
    #: sequential loop near-linear on large designs.
    flip_scope_cap: int = 400
    flip_threshold: float = 10.0  # f_threshold: flip when a net adds more SO
    max_ripup_iterations: int = 3  # B in Fig. 19
    ripup_penalty: float = 8.0  # added to cells that caused a violation
    search_margin: int = 6  # halo around the pin bounding box A* may roam
    margin_growth: int = 10  # extra halo per failed routing attempt

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise RoutingError(f"alpha must be positive, got {self.alpha}")
        if self.beta < 0 or self.gamma < 0 or self.ripup_penalty < 0:
            raise RoutingError("beta, gamma and ripup_penalty must be >= 0")
        if self.delta_tip < 0:
            raise RoutingError("delta_tip must be >= 0")
        if self.flip_scope_cap < 1:
            raise RoutingError("flip_scope_cap must be >= 1")
        if self.max_ripup_iterations < 0:
            raise RoutingError("max_ripup_iterations must be >= 0")
        if self.search_margin < 0 or self.margin_growth < 0:
            raise RoutingError("search margins must be >= 0")


#: The parameterisation used for all experiments in the paper (Section IV).
PAPER_PARAMS = CostParams()
