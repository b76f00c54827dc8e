"""Name of the A* inner loop, for benchmark host facts.

The A* search has one inner loop, the list-based fast path in
:mod:`repro.router.astar`. ``perfbench/run.py`` still records this name
among its host facts; once it stops reading it, this module goes.
"""

from __future__ import annotations


def kernel_backend_name() -> str:
    """What the A* inner loop runs as: always ``"python"``."""
    return "python"
