"""Unified observability layer: metrics, spans, JSONL run logs.

The routing pipeline is instrumented with calls into this package —
counters for discrete happenings (rip-ups by reason, constraint edges by
kind, A* expansions), histograms for distributions (per-net wall time),
and nested spans for runtime attribution (``route_all → route_net →
astar_search / ocg_update / pseudo_color / color_flip``).

Design: a module-level backend that defaults to **off**. Instrumented
code asks :func:`get_active` once per operation and skips all recording
when it returns ``None``, so the instrumentation costs a predicate per
call site when disabled — hot inner loops accumulate plain local ints
and only publish them at operation end. Enabling is one call::

    from repro import obs

    ob = obs.enable()                # fresh registry + tracer
    router.route_all()
    print(obs.phase_table())         # per-phase runtime breakdown
    obs.export_run_jsonl("run.jsonl")
    obs.disable()

or, scoped::

    with obs.session() as ob:
        router.route_all()

The CLI exposes the same switch as ``--metrics`` / ``--trace FILE.jsonl``
(see ``docs/OBSERVABILITY.md`` for the event schema).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from types import MappingProxyType
from typing import Any, Iterator, Mapping, Optional

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "Observability",
    "enable",
    "disable",
    "get_active",
    "is_enabled",
    "session",
    "span",
    "stopwatch",
    "counter_inc",
    "phase_table",
    "export_run_jsonl",
    "validate_run_jsonl",
    "collapsed_stacks",
    "collect_provenance",
]


class Observability:
    """One run's worth of telemetry: a registry and a tracer."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()


#: The process-wide backend; ``None`` means observability is off.
_active: Optional[Observability] = None


def enable(fresh: bool = True) -> Observability:
    """Turn observability on; returns the active backend.

    ``fresh=True`` (default) starts a new registry/tracer even when one
    is already active; ``fresh=False`` keeps accumulating into it.
    """
    global _active
    if _active is None or fresh:
        _active = Observability()
    return _active


def disable() -> None:
    global _active
    _active = None


def get_active() -> Optional[Observability]:
    """The live backend, or None when observability is off.

    Hot paths call this once per operation, keep the result in a local,
    and skip every recording branch when it is None.
    """
    return _active


def is_enabled() -> bool:
    return _active is not None


@contextmanager
def session(fresh: bool = True) -> Iterator[Observability]:
    """Scoped enable/disable; restores the previous backend on exit."""
    global _active
    previous = _active
    ob = enable(fresh=fresh)
    try:
        yield ob
    finally:
        _active = previous


# ---------------------------------------------------------------------- #
# Recording helpers
# ---------------------------------------------------------------------- #


class _NullSpan:
    """Shared do-nothing span for the disabled path.

    Its ``attrs`` is read-only: the one instance serves every disabled
    span, so a write there would show up on all of them.
    """

    __slots__ = ()
    duration_s = 0.0
    attrs: Mapping[str, Any] = MappingProxyType({})

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any):
    """A tracer span when enabled, a shared no-op otherwise.

    The no-op never reads the clock, so liberally spanning cheap
    operations is safe.
    """
    ob = _active
    if ob is None:
        return _NULL_SPAN
    return ob.tracer.span(name, **attrs)


class _Stopwatch:
    """Minimal timer standing in for a span when observability is off."""

    __slots__ = ("_t0", "duration_s")

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.duration_s = 0.0

    def stop(self) -> None:
        self.duration_s = time.perf_counter() - self._t0


@contextmanager
def stopwatch(name: str, **attrs: Any):
    """A span that *always* measures time.

    Use where the caller needs the elapsed seconds regardless of whether
    observability is on (e.g. ``RoutingResult.cpu_seconds``). When a
    backend is live the measurement is also recorded as a span named
    ``name``; the yielded object exposes ``duration_s`` either way.
    """
    ob = _active
    if ob is not None:
        with ob.tracer.span(name, **attrs) as sp:
            yield sp
    else:
        sw = _Stopwatch()
        try:
            yield sw
        finally:
            sw.stop()


def counter_inc(name: str, amount: float = 1.0, **labels: Any) -> None:
    """Convenience increment; no-op when disabled."""
    ob = _active
    if ob is not None:
        ob.registry.counter(name, **labels).inc(amount)


# ---------------------------------------------------------------------- #
# Reporting (implemented in export.py; re-exported here for one-stop use)
# ---------------------------------------------------------------------- #

from .export import (  # noqa: E402
    collapsed_stacks,
    export_run_jsonl,
    phase_table,
    validate_run_jsonl,
)
from .provenance import collect_provenance  # noqa: E402
