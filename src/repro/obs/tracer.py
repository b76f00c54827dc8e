"""Nested timed spans for per-phase runtime attribution.

A :class:`Tracer` records a tree of :class:`Span` objects — one per
``with tracer.span("astar_search", net_id=7):`` block. Spans nest via a
per-thread stack, so the route flow produces the natural hierarchy
``route_all → route_net → astar_search / ocg_update / pseudo_color`` with
no explicit parent threading. Finished spans are plain data: the JSONL
exporter serialises them, and :meth:`Tracer.totals_by_name` folds them
into the per-phase table the bench harness prints.

Durations use :func:`time.perf_counter`; start timestamps are offsets
from the tracer's epoch so a run log is self-consistent regardless of
wall-clock adjustments.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed section of the pipeline."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float  # seconds since the tracer's epoch
    attrs: Dict[str, Any] = field(default_factory=dict)
    end_s: Optional[float] = None

    @property
    def duration_s(self) -> float:
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects finished spans; cheap enough to leave on during a run."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.finished: List[Span] = []
        self._next_id = 0
        # Per-thread span stacks, keyed by thread ident rather than held
        # in a ``threading.local``: the resource sampler reads *other*
        # threads' stacks to attribute samples to the active span, which
        # thread-local storage cannot offer.
        self._stacks: Dict[int, List[Span]] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _stack(self) -> List[Span]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        self._next_id += 1
        sp = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent,
            start_s=time.perf_counter() - self.epoch,
            attrs=attrs,
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end_s = time.perf_counter() - self.epoch
            stack.pop()
            self.finished.append(sp)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def active_leaves(self) -> List[Span]:
        """Innermost open span of every thread with a non-empty stack.

        Called from the resource-sampler thread without locking: span
        enter/exit only appends/pops under the GIL, so the worst a race
        can produce is a just-closed span — harmless for attribution.
        """
        leaves: List[Span] = []
        try:
            stacks = list(self._stacks.values())
        except RuntimeError:  # pragma: no cover - dict resized mid-copy
            return leaves
        for stack in stacks:
            if stack:
                try:
                    leaves.append(stack[-1])
                except IndexError:  # pragma: no cover - popped mid-read
                    pass
        return leaves

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    def totals_by_name(self) -> Dict[str, float]:
        """Total seconds per span name (each span counted in full)."""
        totals: Dict[str, float] = {}
        for sp in self.finished:
            totals[sp.name] = totals.get(sp.name, 0.0) + sp.duration_s
        return totals

    def self_totals_by_name(self) -> Dict[str, float]:
        """Total *self* seconds per span name: duration minus direct children.

        Unlike :meth:`totals_by_name`, nested spans are not double
        counted — a container span (``commit_net``) contributes only the
        time not already attributed to the instrumented spans inside it.
        The per-phase report uses this to make the phase split exhaustive.
        """
        child_sum: Dict[int, float] = {}
        for sp in self.finished:
            if sp.parent_id is not None:
                child_sum[sp.parent_id] = (
                    child_sum.get(sp.parent_id, 0.0) + sp.duration_s
                )
        totals: Dict[str, float] = {}
        for sp in self.finished:
            totals[sp.name] = (
                totals.get(sp.name, 0.0)
                + sp.duration_s
                - child_sum.get(sp.span_id, 0.0)
            )
        return totals

    def counts_by_name(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for sp in self.finished:
            counts[sp.name] = counts.get(sp.name, 0) + 1
        return counts

    def spans_named(self, name: str) -> List[Span]:
        return [sp for sp in self.finished if sp.name == name]

    def tree(self) -> Dict[Optional[int], List[Span]]:
        """children-by-parent_id index over finished spans."""
        by_parent: Dict[Optional[int], List[Span]] = {}
        for sp in self.finished:
            by_parent.setdefault(sp.parent_id, []).append(sp)
        for children in by_parent.values():
            children.sort(key=lambda s: s.start_s)
        return by_parent

    def to_text(self, max_depth: int = 4, min_duration_s: float = 0.0) -> str:
        """Indented span tree (roots in start order), for debugging."""
        by_parent = self.tree()
        lines: List[str] = ["span tree", "-" * 40]

        def walk(parent: Optional[int], depth: int) -> None:
            if depth > max_depth:
                return
            for sp in by_parent.get(parent, ()):
                if sp.duration_s < min_duration_s:
                    continue
                attr_txt = " ".join(f"{k}={v}" for k, v in sorted(sp.attrs.items()))
                pad = "  " * depth
                lines.append(
                    f"{pad}{sp.name} {sp.duration_s * 1e3:.3f} ms"
                    + (f" [{attr_txt}]" if attr_txt else "")
                )
                walk(sp.span_id, depth + 1)

        walk(None, 0)
        return "\n".join(lines)
