"""Persistent shared-memory worker pool for region-sharded routing.

The PR-3 batch path re-pickles an occupancy snapshot per subproblem —
fine for occasional batches, fatal for a router that wants to keep N
processes busy for a whole routing pass. This module replaces that with:

* :class:`SharedOccupancy` — the die's occupancy array published once
  per routing pass into a ``multiprocessing.shared_memory`` segment,
  with a generation stamp in the segment header. The parent registers
  as a :class:`~repro.grid.routing_grid.RoutingGrid` change listener;
  any commit marks the segment stale and the next :meth:`refresh`
  rewrites it and bumps the generation. Workers carry the expected
  generation in their task and refuse to compute against a stale
  segment (outcome ``"stale_generation"`` — the parent falls back to a
  live route, never a wrong answer).
* :class:`WorkerPool` — long-lived ``multiprocessing`` workers, one
  task queue each and a shared result queue. A worker receives *one*
  task per routing pass: its shard set plus the net stream, and slices
  each tile out of shared memory locally — per-net traffic is pins out,
  paths back; no grids cross the pipe.
* :func:`run_shard_stream` — the worker's chained solver. Each net is
  solved with the existing :func:`~repro.router.astar.solve_subproblem`
  (window-parity guard and all) against a *mutable* tile snapshot; a
  found path is applied to the tile before the next net's search, so
  nets within a shard speculate against each other. The same function
  backs :class:`InlineShardPool` (the in-process executor used by
  ``executor="serial"``/``"thread"`` and the determinism tests), so
  both paths cannot drift apart.
"""

from __future__ import annotations

import queue as queue_mod
import struct
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_context, shared_memory
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import Point
from .astar import (
    AUTO_TRIGGER_EXPANSIONS,
    Bounds,
    SearchSubproblem,
    SubproblemResult,
    solve_subproblem,
)
from .cost import CostParams

#: Segment header: a little-endian uint64 generation stamp (16 bytes
#: reserved so the payload array stays 16-byte aligned).
_HEADER_BYTES = 16


@dataclass(frozen=True)
class SharedGridDescriptor:
    """Everything a worker needs to attach: name, layout, expected gen."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    generation: int


class SharedOccupancy:
    """The grid's occupancy in a shared segment, generation-stamped.

    Lifecycle: the parent creates it at the start of a routing pass
    (snapshotting the grid, pins already reserved), hands descriptors to
    workers, and closes it at the end — ``close`` detaches the change
    listener, releases the mapping and unlinks the segment, and is
    idempotent, so a crash-path ``finally`` can always call it.
    """

    def __init__(self, grid) -> None:
        self.grid = grid
        occ = grid._occ
        self._shape = occ.shape
        self._dtype = occ.dtype
        self.shm: Optional[shared_memory.SharedMemory] = (
            shared_memory.SharedMemory(
                create=True, size=_HEADER_BYTES + occ.nbytes
            )
        )
        self._view: Optional[np.ndarray] = np.ndarray(
            occ.shape, dtype=occ.dtype, buffer=self.shm.buf, offset=_HEADER_BYTES
        )
        self._generation = 0
        self._dirty = True
        grid.add_change_listener(self)
        self.refresh()

    # -- grid change-listener protocol --------------------------------- #

    def on_cells_changed(self, cells) -> None:
        self._dirty = True

    def on_grid_reset(self) -> None:
        self._dirty = True

    # ------------------------------------------------------------------ #

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def stale(self) -> bool:
        return self._dirty

    def refresh(self) -> int:
        """Re-publish the occupancy iff the grid changed; returns the gen.

        One full-array copy per rip-up generation, not per subproblem —
        callers take the returned generation and stamp it into tasks.
        """
        if self._dirty:
            assert self.shm is not None and self._view is not None
            self._view[...] = self.grid._occ
            self._generation += 1
            struct.pack_into("<Q", self.shm.buf, 0, self._generation)
            self._dirty = False
        return self._generation

    def descriptor(self) -> SharedGridDescriptor:
        assert self.shm is not None
        return SharedGridDescriptor(
            name=self.shm.name,
            shape=tuple(self._shape),
            dtype=str(self._dtype),
            generation=self._generation,
        )

    def close(self) -> None:
        """Detach, release and unlink; safe to call twice."""
        if self.shm is None:
            return
        try:
            self.grid.remove_change_listener(self)
        except Exception:
            pass
        self._view = None  # drop the buffer export before closing
        try:
            self.shm.close()
        finally:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass
            self.shm = None


class Attachment:
    """A read-only view of a :class:`SharedOccupancy` by descriptor.

    On Python < 3.13 merely attaching a segment re-registers it with the
    resource tracker. Every attacher here — inline pool (same process)
    or :class:`WorkerPool` child — shares the creator's tracker daemon,
    so that re-registration is a set no-op and the creator's ``unlink``
    unregisters exactly once; nothing to compensate for. (Attaching from
    an *unrelated* process would need ``resource_tracker.unregister`` to
    stop that process's own tracker from unlinking the segment at exit —
    a scenario this module never creates.)
    """

    def __init__(self, desc: SharedGridDescriptor) -> None:
        self.shm = shared_memory.SharedMemory(name=desc.name)
        self.occ: Optional[np.ndarray] = np.ndarray(
            tuple(desc.shape),
            dtype=np.dtype(desc.dtype),
            buffer=self.shm.buf,
            offset=_HEADER_BYTES,
        )

    def generation(self) -> int:
        return struct.unpack_from("<Q", self.shm.buf, 0)[0]

    def close(self) -> None:
        self.occ = None
        try:
            self.shm.close()
        except Exception:
            pass


# ---------------------------------------------------------------------- #
# Task / result envelopes
# ---------------------------------------------------------------------- #


@dataclass
class ShardNetSpec:
    """One interior net of a stream: pins in absolute die coordinates."""

    net_id: int
    shard_id: int
    sources: List[Tuple[int, Point]]
    targets: List[Tuple[int, Point]]


@dataclass
class ShardStreamTask:
    """One worker's job for a whole routing pass.

    ``nets`` is the worker's shards' interior nets merged in canonical
    routing order — results stream back roughly in the order the parent
    consumes them, so the main loop rarely blocks on a result.
    """

    descriptor: SharedGridDescriptor
    tiles: Dict[int, Bounds]
    nets: List[ShardNetSpec]
    die_width: int
    die_height: int
    horizontal: List[bool]
    params: CostParams
    overlay_terms: Optional[Tuple[float, float]]
    use_reference: bool = False
    guidance: str = "off"
    guidance_trigger: int = AUTO_TRIGGER_EXPANSIONS
    kernel: str = "python"


@dataclass
class ShardResult:
    """A per-net result envelope; ``result`` is absolute-coordinate."""

    shard_id: int
    result: SubproblemResult


@dataclass
class StreamDone:
    """End-of-stream sentinel from one worker."""

    worker: int


def run_shard_stream(
    task: ShardStreamTask, occ: np.ndarray
) -> Iterator[ShardResult]:
    """Chained per-shard speculation: the worker-side solver.

    For each net, in stream (canonical) order: slice its tile out of
    ``occ`` on first touch, solve the attempt-0 search with
    :func:`solve_subproblem` (fresh engine per net, so the result's
    engine counters are per-net deltas), then apply a found path's nodes
    to the tile so the shard's later nets search against it. The tile
    bounds double as the subproblem window — the parity guard inside
    ``solve_subproblem`` rejects any search whose padded window escapes
    the tile (outcome ``"window_exceeded"``), which keeps every read
    inside the net's parent-computed read window.
    """
    tiles: Dict[int, np.ndarray] = {}
    for spec in task.nets:
        bounds = task.tiles[spec.shard_id]
        tile = tiles.get(spec.shard_id)
        if tile is None:
            tile = occ[
                :,
                bounds[0] : bounds[1] + 1,
                bounds[2] : bounds[3] + 1,
            ].copy()
            tiles[spec.shard_id] = tile
        sub = SearchSubproblem(
            net_id=spec.net_id,
            sources=spec.sources,
            targets=spec.targets,
            taps=[],
            bounds=bounds,
            occ=tile,
            die_width=task.die_width,
            die_height=task.die_height,
            horizontal=task.horizontal,
            params=task.params,
            overlay_terms=task.overlay_terms,
            use_reference=task.use_reference,
            guidance=task.guidance,
            guidance_trigger=task.guidance_trigger,
            kernel=task.kernel,
        )
        try:
            res = solve_subproblem(sub)
        except Exception:
            res = SubproblemResult(net_id=spec.net_id, outcome="error")
        if res.outcome == "found":
            ox, oy = bounds[0], bounds[2]
            for layer, x, y in res.nodes:
                tile[layer, x - ox, y - oy] = spec.net_id
        yield ShardResult(shard_id=spec.shard_id, result=res)


def _stale_results(task: ShardStreamTask) -> Iterator[ShardResult]:
    for spec in task.nets:
        yield ShardResult(
            shard_id=spec.shard_id,
            result=SubproblemResult(
                net_id=spec.net_id, outcome="stale_generation"
            ),
        )


def _error_results(task: ShardStreamTask) -> Iterator[ShardResult]:
    for spec in task.nets:
        yield ShardResult(
            shard_id=spec.shard_id,
            result=SubproblemResult(net_id=spec.net_id, outcome="error"),
        )


def _worker_main(worker_index: int, task_q, result_q) -> None:
    """Long-lived worker loop: one attachment cache, tasks until None."""
    attachments: Dict[str, Attachment] = {}
    try:
        while True:
            task = task_q.get()
            if task is None:
                break
            try:
                att = attachments.get(task.descriptor.name)
                if att is None:
                    for old in attachments.values():
                        old.close()
                    attachments = {}
                    att = Attachment(task.descriptor)
                    attachments[task.descriptor.name] = att
                if att.generation() != task.descriptor.generation:
                    results = _stale_results(task)
                else:
                    results = run_shard_stream(task, att.occ)
                for item in results:
                    result_q.put(item)
            except Exception:
                # Attach/segment failure: the parent routes these live.
                for item in _error_results(task):
                    result_q.put(item)
            result_q.put(StreamDone(worker=worker_index))
    finally:
        for att in attachments.values():
            att.close()


class WorkerPool:
    """N persistent worker processes; one task queue each, shared results.

    Per-worker task queues make worker death attributable: the parent
    knows which streams a dead worker owned and can fall back for
    exactly those nets. Workers are daemonic — an abandoned pool cannot
    outlive the parent process.
    """

    def __init__(self, workers: int, start_method: Optional[str] = None) -> None:
        ctx = get_context(start_method)
        self.workers = max(1, int(workers))
        self._task_qs = [ctx.Queue() for _ in range(self.workers)]
        self._result_q = ctx.Queue()
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(i, self._task_qs[i], self._result_q),
                daemon=True,
            )
            for i in range(self.workers)
        ]
        for proc in self._procs:
            proc.start()
        self._closed = False

    @property
    def kind(self) -> str:
        return "process"

    def submit(self, worker_index: int, task: ShardStreamTask) -> None:
        self._task_qs[worker_index].put(task)

    def get(self, timeout: float):
        """Next result message; raises ``queue.Empty`` on timeout."""
        return self._result_q.get(timeout=timeout)

    def dead_workers(self) -> List[int]:
        return [i for i, p in enumerate(self._procs) if not p.is_alive()]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for q in self._task_qs:
            try:
                q.put(None)
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (*self._task_qs, self._result_q):
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:
                pass


class InlineShardPool:
    """In-process pool: streams run eagerly at submit time.

    Functionally identical to :class:`WorkerPool` — same tasks, same
    :func:`run_shard_stream`, same shared-memory read path (it attaches
    the segment by descriptor like a real worker) — but synchronous.
    Computing a whole stream up front is exactly what an asynchronous
    worker does from the parent's perspective: every chained search
    reads the pass-start snapshot plus earlier chain results, never the
    parent's live commits, so results are bit-identical either way.
    Used by ``executor="serial"``/``"thread"`` and the determinism tests.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self._results: deque = deque()

    @property
    def kind(self) -> str:
        return "inline"

    def submit(self, worker_index: int, task: ShardStreamTask) -> None:
        att = Attachment(task.descriptor)
        try:
            if att.generation() != task.descriptor.generation:
                self._results.extend(_stale_results(task))
            else:
                self._results.extend(run_shard_stream(task, att.occ))
        finally:
            att.close()
        self._results.append(StreamDone(worker=worker_index))

    def get(self, timeout: float):
        if not self._results:
            raise queue_mod.Empty
        return self._results.popleft()

    def dead_workers(self) -> List[int]:
        return []

    def close(self) -> None:
        self._results.clear()
