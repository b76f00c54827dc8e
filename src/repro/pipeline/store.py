"""The content-addressed artifact store, safe under concurrent writers.

An artifact's hash is derived from its *inputs* (stage version, upstream
hashes, config slice — see ``engine.py``), so a store lookup answers "has
this exact computation already run?" without touching the payload.

:class:`ArtifactStore` is a ``.repro_cache/`` directory of one JSON file
per artifact; it survives across processes and powers resume and the
multi-tenant routing service. Writes are **compare-and-publish**: a
temp-file + atomic rename only lands when the hash is still absent, so
N processes racing on one key leave exactly one valid entry. The files
are the whole state: a hit sets its file's mtime, so ``stat`` gives each
entry's size and last use for the GC. Advisory file locks under
``locks/`` give **single-flight** execution: concurrent identical stage
runs coalesce on one computing leader while followers wait and then
read the published result. One-shot callers (``repro route``,
``repro.bench.run_cell``) open one in a temporary directory.

Corrupt entries (half-written files from a killed writer, truncated
JSON) are never fatal: ``load``/``entries`` skip them with a warning and
bump the ``store_corrupt_entries_total`` counter, and the stage simply
re-runs — republishing atomically over the damaged file.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from .. import obs
from .artifacts import Artifact, artifact_from_record

try:  # advisory locking is POSIX-only; degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Store record schema; bumped on breaking layout changes.
STORE_SCHEMA = 1

#: Default cache location; ``REPRO_CACHE_DIR`` overrides it (mirrors the
#: ``REPRO_LEDGER_DIR`` idiom of the run ledger).
DEFAULT_CACHE_DIR = ".repro_cache"

LOCKS_DIR = "locks"

#: How long a single-flight follower waits for the leader before giving
#: up and computing itself (a crashed leader must never wedge the store).
SINGLE_FLIGHT_TIMEOUT_S = 600.0
_FOLLOWER_POLL_S = 0.02


def default_cache_dir() -> str:
    """The artifact store directory: ``$REPRO_CACHE_DIR`` or
    ``.repro_cache``."""
    return os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


def _warn_corrupt(path: Union[str, Path], exc: Exception) -> None:
    obs.counter_inc("store_corrupt_entries_total")
    warnings.warn(
        f"skipping corrupt artifact {path} ({exc}); the stage will re-run "
        f"and republish it",
        RuntimeWarning,
        stacklevel=3,
    )


@dataclass
class StoreEntry:
    """Metadata of one cached artifact (for ``repro pipeline show`` and
    the GC policy)."""

    kind: str
    stage: str
    hash: str
    bytes: int
    created_unix: float
    last_used_unix: float = 0.0


class ArtifactStore:
    """Directory-backed content-addressed store (``.repro_cache/``).

    Layout: one ``<hash>.json`` file per artifact holding
    ``{"schema", "kind", "stage", "hash", "created_unix", "payload"}``,
    and ``locks/`` with the advisory lock files of the single-flight
    protocol. The files are the whole state: a file's mtime is its last
    use (publish, then every hit). All writes are atomic (temp file +
    rename), so a crashed run never leaves a half-written artifact that
    a resume — or another tenant — would trust.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def _path(self, hash: str) -> Path:
        return self.root / f"{hash}.json"

    # ------------------------------------------------------------------ #
    # The store protocol
    # ------------------------------------------------------------------ #

    def has(self, hash: str) -> bool:
        return self._path(hash).is_file()

    def load(self, hash: str) -> Optional[Artifact]:
        path = self._path(hash)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            # A killed writer on a non-atomic filesystem, or bit rot:
            # treat as a miss so the stage re-runs and republishes.
            _warn_corrupt(path, exc)
            return None
        if not isinstance(record, dict) or record.get("schema") != STORE_SCHEMA:
            # Older/newer layout: treat as a miss so the stage re-runs.
            return None
        try:
            art = artifact_from_record(record)
        except Exception as exc:
            _warn_corrupt(path, exc)
            return None
        try:
            os.utime(path)  # last use, for the GC's age and LRU order
        except OSError:
            pass  # best effort: a missed refresh only ages the entry
        return art

    def publish(self, artifact: Artifact, stage: str) -> Tuple[int, bool]:
        """Atomic compare-and-publish.

        If the hash is already present (some other process won the race)
        the existing entry is kept untouched and ``(0, False)`` returns;
        otherwise the record lands via temp file + rename and
        ``(serialized bytes, True)`` returns. Content addressing makes
        "keep the existing entry" correct: two publishes of one hash
        carry identical payloads by construction.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(artifact.hash)
        if path.is_file():
            return (0, False)
        record = {
            "schema": STORE_SCHEMA,
            "kind": artifact.kind,
            "stage": stage,
            "hash": artifact.hash,
            "created_unix": time.time(),
            "payload": artifact.payload,
        }
        data = json.dumps(record, sort_keys=True)
        # Per-process temp name: two racing writers must not clobber each
        # other's temp file mid-write.
        tmp = path.with_suffix(f".json.{os.getpid()}.tmp")
        tmp.write_text(data, encoding="utf-8")
        tmp.replace(path)
        return (len(data), True)

    # ------------------------------------------------------------------ #
    # Single-flight
    # ------------------------------------------------------------------ #

    def _lock_path(self, key: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in key)
        return self.root / LOCKS_DIR / f"{safe}.lock"

    @contextmanager
    def single_flight(self, key: str, timeout_s: float = SINGLE_FLIGHT_TIMEOUT_S) -> Iterator[bool]:
        """Coalesce concurrent identical computations across processes.

        The first process to take the advisory lock for ``key`` is the
        *leader* (``yield True``): it computes and publishes while
        holding the lock. Every other process is a *follower*
        (``yield False``): it blocks until the leader releases (or
        ``timeout_s`` elapses — a crashed leader must not wedge the
        store), then re-checks the cache; the entry the leader published
        turns its computation into a read. Without ``fcntl`` (non-POSIX)
        everyone is a leader — correct, just without the dedup.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield True
            return
        path = self._lock_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                pass  # contended: follow below
            else:
                try:
                    yield True
                finally:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                return
            obs.counter_inc("store_single_flight_waits_total")
            deadline = time.monotonic() + timeout_s
            while time.monotonic() < deadline:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    time.sleep(_FOLLOWER_POLL_S)
                    continue
                fcntl.flock(fd, fcntl.LOCK_UN)
                break
            yield False
        finally:
            os.close(fd)

    # ------------------------------------------------------------------ #
    # Listing and GC
    # ------------------------------------------------------------------ #

    def entries(self) -> List[StoreEntry]:
        """Every readable entry; size and last use come from one ``stat``
        per file."""
        out: List[StoreEntry] = []
        if not self.root.is_dir():
            return out
        for path in sorted(self.root.glob("*.json")):
            try:
                st = path.stat()
                record = json.loads(path.read_text(encoding="utf-8"))
            except FileNotFoundError:
                continue  # removed by a concurrent clean or gc
            except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
                _warn_corrupt(path, exc)
                continue
            if not isinstance(record, dict) or record.get("schema") != STORE_SCHEMA:
                continue
            out.append(
                StoreEntry(
                    kind=str(record.get("kind", "?")),
                    stage=str(record.get("stage", "?")),
                    hash=str(record.get("hash", path.stem)),
                    bytes=st.st_size,
                    created_unix=float(record.get("created_unix", 0.0)),
                    last_used_unix=st.st_mtime,
                )
            )
        return out

    def clean(self) -> int:
        """Delete every cached artifact; returns the number removed."""
        count = 0
        if not self.root.is_dir():
            return count
        for path in self.root.glob("*.json"):
            path.unlink()
            count += 1
        for path in self.root.glob("*.tmp"):
            path.unlink()
        locks = self.root / LOCKS_DIR
        if locks.is_dir():
            for path in locks.glob("*.lock"):
                try:
                    path.unlink()
                except OSError:
                    pass
        return count

    def gc(
        self,
        max_age_days: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Policy-driven garbage collection; returns entries removed.

        ``max_age_days`` drops entries whose file was not used (published
        or hit) within the window; ``max_bytes`` then evicts
        least-recently-used entries (oldest mtime first, ties broken by
        hash) until the store fits the budget. With neither bound this is
        a no-op — use :meth:`clean` for a full wipe.
        """
        if max_age_days is None and max_bytes is None:
            return 0
        entries = self.entries()
        victims: List[StoreEntry] = []
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
            victims = [e for e in entries if e.last_used_unix < cutoff]
            entries = [e for e in entries if e.last_used_unix >= cutoff]
        if max_bytes is not None:
            total = sum(e.bytes for e in entries)
            for e in sorted(entries, key=lambda e: (e.last_used_unix, e.hash)):
                if total <= max_bytes:
                    break
                victims.append(e)
                total -= e.bytes
        removed = 0
        for e in victims:
            try:
                self._path(e.hash).unlink()
            except FileNotFoundError:
                continue
            removed += 1
        obs.counter_inc("store_gc_removed_total", amount=removed)
        return removed
