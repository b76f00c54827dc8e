"""Best-effort run provenance: who produced a measurement, with what.

A ledger entry or an exported run log is only comparable to another
one when both say what code and what numeric stack produced them.
:func:`collect_provenance` gathers the cheap, always-available facts —
package version, interpreter, numpy/scipy versions, and (when the
working directory is a git checkout) the commit sha and dirty flag.
Everything is best-effort: a missing git binary or a non-repo directory
degrades to omitting the git fields, never to an exception.
"""

from __future__ import annotations

import hashlib
import platform
import subprocess
from functools import lru_cache
from typing import Dict

#: ``git_dirty_paths`` is capped: a mass rename would otherwise bloat
#: every ledger record. The digest always covers the full status output,
#: so truncated lists remain distinguishable.
_MAX_DIRTY_PATHS = 16


@lru_cache(maxsize=1)
def _git_state() -> Dict[str, object]:
    """Git identity of the working tree, or ``{}`` outside a checkout.

    Beyond ``git_sha`` and the ``git_dirty`` flag, a dirty tree records
    *which* paths are dirty (``git_dirty_paths``, sorted, capped) and a
    digest of the full porcelain status (``git_dirty_digest``) — so a
    ledger diff can tell benign dirt (an untracked scratch file) from
    meaningful dirt (edits under ``src/``), and two dirty runs can be
    recognised as identically-dirty without trusting the capped list.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if sha.returncode != 0:
            return {}
        out: Dict[str, object] = {"git_sha": sha.stdout.strip()}
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if status.returncode == 0:
            out["git_dirty"] = "yes" if status.stdout.strip() else "no"
            if out["git_dirty"] == "yes":
                # porcelain line: "XY path" or "XY old -> new" (renames:
                # keep the destination, the path that exists now); the
                # XY status prefix may start with a significant space
                paths = sorted(
                    {
                        line[3:].split(" -> ")[-1].strip()
                        for line in status.stdout.splitlines()
                        if len(line) > 3
                    }
                )
                out["git_dirty_paths"] = paths[:_MAX_DIRTY_PATHS]
                if len(paths) > _MAX_DIRTY_PATHS:
                    out["git_dirty_paths_total"] = len(paths)
                out["git_dirty_digest"] = hashlib.sha256(
                    status.stdout.encode()
                ).hexdigest()[:16]
        return out
    except (OSError, subprocess.SubprocessError):
        return {}


def _module_version(name: str) -> str:
    try:
        import importlib

        return str(getattr(importlib.import_module(name), "__version__", "unknown"))
    except Exception:
        return "absent"


@lru_cache(maxsize=1)
def _collect() -> Dict[str, object]:
    from .. import __version__

    out: Dict[str, object] = {
        "repro": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": _module_version("numpy"),
        "scipy": _module_version("scipy"),
    }
    out.update(_git_state())
    return out


def collect_provenance() -> Dict[str, object]:
    """Environment fingerprint for run records and run logs.

    Computed once per process (the answer cannot change mid-run, and the
    git subprocess should be paid at most once); callers get a copy they
    may extend freely.
    """
    return dict(_collect())
