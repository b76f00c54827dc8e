"""``import repro`` resolves its re-exports on first use.

Commands that route nothing (``obs history``, ``validate-trace``,
``pipeline show``) must not pay for importing numpy and scipy.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: What a plain ``import repro`` has always made reachable as attributes.
SUBPACKAGES = (
    "color",
    "core",
    "errors",
    "geometry",
    "grid",
    "netlist",
    "obs",
    "router",
    "rules",
    "units",
)


def test_cli_and_obs_history_import_no_numpy_or_scipy(tmp_path):
    script = (
        "import sys\n"
        "import repro.cli\n"
        f"assert repro.cli.main(['obs', 'history', '--ledger-dir', {str(tmp_path)!r}]) == 0\n"
        "heavy = sorted(m for m in ('numpy', 'scipy') if m in sys.modules)\n"
        "assert not heavy, heavy\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "no runs recorded" in proc.stdout


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    from repro import SadpRouter
    from repro.router import SadpRouter as direct

    assert SadpRouter is direct


def test_subpackages_stay_reachable_as_attributes():
    for name in SUBPACKAGES:
        module = getattr(repro, name)
        assert isinstance(module, types.ModuleType), name
        assert module.__name__ == f"repro.{name}"


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
