"""Every submodule of ``repro`` is reachable by its dotted name.

A package that re-exports a function under the name of its own submodule
makes ``repro.pkg.name`` the function: ``import repro.pkg.name as m``
then binds the function and the module is reachable only through
``sys.modules``.
"""

import importlib
import pkgutil

import repro


def test_submodule_names_resolve_to_the_modules():
    shadowed = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        parent_name, _, name = info.name.rpartition(".")
        if name == "__main__":
            continue
        module = importlib.import_module(info.name)
        if getattr(importlib.import_module(parent_name), name, None) is not module:
            shadowed.append(info.name)
    assert shadowed == []
