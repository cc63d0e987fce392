"""Every name a ``repro`` package exports in ``__all__`` resolves.

A re-export left behind after its module is deleted, or a lazy name
(PEP 562 ``__getattr__``) whose target moved, fails here by package and
name instead of at a user's ``from repro.x import *``.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    pkg = importlib.import_module(package)
    exported = getattr(pkg, "__all__", None)
    assert exported, f"{package} has no __all__"
    assert len(set(exported)) == len(exported), f"{package}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(pkg, name)]
    assert missing == [], f"{package}.__all__ names that do not resolve: {missing}"

