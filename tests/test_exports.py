"""Every name that a betticount module lists in __all__ resolves."""

import importlib
import pkgutil

import pytest

import betticount

MODULES = ["betticount", *(f"betticount.{m.name}" for m in pkgutil.iter_modules(betticount.__path__))]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("module", EXPORTING)
def test_star_import_resolves(module):
    exec(f"from {module} import *", {})
