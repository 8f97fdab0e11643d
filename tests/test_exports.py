"""Every exported name resolves.

A deletion that leaves a stale entry in an __all__ list fails here rather
than in a user's `from swansim import *`.
"""

import importlib
import pkgutil

import pytest

import swansim

# __main__ runs the command line when imported
SUBMODULES = sorted(f"swansim.{m.name}" for m in pkgutil.iter_modules(swansim.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", ["swansim", *SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []

