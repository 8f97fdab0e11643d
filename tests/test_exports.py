"""Every exported name resolves, and `import swansim` loads names only on use.

A deletion that leaves a stale entry in an __all__ list fails here rather
than in a user's `from swansim import *`.
"""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import swansim

SUBMODULES = sorted(f"swansim.{m.name}" for m in pkgutil.iter_modules(swansim.__path__))


@pytest.mark.parametrize("name", ["swansim", *SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_import_loads_no_numpy_and_no_submodule():
    code = "import sys, swansim; print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'swansim')))"
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "['swansim']"


def test_each_name_is_its_home_module_object():
    for name in swansim.__all__:
        home = importlib.import_module(f"swansim.{swansim._HOME[name]}")
        assert getattr(swansim, name) is getattr(home, name), name
        assert name in home.__all__, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        swansim.no_such_name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from swansim import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == swansim.__all__
    assert len(swansim.__all__) == 42


def test_dir_lists_every_name():
    assert set(swansim.__all__) <= set(dir(swansim))
