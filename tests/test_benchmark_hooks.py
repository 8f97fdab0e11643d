"""The names the benchmark harness reaches into swansim for still exist.

perfbench/tracing.py traces a run layer by layer by rebinding every name in
its WRAPPED table on swansim.cli, and perfbench/run.py reports
swansim._kernels.NUMBA_ENABLED in the environment block of every run.  A
rename of either would break `perfbench/run.py --trace 1` or every run.
"""

import importlib.util
from pathlib import Path

import swansim.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_are_functions_of_cli():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    assert [name for name in tracing.WRAPPED if not callable(getattr(swansim.cli, name, None))] == []


def test_numba_flag_imports():
    from swansim._kernels import NUMBA_ENABLED

    assert isinstance(NUMBA_ENABLED, bool)
