"""NUMBA_ENABLED, always False: no swansim code is compiled.

Its one reader is perfbench/run.py, which reports the flag in the
environment block of every benchmark run.  No swansim module imports it.
"""

__all__ = ["NUMBA_ENABLED"]

NUMBA_ENABLED = False
