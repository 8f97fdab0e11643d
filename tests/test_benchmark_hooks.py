"""The parts of swansim the benchmark harness reaches into still work.

perfbench/tracing.py traces a run layer by layer by rebinding every name in
its WRAPPED table on swansim.cli; perfbench/run.py reports
swansim._kernels.NUMBA_ENABLED in the environment block of every run; and
perfbench/oracles.py checks a --b0 simulate through
evolve_state(..., num_nodes=...).  A change that breaks any of them would
break every run or `perfbench/run.py --trace 1`, so it fails here first.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import swansim.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _perfbench_module(name: str):
    # oracles and run import workloads by its bare name, as perfbench/run.py arranges
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(name)


def test_traced_names_are_functions_of_cli():
    # in a fresh interpreter, as `perfbench/run.py --trace 1` reads them before any command has run:
    # `import swansim.cli` loads none of the modules cli binds, and reading a traced name binds it
    # from its home
    code = """if True:
        import importlib.util, sys
        import swansim.cli as cli
        bound = ["swansim.closed_form", "swansim.propagator", "swansim.gaussian", "swansim.ode", "swansim.geometry"]
        loaded = [[m for m in bound if m in sys.modules]]
        spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.WRAPPED
        assert [name for name in tracing.WRAPPED if not callable(getattr(cli, name, None))] == []
        loaded.append([m for m in bound if m in sys.modules])
        from swansim.cli import riccati_direct
        from swansim.gaussian import riccati_direct as home
        print(loaded, riccati_direct is home)
    """
    cp = subprocess.run([sys.executable, "-c", code, str(TRACING)], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == (
        "[[], ['swansim.closed_form', 'swansim.propagator', 'swansim.gaussian', 'swansim.ode', 'swansim.geometry']] True")


def test_numba_flag_imports():
    from swansim._kernels import NUMBA_ENABLED

    assert isinstance(NUMBA_ENABLED, bool)


def test_environment_block_builds():
    env = _perfbench_module("run").environment()
    assert env["numba_enabled"] is False


def test_b0_simulate_passes_its_oracle(tmp_path):
    oracles, workloads = _perfbench_module("oracles"), _perfbench_module("workloads")
    inv = workloads._invocation("b0_bounded", "simulate", dict(
        omega0=1.0, delta=0.5, p0=0.6, q0=0.8, b0=0.1 + 1.2j, periods=0.1))
    path = tmp_path / "run.csv"
    code = swansim.cli.main(inv.full_argv(str(path)))
    verdict = oracles.check(inv, str(path), code)
    assert verdict.ok, verdict.message
