#!/usr/bin/env python3
"""swansim benchmark: the real CLI in a closed loop, every output checked.

Usage, from the root of a swansim checkout:

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

--trace 0 runs each invocation as a `python -m swansim` child process, one at
a time (one client, closed loop), and repeats the workload's invocations in
passes until --seconds is used.  It reports the end-to-end metrics:

    run_s            median over passes of the summed wall time of a pass's
                     CLI processes (interpreter start and import included),
                     at reference host speed (see HostSpeed)
    setup_s          median wall time of a fresh `python -c "import swansim"`,
                     at reference host speed
    peak_rss_mb      largest resident set of any CLI process
    accuracy_digits  -log10 of the largest deviation of any output from its
                     closed-form oracle

--trace 1 calls swansim.cli.main(argv) in this process, alternating untraced
and traced passes, and reports per-layer metrics from the traced spans (see
tracing.py) plus import costs from `python -X importtime`.

Outputs are checked after timing (oracles.py).  The last stdout line is one
JSON object {correct, attempted, failed, metrics}; the exit code is 0 only when
every output passed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
# fresh-import samples per run; setup_s is their median
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# host-speed probe: iterations of a fixed pure-Python loop, and the loop's time
# on the reference host (2-CPU x86-64 sandbox, Python 3.11) at its quiet speed
SPEED_LOOP_ITERS = 1_200_000
SPEED_LOOP_REF_S = 0.075

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Invocation, invocations  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], env: dict, stderr_path: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _speed_loop() -> float:
    t0 = time.perf_counter()
    x, y = 0.0, 1.0
    for _ in range(SPEED_LOOP_ITERS):
        x = x * 0.999 + y * 1e-3
        y -= x * 1e-3
    return time.perf_counter() - t0


class HostSpeed:
    """Scales child wall times to the reference host speed.

    On a shared host the same CPU-bound work takes tens of percent longer or
    shorter from one minute to the next, and the CPU time of the child moves
    with its wall time, so the drift is the host's speed, not scheduling.  A
    fixed pure-Python loop that shares no code with swansim is timed right
    before and after every child; the child's wall time is multiplied by
    SPEED_LOOP_REF_S over the mean of the two loop times.
    """

    def __init__(self):
        self._last = _speed_loop()

    def scaled(self, wall: float) -> float:
        after = _speed_loop()
        factor = SPEED_LOOP_REF_S / (0.5 * (self._last + after))
        self._last = after
        return wall * factor


def measure_setup(env: dict, speed: HostSpeed) -> float:
    cmd = [sys.executable, "-c", "import swansim"]
    run_child(cmd, env, WORK / "setup.err")  # warm the bytecode cache
    walls = []
    for _ in range(SETUP_SAMPLES):
        wall, code, _ = run_child(cmd, env, WORK / "setup.err")
        if code != 0:
            raise RuntimeError(f"import swansim failed: {(WORK / 'setup.err').read_text()}")
        walls.append(speed.scaled(wall))
    return statistics.median(walls)


def _out_path(pass_no: int, inv: Invocation) -> Path:
    return WORK / f"{pass_no}-{inv.name}.{inv.ext}"


def _keep_going(start: float, passes: int, seconds: float) -> bool:
    """Start another pass only if it is expected to end within the budget."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes <= seconds


def timed_run(invs: list[Invocation], seconds: float):
    env = _child_env()
    speed = HostSpeed()
    setup_s = measure_setup(env, speed)
    records, pass_walls, raw_walls, peak = [], [], [], 0.0
    start = time.perf_counter()
    while not pass_walls or _keep_going(start, len(pass_walls), seconds):
        total = raw = 0.0
        for inv in invs:
            path = _out_path(len(pass_walls), inv)
            wall, code, rss = run_child([sys.executable, "-m", "swansim", *inv.full_argv(str(path))],
                                        env, path.with_suffix(".err"))
            total += speed.scaled(wall)
            raw += wall
            peak = max(peak, rss)
            records.append((inv, path, code))
        pass_walls.append(total)
        raw_walls.append(raw)
    metrics = {"run_s": (statistics.median(pass_walls), "s"), "setup_s": (setup_s, "s"),
               "peak_rss_mb": (peak, "MB")}
    print(f"# unscaled wall per pass, median: {statistics.median(raw_walls):.4f} s")
    return metrics, records, len(pass_walls)


def _call_main(main, argv: list[str]) -> int:
    """swansim.cli.main(argv) with the exit code a `swansim` process would give."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error ends a CLI process with a traceback and exit 1
        traceback.print_exc()
        return 1


def import_costs(env: dict) -> dict:
    """Median import.swansim_s and import.scipy_s from `python -X importtime`."""
    samples = {"import.swansim_s": [], "import.scipy_s": []}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import swansim"], env=env,
                              cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True)
        swansim_us = scipy_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name == "swansim":
                swansim_us = int(cumulative_us)
            if name == "scipy" or name.startswith("scipy."):
                scipy_us += int(self_us)  # scipy's own modules only
        samples["import.swansim_s"].append(swansim_us * 1e-6)
        samples["import.scipy_s"].append(scipy_us * 1e-6)
    return {k: statistics.median(v) for k, v in samples.items()}


def _output_size(records) -> tuple[int, int]:
    """Rows (CSV data lines, classify labels, validate reports) and bytes written."""
    rows = size = 0
    for inv, path, _ in records:
        if not path.exists():
            continue  # a failed invocation; its check reports it
        size += path.stat().st_size
        if inv.argv[0] == "classify":
            rows += len(json.loads(path.read_text())["labels"])
        elif inv.argv[0] == "validate":
            rows += 1
        else:
            with open(path, "rb") as fh:
                rows += sum(1 for _ in fh) - 1
    return rows, size


def _in_process_pass(cli, invs: list[Invocation], pass_no: int, tracer=None):
    """One pass of swansim.cli.main calls in this process: (wall seconds, records)."""
    records = []
    with open(WORK / "inprocess.err", "a", encoding="utf-8") as err, contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        for inv in invs:
            path = _out_path(pass_no, inv)
            argv = inv.full_argv(str(path))
            if tracer:
                code = tracer.call(f"{pass_no}:{inv.name}", _call_main, cli.main, argv)
            else:
                code = _call_main(cli.main, argv)
            records.append((inv, path, code))
        return time.perf_counter() - t0, records


def traced_run(invs: list[Invocation], seconds: float, workload: str, seed: int):
    import swansim.cli as cli
    from tracing import Tracer

    imports = import_costs(_child_env())
    speed = HostSpeed()
    records, untraced, traced, tracers = [], [], [], []
    start = time.perf_counter()
    while not traced or _keep_going(start, len(traced), seconds):
        # alternate which side of a pair runs first, so warm-up favours neither
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            pass_no = len(untraced) + len(traced)
            if with_trace:
                tracer = Tracer()
                with tracer.installed(cli):
                    wall, pass_records = _in_process_pass(cli, invs, pass_no, tracer)
                traced.append(speed.scaled(wall))
                tracers.append((tracer, wall, _output_size(pass_records)))
            else:
                wall, pass_records = _in_process_pass(cli, invs, pass_no)
                untraced.append(speed.scaled(wall))
            records.extend(pass_records)

    per_pass = [tracer.layer_metrics(rows, size) for tracer, _, (rows, size) in tracers]
    layers = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    layers.update(imports)
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    layers["trace.attributed_share"] = statistics.median(tracer.root_seconds() / wall for tracer, wall, _ in tracers)
    with open(WORK / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as fh:
        for tracer, _, _ in tracers:
            tracer.write(fh)
    units = {"rows": "count", "bytes": "bytes", "calls": "count", "steps": "count", "diverged": "count",
             "points": "count", "metric_eigen_calls": "count", "us_per_row": "us", "ns_per_step": "ns",
             "ns_per_point": "ns", "attributed_share": "ratio"}
    metrics = {k: (v, units.get(k.split(".", 1)[1], "s")) for k, v in layers.items()}
    return metrics, records, len(traced)


def check_records(records) -> tuple[list, float]:
    """Check every output after timing; identical outputs of one invocation are checked once."""
    import oracles

    verdicts, seen = [], {}
    for inv, path, code in records:
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        key = (inv.name, code, digest)
        if key not in seen:
            seen[key] = oracles.check(inv, str(path), code)
        verdicts.append(seen[key])
    deviations = [v.deviation for v in verdicts if v.deviation is not None]
    return verdicts, max(deviations, default=1.0)


def environment() -> dict:
    import numpy
    import scipy
    import swansim._kernels

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba_enabled": swansim._kernels.NUMBA_ENABLED, "SWANSIM_NUMBA": os.environ.get("SWANSIM_NUMBA"),
            "nproc": os.cpu_count()}


def measure(workload: str, seed: int, seconds: float, trace: bool):
    invs = invocations(workload, seed)
    if trace:
        return traced_run(invs, seconds, workload, seed)
    return timed_run(invs, seconds)


def report(workload: str, seed: int, trace: bool, metrics: dict, records: list, passes: int) -> dict:
    """Check the outputs, print the metrics by name, and return the result object."""
    verdicts, worst = check_records(records)
    failed = sum(not v.ok for v in verdicts)
    known = sum(v.known_failure for v in verdicts)
    if not trace:
        # floor at double precision so an exact match reads as 16 digits, not infinity
        metrics["accuracy_digits"] = (-math.log10(max(worst, 1e-16)), "digits")

    print(f"# {workload} seed={seed} trace={int(trace)} passes={passes} env={json.dumps(environment())}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:12s} {name:32s} {value:14.6g} {unit}")
    print(f"{workload:12s} {'error_rate':32s} {failed / len(verdicts):14.6g} share ({failed}/{len(verdicts)} failed)")
    for v in verdicts:
        if not v.ok:
            print(f"FAILED {v.message}")
    for msg in sorted({v.message for v in verdicts if v.known_failure}):
        print(f"known failure ({known}/{len(verdicts)} invocations): validate near_critical: {msg}")
    if failed == 0:
        for _, path, _ in records:
            path.unlink(missing_ok=True)
    return {"correct": failed == 0, "attempted": len(verdicts), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "swansim" / "__init__.py").is_file():
        print(f"perfbench: no swansim sources under {SRC}; run from the root of a swansim checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    # measure every workload before anything is checked: a child's peak RSS
    # includes this process's peak before the exec, which checking raises
    measured = {name: measure(name, args.seed, args.seconds, trace) for name in names}
    results = {name: report(name, args.seed, trace, *measured[name]) for name in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
