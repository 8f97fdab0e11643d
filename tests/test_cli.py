import argparse
import gc
import importlib
import io
import itertools
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

import swansim
import swansim.__main__ as swansim_main
from swansim import (
    Metric,
    MetriplecticState,
    MobiusPoleError,
    RealState,
    RegionLabel,
    SwansimError,
    SwansonParams,
    integrate,
    metric_eigen,
    metric_from_b,
    propagate,
    region_grid,
    riccati_direct,
    swanson_hamiltonian,
)
from swansim import cli, propagator
from swansim.gaussian import _riccati_steps, evolve_b
from swansim.geometry import _b_margin
from swansim.model import DEFAULT_BAND
from swansim.ode import _integrate_blocks
from swansim.propagator import _propagate_blocks, _sampled_rows, step_count
from swansim.cli import _COMMANDS, CSV_HEADER, _build_parser, _label_chunks, main

# main binds the names a command reads on cli; the validate and classify helpers some tests below
# call directly read every module's
cli._bind(cli._ENGINE)

# JSON value of each region_grid code: code k is list(RegionLabel)[k]
LABEL_VALUES = [label.value for label in RegionLabel]


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "swansim", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_import_loads_no_scipy_or_numba():
    code = ("import sys, swansim.cli; from swansim import *; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numba')))")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "[]"


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    for sub in ("simulate", "classify", "validate", "sweep"):
        assert sub in cp.stdout


def test_simulate_deterministic_and_unit_determinant(tmp_path: Path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--omega0", "1", "--delta", "0.5", "--p0", "1", "--q0", "0"]
    cp1 = run_cli(*args, "--out", str(out1))
    cp2 = run_cli(*args, "--out", str(out2))
    assert cp1.returncode == 0, cp1.stderr
    assert cp2.returncode == 0, cp2.stderr
    assert out1.read_bytes() == out2.read_bytes()

    header, rows = read_csv(out1)
    assert header == ["t", "t_per_T", "P", "Q", "g_pp", "g_pq", "g_qq", "g_plus", "g_minus", "phi", "n", "divergent"]
    assert len(rows) == 10_001
    for cells in rows[:: 500]:
        assert cells[-1] == "0"
        g_pp, g_pq, g_qq = float(cells[4]), float(cells[5]), float(cells[6])
        assert abs(g_pp * g_qq - g_pq * g_pq - 1.0) < 1e-8


def test_simulate_hermitian_norm_constant(tmp_path: Path):
    out = tmp_path / "h.csv"
    cp = run_cli("simulate", "--delta", "0", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    _, rows = read_csv(out)
    n_col = [float(c[10]) for c in rows[::1000]]
    assert n_col == pytest.approx([1.0] * len(n_col), abs=1e-12)


def test_simulate_divergence_exit_codes(tmp_path: Path):
    out = tmp_path / "d.csv"
    cp = run_cli("simulate", "--delta", "1", "--out", str(out))
    assert cp.returncode == 3
    assert "divergence" in cp.stderr

    _, rows = read_csv(out)
    assert rows[-1][-1] == "1"
    params = SwansonParams(1.0, 1.0)
    t_div = float(rows[-1][0])
    step = params.period / 10_000
    assert abs(t_div - math.pi / (2.0 * params.omega)) <= 2.0 * step

    cp_ok = run_cli("simulate", "--delta", "1", "--out", str(out), "--allow-divergence")
    assert cp_ok.returncode == 0, cp_ok.stderr


def test_simulate_accepts_b0(tmp_path: Path):
    out = tmp_path / "b0.csv"
    cp = run_cli("simulate", "--delta", "0.5", "--b0", "0,2", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    _, rows = read_csv(out)
    assert float(rows[0][4]) == pytest.approx(0.5)   # g_pp of b = 2i
    assert float(rows[0][6]) == pytest.approx(2.0)


def test_classify_schema_and_agreement(tmp_path: Path):
    out = tmp_path / "grid.json"
    cp = run_cli(
        "classify",
        "--delta", "0.5",
        "--re-min", "-2", "--re-max", "2",
        "--im-min", "0.05", "--im-max", "2",
        "--resolution", "21",
        "--out", str(out),
    )
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(out.read_text())
    assert doc["params"] == {"omega0": 1.0, "delta": 0.5}
    assert doc["resolution"] == 21
    assert doc["re_range"] == [-2.0, 2.0]
    assert doc["im_range"] == [0.05, 2.0]
    assert len(doc["labels"]) == 21 * 21
    assert set(doc["labels"]) <= {"bounded", "divergent", "boundary"}

    expected = region_grid(SwansonParams(1.0, 0.5), (-2.0, 2.0), (0.05, 2.0), 21)
    assert doc["labels"] == [LABEL_VALUES[code] for code in expected.ravel()]


def test_classify_hermitian_all_bounded(tmp_path: Path):
    out = tmp_path / "grid0.json"
    cp = run_cli("classify", "--delta", "0", "--resolution", "11", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(out.read_text())
    assert set(doc["labels"]) == {"bounded"}


def test_classify_negative_coupling_disk(tmp_path: Path):
    out = tmp_path / "gridn.json"
    cp = run_cli(
        "classify",
        "--delta", "-0.5",
        "--re-min", "-2", "--re-max", "2",
        "--im-min", "0.05", "--im-max", "2",
        "--resolution", "21",
        "--out", str(out),
    )
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(out.read_text())
    labels = np.array(doc["labels"]).reshape(21, 21)
    re_vals = np.linspace(-2.0, 2.0, 21)
    im_vals = np.linspace(0.05, 2.0, 21)
    for i, im in enumerate(im_vals):
        for j, re in enumerate(re_vals):
            margin = 1.0 - abs(complex(re, im) - 1j)
            if margin > 0.02:
                assert labels[i, j] == "bounded"
            elif margin < -0.02:
                assert labels[i, j] == "divergent"


def test_validate_default_passes(tmp_path: Path):
    out = tmp_path / "report.json"
    cp = run_cli("validate", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["failures"] == []
    errors = doc["max_errors"]
    assert errors["Z"] < 1e-6 and errors["G"] < 1e-6 and errors["n"] < 1e-6
    assert errors["B"] < 1e-8 and errors["mapped"] < 1e-8
    assert 3.7 <= doc["convergence_order"] <= 4.3


def test_validate_critical_divergence_path(tmp_path: Path):
    out = tmp_path / "report_crit.json"
    cp = run_cli("validate", "--delta", "1", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["divergence"]["within_tolerance"] is True
    assert doc["max_errors"] is None


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes that called os.fork, counted from here on."""
    pids, fork = [], os.fork

    def counted_fork():
        pids.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


# the Hermitian model, one bounded model per sign, the near-critical failure at both signs,
# and a model with a pole
FORK_DELTAS = ("0", "0.5", "-0.5", "0.96", "-0.99", "1.2")


def test_validate_runs_in_one_process(tmp_path: Path, forks):
    # the checks run in the calling process; the golden test pins the report bytes
    codes = [main(["validate", f"--delta={delta}", f"--out={tmp_path / 'report.json'}"]) for delta in FORK_DELTAS]
    assert codes == [0, 0, 0, 4, 4, 0]
    assert forks == []


def test_check_error_is_one_line(capfd, monkeypatch):
    # a check raises: validate writes no report, only the error line, and exits 2
    def mapped_fails(params):
        raise SwansimError("mapped check failed")

    monkeypatch.setattr(cli, "_mapped_vs_direct", mapped_fails)
    assert main(["validate"]) == 2
    assert capfd.readouterr() == ("", "error: mapped check failed\n")


@pytest.mark.parametrize("argv", [["--delta=0.9999"], ["--delta=0.999", "--step=0.05"]])
def test_validate_reports_an_oracle_off_the_chart(tmp_path: Path, capfd, argv):
    # the Riccati RK4 oracle leaves the chart at these steps, where the Möbius route finds no
    # pole: the oracle is at fault, so validate ends with a failed report, not an error
    out = tmp_path / "report.json"
    assert main(["validate", *argv, f"--out={out}"]) == 4
    assert capfd.readouterr() == ("", "")

    def refuse(token):
        raise AssertionError(f"{token} in the report")

    doc = json.loads(out.read_bytes(), parse_constant=refuse)
    assert doc["pass"] is False
    assert doc["max_errors"]["B"] is None
    assert [f for f in doc["failures"] if "Riccati" in f] == ["B not checked: the Riccati RK4 oracle left the chart"]


@pytest.mark.parametrize("delta", [0.5, 0.96, 1.2])
def test_validation_report_is_what_validate_writes(tmp_path: Path, delta):
    # a passing, a failing and a supercritical report, built without argv or files
    out = tmp_path / "report.json"
    code = main(["validate", f"--delta={delta}", f"--out={out}"])
    params = SwansonParams(1.0, delta)
    report = cli._validation_report(params, params.period / cli.DEFAULT_STEPS_PER_PERIOD)
    assert out.read_bytes() == (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    assert (code, report["pass"]) == ((0, True) if delta != 0.96 else (4, False))


def test_power_of_two_scaling_is_exact(tmp_path: Path, capsys):
    # (omega0, delta) -> (2^k omega0, 2^k delta) scales every time by 2^-k, and every product
    # and sqrt of the arithmetic scales exactly with it: the outputs agree to the last bit
    def run(command, omega0, delta, *argv):
        out = tmp_path / f"{command}{omega0}_{delta}"
        code = main([command, f"--omega0={omega0}", f"--delta={delta}", *argv, f"--out={out}"])
        return code, out.read_text()

    def validate(omega0, delta):
        code, text = run("validate", omega0, delta)
        assert code == 0
        return json.loads(text)

    # the second pair sits where 2 omega^2 is no longer a finite double
    for pair in ((1, 0.5), (2, 1)), ((1.2e154, 5e153), (6e153, 2.5e153)):
        bounded = [validate(*model) for model in pair]
        assert bounded[0]["max_errors"] == bounded[1]["max_errors"]
        assert bounded[0]["convergence_order"] == bounded[1]["convergence_order"]
    slow, fast = validate(1, 1.2)["divergence"], validate(4, 4.8)["divergence"]
    for key in ("closed_form_time", "ode_time"):
        assert fast[key] == slow[key] / 4

    def csv_without_t(omega0, delta):
        code, text = run("simulate", omega0, delta, "--b0=0.2,1.3", "--periods=3")
        assert code == 0
        return [line.split(",", 1)[1] for line in text.splitlines()]

    assert csv_without_t(1, 0.5) == csv_without_t(2, 1) == csv_without_t(0.25, 0.125)

    def divergent_simulate(omega0, delta):
        capsys.readouterr()
        code, text = run("simulate", omega0, delta, "--periods=3")
        lines = text.splitlines()
        times = [float(line.split(",", 1)[0]) for line in lines[1:]]
        # the last row is the first divergent sample, flagged, at the time stderr reports
        assert (code, capsys.readouterr().err) == (3, f"divergence detected at t = {times[-1]:.6g}\n")
        return times, [line.split(",", 1)[1] for line in lines]

    fast_times, fast_rows = divergent_simulate(1, 1.2)
    slow_times, slow_rows = divergent_simulate(0.5, 0.6)
    assert fast_rows == slow_rows and slow_times == [2.0 * t for t in fast_times]

    def sweep(omega0):
        # the coupling range scales with omega0: delta_min + k * delta_step scales exactly too
        out = tmp_path / f"sweep{omega0}"
        argv = [f"--delta-min={0.5 * omega0}", f"--delta-max={1.2 * omega0}", f"--delta-step={0.1 * omega0}"]
        assert main(["sweep", f"--omega0={omega0}", "--periods=2", *argv, f"--out={out}"]) == 0
        return [line.split(",") for line in out.read_text().splitlines()[1:]]

    slow, fast = sweep(1), sweep(2)
    assert len(slow) == 8 and [row[2] for row in slow] == ["0"] * 5 + ["1"] * 3
    for (delta, label, diverged, time, g_plus), row in zip(slow, fast):
        assert row[1:3] + row[4:] == [label, diverged, g_plus]
        assert float(row[0]) == 2.0 * float(delta)
        assert (row[3] == time == "") if diverged == "0" else (float(row[3]) == float(time) / 2.0)


def test_validate_stdout_holds_the_report_once(tmp_path: Path, capfd, monkeypatch):
    # a block-buffered stdout with text pending when validate starts: the report follows it,
    # and neither is written twice
    stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w")), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    stdout.write("pending\n")
    try:
        assert main(["validate"]) == 0
    finally:
        stdout.close()
    out, err = capfd.readouterr()
    assert main(["validate", f"--out={tmp_path / 'report.json'}"]) == 0
    assert (out, err) == ("pending\n" + (tmp_path / "report.json").read_text(), "")


def test_validate_stderr_holds_at_most_one_line(capfd):
    # fd-level capture, so a line written to fd 2 past sys.stderr would show too
    for argv, code in ((["--delta=0.5"], 0), (["--delta=-0.99"], 4), (["--delta=0.999", "--step=0.05"], 4)):
        assert main(["validate", *argv]) == code
        assert capfd.readouterr().err.count("\n") == (code == 2)


def test_validate_overflow_prints_no_warning(capfd):
    # closed_series overflows exp at this coupling, in the check against RK4 and in the
    # convergence order, where inf is the value meant; shown on fd 2 as a process shows it
    def show(message, category, filename, lineno, file=None, line=None):
        os.write(2, warnings.formatwarning(message, category, filename, lineno, line).encode())

    with warnings.catch_warnings():
        # a new filter also forgets the warnings shown so far
        warnings.simplefilter("default")
        warnings.showwarning = show
        assert main(["validate", "--delta=-0.999"]) == 4
    assert "RuntimeWarning" not in capfd.readouterr().err


def test_sweep_transition(tmp_path: Path):
    out = tmp_path / "sweep.csv"
    cp = run_cli(
        "sweep",
        "--delta-min", "0", "--delta-max", "1.2", "--delta-step", "0.1",
        "--out", str(out),
    )
    assert cp.returncode == 0, cp.stderr
    header, rows = read_csv(out)
    assert header == ["delta", "label", "diverged", "divergence_time", "max_g_plus"]
    assert len(rows) == 13
    for cells in rows:
        delta = float(cells[0])
        if delta < 1.0 - 0.02:
            assert cells[1] == "bounded" and cells[2] == "0"
        elif delta > 1.0 + 0.02:
            assert cells[1] == "divergent" and cells[2] == "1"
        else:
            assert cells[1] == "boundary" and cells[2] == "1"


def test_sweep_labels_a_vertical_plane_divergent(tmp_path: Path, capsys):
    # at delta = 1 this metric's conserved plane is vertical (omega0 + delta*x = 0), of slope inf; sweep
    # labels by the margin of its b = (sqrt(2) - 1) i, Im b - delta/omega0 = sqrt(2) - 2 < -band
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--g0=2.414213562373095,0,0.41421356237309503", "--delta-min=0.9", "--delta-max=1.0", f"--out={out}"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out)
    assert len(rows) == 2 and rows[1][:3] == ["1", "divergent", "1"]


# a packet whose two labelling rules disagreed: classify's b margin called it divergent, sweep's
# plane slope boundary, though sweep's run diverged (the g0 below is the metric of this b0)
SPLIT_DELTA, SPLIT_B0 = 0.9483968214463099, 1.6921013369087228 + 0.920947467796762j
SPLIT_G0 = "1.085838264360898,-1.8373483787917226,4.02992711591731"


def sweep_cells(out: Path, *flags: str) -> list[str]:
    """The cells of the one row of a sweep over a single coupling."""
    assert main(["sweep", *flags, "--delta-step=1", f"--out={out}"]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    return rows[0]


def classify_label(out: Path, b0: complex, *flags: str) -> str:
    """classify's label of b0: the first point of a 2x2 grid whose lowest row and leftmost column pass through b0."""
    argv = ["classify", *flags, f"--re-min={b0.real!r}", f"--re-max={b0.real + 1!r}", f"--im-min={b0.imag!r}",
            f"--im-max={b0.imag + 1!r}", "--resolution=2", f"--out={out}"]
    assert main(argv) == 0
    return json.loads(out.read_text())["labels"][0]


@pytest.mark.parametrize("delta, label, diverged", [("-0.9802", "bounded", "0"), ("-1.0202", "boundary", "1")])
def test_sweep_labels_the_identity_seed_by_its_b_margin(tmp_path: Path, delta, label, diverged):
    # identity seed, omega0 = 1, delta < -1/2: the margin of b = i is 1/|delta| - 1 (0.0202 and -0.0198
    # against the band of 0.02), where the plane slope's would be 1 - |delta| (0.0198 and -0.0202)
    cells = sweep_cells(tmp_path / "sweep.csv", f"--delta-min={delta}", f"--delta-max={delta}")
    assert cells[1:3] == [label, diverged]


def test_sweep_and_classify_give_one_packet_one_label(tmp_path: Path):
    cells = sweep_cells(tmp_path / "sweep.csv", f"--delta-min={SPLIT_DELTA!r}", f"--delta-max={SPLIT_DELTA!r}",
                        f"--g0={SPLIT_G0}")
    assert cells[1:3] == ["divergent", "1"]
    assert classify_label(tmp_path / "grid.json", SPLIT_B0, f"--delta={SPLIT_DELTA!r}") == "divergent"


@st.composite
def packets(draw):
    """(omega0, delta, b0, (p0, q0)): omega0 = 10^(+-U(0.05, 0.5)), away from 1 so that delta/omega0 and
    delta*omega0 differ, delta = +-10^U(-1, 0.5) omega0, Re b0 in [-2, 2], Im b0 = 10^U(-1.5, 1) and a
    centre in the unit disk."""
    sign = st.sampled_from([-1.0, 1.0])
    omega0 = 10.0 ** (draw(sign) * draw(st.floats(0.05, 0.5)))
    delta = draw(sign) * 10.0 ** draw(st.floats(-1.0, 0.5)) * omega0
    b0 = complex(draw(st.floats(-2.0, 2.0)), 10.0 ** draw(st.floats(-1.5, 1.0)))
    radius, angle = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 2.0 * math.pi))
    return omega0, delta, b0, (radius * math.cos(angle), radius * math.sin(angle))


@given(packet=packets())
@example(packet=(1.0, SPLIT_DELTA, SPLIT_B0, (1.0, 0.0)))
@settings(max_examples=50, deadline=None)
def test_classify_sweep_and_simulate_hold_one_packet_to_one_answer(tmp_path_factory, packet):
    # one packet through the three commands in-process: classify's label of b0, sweep's of its metric
    omega0, delta, b0, (p0, q0) = packet
    # sweep reads b0 back from the metric's repr, which may round: a margin at the band may change sides
    margin = _b_margin(SwansonParams(omega0, delta), b0.real, b0.imag)
    assume(abs(abs(margin) - DEFAULT_BAND) > 1e-9)
    work = tmp_path_factory.mktemp("packet")
    model = [f"--omega0={omega0!r}", f"--p0={p0!r}", f"--q0={q0!r}"]
    g0 = metric_from_b(b0)
    cells = sweep_cells(work / "sweep.csv", *model, f"--delta-min={delta!r}", f"--delta-max={delta!r}",
                        f"--g0={g0.g_pp!r},{g0.g_pq!r},{g0.g_qq!r}")
    label = classify_label(work / "grid.json", b0, f"--omega0={omega0!r}", f"--delta={delta!r}")
    event(label)
    assert cells[1] == label
    code = main(["simulate", *model, f"--delta={delta!r}", f"--b0={b0.real!r},{b0.imag!r}",
                 f"--out={work / 'run.csv'}"])
    if label == "bounded":
        assert (cells[2], code) == ("0", 0)
    elif label == "divergent":
        _, rows = read_csv(work / "run.csv")
        assert (cells[2], code, rows[-1][-1]) == ("1", 3, "1")
        assert cells[3] == rows[-1][0]


def test_sweep_empty_range(tmp_path: Path):
    # a reversed coupling range is refused before anything is written
    out = tmp_path / "empty.csv"
    cp = run_cli("sweep", "--delta-min", "2", "--delta-max", "1", "--delta-step", "0.1", "--out", str(out))
    assert cp.returncode == 2
    assert cp.stderr == "config error: delta-max 1 is below delta-min 2\n"
    assert not out.exists()


def test_config_file_and_flag_override(tmp_path: Path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0.0, "resolution": 11}))
    out = tmp_path / "cfg_grid.json"
    cp = run_cli("classify", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    assert json.loads(out.read_text())["params"]["delta"] == 0.0

    cp = run_cli("classify", "--config", str(cfg), "--delta", "0.5", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    assert json.loads(out.read_text())["params"]["delta"] == 0.5


def test_config_errors(tmp_path: Path, capsys):
    # in-process, with warnings raised as errors: a numpy RuntimeWarning escapes and fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        config_error(["classify", "--config", str(bad)], capsys)

        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"nope": 1}))
        config_error(["classify", "--config", str(unknown)], capsys)

        config_error(["simulate", "--omega0", "-1"], capsys)
        assert config_error(["sweep", "--omega0", "0"], capsys) == "config error: omega0 must be positive, got 0.0\n"
        config_error(["simulate", "--g0", "2,0,2"], capsys)
        config_error(["simulate", "--step", "-0.1"], capsys)
        config_error(["classify", "--im-min", "-0.5"], capsys)
        err = config_error(["sweep", "--delta-min", "2", "--delta-max", "1", "--delta-step", "0.1"], capsys)
        assert err == "config error: delta-max 1 is below delta-min 2\n"
        for argv in (["simulate"], ["sweep", "--delta-max", "0.2"]):
            for periods in ("0", "-1"):
                assert "periods must be positive" in config_error([*argv, "--periods", periods], capsys)
            assert "invalid initial state: phase-space point" in config_error([*argv, "--p0", "nan"], capsys)
        assert "invalid initial state: survival probability" in config_error(["simulate", "--n0", "0"], capsys)
        # a period of 6e-300: omega^2 overflows, which once gave numpy warnings and a NaN error or a fake divergence
        for command in ("validate", "simulate"):
            err = config_error([command, "--omega0", "1e300"], capsys)
            assert err.startswith("config error: omega0 1e+300") and "period of 6.28e-300" in err
        # b0 whose metric overflows (g_qq) or divides by a subnormal Im b (g_pp)
        for b0 in ("1e300,1", "0,1e-320"):
            err = config_error(["simulate", "--b0", b0], capsys)
            assert err == "config error: invalid initial metric: metric entries must be finite\n"
        # finite entries whose determinant is inf - inf = NaN
        for command in ("simulate", "sweep"):
            err = config_error([command, "--g0", "1e308,1e308,1e308"], capsys)
            assert err == "config error: initial metric must have unit determinant, got nan\n"
        # a b0 off the upper half-plane, a NaN Im b0 among them, is refused by metric_from_b's own test
        for b0 in ("1,nan", "1,-1", "1,0"):
            err = config_error(["simulate", f"--b0={b0}"], capsys)
            assert err.startswith("config error: invalid initial metric: Im(b) must be positive")
        # a b0 far from the imaginary axis: g_pp g_qq - g_pq^2 rounds to 0 (the fuzz drew it)
        err = config_error(["simulate", "--b0", "94906266.0,1.0"], capsys)
        assert err == "config error: initial metric must have unit determinant, got 0.0\n"


def config_error(argv: list[str], capsys) -> str:
    """Run the CLI in-process (an escaping exception fails the test); return its config error line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "values, message",
    [
        ({"resolution": "41"}, "resolution: expected an integer"),
        ({"resolution": 4.5}, "resolution: expected an integer"),
        ({"resolution": True}, "resolution: expected an integer"),
        ({"g0": 5}, "g0: expected a list of 3 numbers"),
        ({"g0": [1, 0]}, "g0: expected a list of 3 numbers"),
        ({"b0": [0, "2"]}, "b0: expected a list of 2 numbers"),
        ({"delta": "x"}, "delta: expected a number"),
        ({"delta": None}, "delta: expected a number"),
        ({"delta": 10**400}, "delta: expected a number"),
        ({"allow_divergence": 1}, "allow_divergence: expected a boolean"),
        ({"out": 3}, "out: expected a string"),
    ],
)
def test_config_file_types(tmp_path: Path, capsys, values, message):
    (key,) = values
    # the first subcommand that declares the key, so that the key is read, not refused as unknown
    command = next(command for command, (_, _, names, _) in _COMMANDS.items() if key in names)
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(values))
    assert message in config_error([command, "--config", str(cfg)], capsys)


def test_config_file_coerces_to_field_types(tmp_path: Path):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"resolution": 3.0, "delta": 0}))
    out = tmp_path / "grid.json"
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["resolution"] == 3 and len(doc["labels"]) == 9
    cfg.write_text(json.dumps({"b0": None, "g0": [1, 0, 1]}))
    config = parsed_config(["simulate", "--config", str(cfg)])
    assert config.b0 is None and config.g0 == (1.0, 0.0, 1.0) and set(map(type, config.g0)) == {float}


@pytest.mark.parametrize(
    "argv, message",
    [([cmd, "--step", "1e300"], "exceeds the time span") for cmd in ("simulate", "sweep", "validate")]
    # about 10^10 samples; only the refusal is exercised, nothing that size is allocated
    + [([cmd, "--step", "6e-10"], "steps exceed the limit") for cmd in ("simulate", "sweep", "validate")]
    + [([cmd, "--periods", "inf"], "steps exceed the limit") for cmd in ("simulate", "sweep")]
    + [
        (["classify", "--resolution", "1000000"], "grid exceeds the limit"),
        (["sweep", "--delta-max", "inf"], "coupling range"),
        (["sweep", "--delta-step", "1e-300"], "coupling range"),
    ],
)
def test_unbounded_work_is_refused(argv, message, capsys):
    assert message in config_error(argv, capsys)


# at 301 a run of bounded labels is longer than cli._LABEL_RUN_CAP, so it is written in pieces
@pytest.mark.parametrize("resolution", [2, 3, 21, 301])
@pytest.mark.parametrize("delta", [0.5, -0.5, 0.0])
def test_classify_json_bytes(tmp_path: Path, resolution, delta):
    # the label array written in runs must match the json module's own encoding byte for byte
    out = tmp_path / "grid.json"
    argv = [
        "classify", f"--delta={delta}", "--re-min=-1.5", "--re-max=2.5", "--im-min=0.05", "--im-max=1.7",
        f"--resolution={resolution}", "--band=0.03", f"--out={out}",
    ]
    assert main(argv) == 0
    codes = region_grid(SwansonParams(1.0, delta), (-1.5, 2.5), (0.05, 1.7), resolution, band=0.03)
    doc = {
        "params": {"omega0": 1.0, "delta": delta},
        "re_range": [-1.5, 2.5],
        "im_range": [0.05, 1.7],
        "resolution": resolution,
        "band": 0.03,
        "labels": [LABEL_VALUES[code] for code in codes.ravel()],
    }
    assert out.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def label_runs(runs) -> list[int]:
    return [code for code, length in runs for _ in range(length)]


def blocks_at(codes, cuts) -> list[np.ndarray]:
    """codes split at the given sorted cut points into non-empty int8 blocks."""
    edges = [0, *cuts, len(codes)]
    return [np.asarray(codes[lo:hi], dtype=np.int8) for lo, hi in zip(edges, edges[1:])]


CAP = cli._LABEL_RUN_CAP
# runs of equal codes, some longer than the chunk cap
code_runs = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2 * CAP + 3)), min_size=1, max_size=4)


@st.composite
def code_blocks(draw) -> list[np.ndarray]:
    """Drawn codes split into blocks at drawn cut points, as the grid's blocks of rows arrive."""
    codes = draw(st.one_of(st.lists(st.integers(0, 2), min_size=1, max_size=200), code_runs.map(label_runs)))
    cuts = draw(st.sets(st.integers(1, len(codes) - 1), max_size=5)) if len(codes) > 1 else set()
    return blocks_at(codes, sorted(cuts))


@given(blocks=code_blocks())
@example(blocks=blocks_at([0, 1, 2] * 7, []))
@example(blocks=blocks_at([2], []))
# a first block of a single label, then a run of 3 * CAP + 1 bounded labels cut twice
@example(blocks=blocks_at(label_runs([(1, 1), (0, 3 * CAP + 1), (2, CAP)]), [1, CAP + 5, 2 * CAP]))
@example(blocks=blocks_at(label_runs([(1, 1), (0, 3 * CAP + 1), (2, CAP)]), []))
@example(blocks=[np.array([[1, 1], [0, 2]], dtype=np.int8), np.array([[2, 2], [2, 0]], dtype=np.int8)])
@settings(max_examples=60, deadline=None)
def test_label_chunks_match_json_dumps(blocks):
    chunks = list(_label_chunks(iter(blocks)))
    codes = np.concatenate([block.ravel() for block in blocks])
    expected = json.dumps({"labels": [LABEL_VALUES[code] for code in codes]}, indent=2)
    assert '{\n  "labels": ' + "".join(chunks) + "\n}" == expected
    # no chunk grows with the grid or with a block: at most _LABEL_RUN_CAP labels each
    assert max(map(len, chunks)) <= CAP * len(',\n    "divergent"')


@pytest.mark.parametrize("flag", ["--band=0", "--im-min=-1", "--im-max=inf"])
def test_refused_grid_writes_nothing(tmp_path: Path, capsys, flag):
    # the grid's checks run at the call, before the JSON head is written
    out = tmp_path / "grid.json"
    for argv in (["classify", flag, f"--out={out}"], ["classify", flag]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("delta", [0.5, -0.5])
def test_classify_peak_memory_stays_bounded(tmp_path: Path, delta):
    # a whole-document string at 801^2 peaks near 34 MiB; the streamed output stays well under 20 MiB
    out = tmp_path / "grid.json"
    tracemalloc.start()
    try:
        assert main(["classify", f"--delta={delta}", "--resolution=801", f"--out={out}"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert len(json.loads(out.read_text())["labels"]) == 801 * 801


def classify_peak(tmp_path: Path, delta: float) -> int:
    tracemalloc.start()
    try:
        assert main(["classify", f"--delta={delta}", "--resolution=801", f"--out={tmp_path / 'grid.json'}"]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_classify_peak_memory_is_the_same_for_both_signs(tmp_path: Path):
    # the disk margin of delta < 0 is evaluated in blocks of rows, as the half-plane's column is
    assert classify_peak(tmp_path, -0.5) <= classify_peak(tmp_path, 0.5) + 2 * 2**20


# runs `python -m swansim ARGV...` and prints its exit code and wait4 peak resident set in KiB;
# run from a small interpreter, since a child's peak also counts its parent's up to the exec
PEAK_RSS_SCRIPT = """if True:
    import os, subprocess, sys
    proc = subprocess.Popen([sys.executable, "-m", "swansim", *sys.argv[1:]])
    _, status, usage = os.wait4(proc.pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


# a run's flags, then those of a run ten times as long: ten times the periods, a tenth of
# validate's default step T/10^4 (its span is one period of the default model), or about ten
# times classify's grid points
LONGER_RUNS = {
    "classify": (["--resolution=801"], ["--resolution=2533"]),
    "simulate": (["--periods=2"], ["--periods=20"]),
    "sweep": (["--periods=2"], ["--periods=20"]),
    "validate": ([], [f"--step={SwansonParams(1.0, 0.5).period / 100_000!r}"]),
}


@pytest.mark.parametrize("command", sorted(LONGER_RUNS))
def test_peak_memory_does_not_grow_with_the_run(tmp_path: Path, command):
    # one engine, oracle or grid block at a time: a run ten times as long, the same peak
    peaks = []
    for i, flags in enumerate(LONGER_RUNS[command]):
        argv = [command, *flags, f"--out={tmp_path / f'{i}.out'}"]
        cp = subprocess.run([sys.executable, "-c", PEAK_RSS_SCRIPT, *argv], capture_output=True, text=True, timeout=120)
        assert cp.returncode == 0, cp.stderr
        code, peak_kib = map(int, cp.stdout.split())
        assert code == 0
        peaks.append(peak_kib)
    assert abs(peaks[1] - peaks[0]) < 2 * 1024, peaks


UNWRITABLE_ARGV = {
    "simulate": ["simulate", "--periods=0.01"],
    "classify": ["classify", "--resolution=3"],
    "validate": ["validate", "--step=0.1"],
    "sweep": ["sweep", "--delta-max=0.2"],
}


# what each subcommand computes; --out is checked before any of it runs
COMPUTE = (
    "_propagate_blocks",
    "_sampled_rows",
    "_grid_blocks",
    "_integrate_blocks",
    "_riccati_steps",
    "first_pole_time",
    "classify_metric",
)


@pytest.mark.parametrize("command", sorted(UNWRITABLE_ARGV))
def test_unwritable_out_is_a_config_error(tmp_path: Path, capsys, monkeypatch, command):
    def compute(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    for name in COMPUTE:
        monkeypatch.setattr(cli, name, compute)
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        err = config_error([*UNWRITABLE_ARGV[command], f"--out={path}"], capsys)
        assert err.startswith(f"config error: cannot write output file {path}: ")
    assert not (tmp_path / "missing").exists()


def test_out_check_creates_and_truncates_nothing(tmp_path: Path, capsys):
    # each run is refused after --out passed its check
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n")
    for path in (new, old):
        assert "step must be positive" in config_error(["simulate", "--step=0", f"--out={path}"], capsys)
    assert not new.exists()
    assert old.read_text() == "kept\n"


def test_closed_stdout_ends_quietly():
    # a reader that stops after 20 bytes, as `| head` does: the output is cut, with no traceback
    with subprocess.Popen([sys.executable, "-m", "swansim", "classify", "--resolution=801"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(20) == b'{\n  "band": 0.02,\n  '
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


def test_band_must_be_finite_and_positive(tmp_path: Path, capsys):
    for band in ("nan", "inf", "-inf", "0", "-0.1"):
        assert "band must be finite and positive" in config_error(["classify", "--resolution=3", f"--band={band}"], capsys)
    cfg = tmp_path / "band.json"
    cfg.write_text(json.dumps({"band": math.nan}))
    assert cfg.read_text() == '{"band": NaN}'
    assert "band must be finite and positive" in config_error(["classify", "--resolution=3", "--config", str(cfg)], capsys)
    # sweep labels with the default band and takes none from a file
    err = config_error(["sweep", "--delta-max=0.2", "--config", str(cfg)], capsys)
    assert err == "config error: unknown config key: band\n"


def test_classify_refuses_non_finite_ranges(capsys):
    assert "im_range must be finite" in config_error(["classify", "--im-max=inf"], capsys)
    assert "re_range must be finite" in config_error(["classify", "--re-min=-1e308", "--re-max=1e308"], capsys)


# numbers a hostile caller might pass, as text, plus ones argparse itself refuses
hostile_number = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "1e308", "-1e308", "5e-324", "-5e-324", "x", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=-3.0, max_value=3.0).map(repr),
)
hostile_resolution = st.one_of(st.integers(min_value=-5, max_value=60).map(str), st.sampled_from(["nan", "2.5", "1e3"]))
CLASSIFY_NUMBER_FLAGS = ("omega0", "delta", "re-min", "re-max", "im-min", "im-max", "band")


@given(
    numbers=st.fixed_dictionaries({}, optional={flag: hostile_number for flag in CLASSIFY_NUMBER_FLAGS}),
    resolution=hostile_resolution,
)
@settings(max_examples=150, deadline=None)
def test_classify_fuzz_exits_cleanly(tmp_path_factory, numbers, resolution):
    # in-process: an escaping exception fails the test; argparse's own refusal is SystemExit(2)
    out = tmp_path_factory.mktemp("fuzz") / "grid.json"
    argv = ["classify", f"--resolution={resolution}", f"--out={out}"]
    argv += [f"--{flag}={value}" for flag, value in numbers.items()]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2)
    if code == 0:
        doc = json.loads(out.read_text())
        assert math.isfinite(doc["band"]) and doc["band"] > 0
        assert len(doc["labels"]) == doc["resolution"] ** 2
        assert set(doc["labels"]) <= {"bounded", "divergent", "boundary"}


# texts that are not a number, or are one at the edge of the doubles
SPECIAL_TEXTS = ["nan", "inf", "-inf", "0", "-1", "1e308", "5e-324", "x", ""]


def fuzz_step(k: int, omega0_text: str) -> str:
    """1/k of the longest period 2 pi / omega0 that omega0 allows: at most 2k samples over 2 periods."""
    try:
        return repr(2.0 * math.pi / float(omega0_text) / k)
    except (ValueError, ZeroDivisionError):
        return repr(1.0 / k)


def fuzz_strategies(command: str) -> dict:
    """Flag text for every RunConfig field the subcommand takes, bounded to about 2*10^4 samples a run.

    --step is drawn as k, the samples per longest period (see fuzz_step); validate always gets a
    coarse one. A run of more samples than that is drawn only where MAX_SAMPLES refuses it.
    """
    special = st.sampled_from(SPECIAL_TEXTS)
    pair = st.tuples(hostile_number, hostile_number).map(",".join)
    triple = st.tuples(hostile_number, hostile_number, hostile_number).map(",".join)
    steps = st.one_of(special, st.integers(1, 200 if command == "validate" else 10_000))
    strategies = {
        "step": steps,
        "periods": st.one_of(special, st.floats(-2.0, 2.0).map(repr)),
        "resolution": st.one_of(st.integers(-5, 60).map(str), st.sampled_from(["nan", "2.5", "3.0", "1e1", "1e9"])),
        "delta_min": st.one_of(special, st.floats(-3.0, 3.0).map(repr)),
        "delta_max": st.one_of(special, st.floats(-3.0, 3.0).map(repr)),
        # at most 13 coupling values, or a count the cap refuses
        "delta_step": st.one_of(special, st.just("1e-300"), st.floats(0.5, 3.0).map(repr)),
        "g0": st.one_of(special, triple, st.sampled_from(["1,0,1", "2,0,0.5", "2,1,1", "1,0"])),
        "b0": st.one_of(special, pair, st.sampled_from(["0,1", "0.3,1.2", "-0.5,0.2", "0,2,1"])),
        "allow_divergence": st.booleans(),
    }
    number = st.one_of(hostile_number, st.floats(0.05, 2.0).map(repr))
    return {name: strategies.get(name, number) for name in _COMMANDS[command][2] if name != "out"}


def json_value(text: str):
    """A flag's text as a config file value: the number or list JSON reads in it, else the text."""
    try:
        value = json.loads(f"[{text}]")
    except ValueError:
        return text
    return value[0] if len(value) == 1 else value


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@given(data=st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzz_exits_cleanly(tmp_path_factory, capsys, command, data):
    # in-process, with warnings raised as errors: an escaping exception or a numpy warning fails the test
    work = tmp_path_factory.mktemp("fuzz")
    argv, file_values = [command, f"--out={work / 'out'}"], {}
    strategies = fuzz_strategies(command)
    # a few flags at a time, so that some runs get past the checks; validate always gets its step
    names = data.draw(st.lists(st.sampled_from(sorted(strategies)), max_size=4, unique=True), label="flags")
    if command == "validate" and "step" not in names:
        names.append("step")
    drawn = {name: data.draw(strategies[name], label=name) for name in names}
    if isinstance(drawn.get("step"), int):
        drawn["step"] = fuzz_step(drawn["step"], drawn.get("omega0", "1"))
    for name, text in drawn.items():
        if text is False:
            continue
        if data.draw(st.booleans(), label=f"{name} in the config file"):
            file_values[name] = True if text is True else json_value(text)
        else:
            flag = "--" + name.replace("_", "-")
            argv.append(flag if text is True else f"{flag}={text}")
    if file_values:
        (work / "cfg.json").write_text(json.dumps(file_values))
        argv.append(f"--config={work / 'cfg.json'}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
    assert capsys.readouterr().err.count("\n") <= 1
    assert code == 2 or (work / "out").stat().st_size > 0


# ROADMAP item 11: inputs at the edges of each route, with the exit code each gave when measured.
# simulate --b0=1e300,1 (test_config_errors) and validate --delta=-0.999 (the overflow tests) are pinned already
EDGE_INPUTS = [
    (["simulate", "--delta=1e10"], 3),
    (["simulate", "--omega0=1e-100", "--delta=1e-100"], 3),
    (["simulate", "--p0=1e200"], 3),
    (["simulate", "--delta=-1", "--periods=1"], 3),
    (["simulate", "--b0=0,1e-300"], 2),
    (["simulate", "--n0=1e300"], 0),
    (["classify", "--resolution=11", "--delta=-1e-300"], 0),
    (["classify", "--resolution=11", "--delta=-0.5", "--re-min=-1e300", "--re-max=1e300"], 0),
    (["classify", "--resolution=11", "--delta=1e300"], 2),
    (["classify", "--resolution=11", "--delta=-1e300", "--im-max=1e300"], 2),
    (["validate", "--delta=0"], 0),
    (["validate", "--delta=1e6"], 0),
    (["validate", "--delta=-1e6"], 0),
    (["validate", "--omega0=1e-100", "--delta=0.5e-100"], 0),
    (["validate", "--omega0=1.2e154", "--delta=5e153"], 0),
    (["sweep", "--delta-min=-2", "--delta-max=2", "--delta-step=0.5", "--p0=1e100"], 0),
    (["sweep", "--g0=1e-9,0,1e9"], 0),
]


@pytest.mark.parametrize("argv, code", EDGE_INPUTS, ids=[" ".join(argv) for argv, _ in EDGE_INPUTS])
def test_edge_inputs_end_in_their_exit_code(tmp_path: Path, capfd, argv, code):
    # in-process, with warnings raised as errors: an escaping exception or a numpy warning fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, f"--out={tmp_path / 'out'}"]) == code
    assert capfd.readouterr().err.count("\n") <= 1


def parsed_config(argv: list[str]) -> cli.RunConfig:
    """The RunConfig that main runs argv with."""
    args = vars(_build_parser().parse_args(argv))
    return cli._merge_config(args, _COMMANDS[args.pop("command")][2])


# a negative value with an exponent or a leading point, for each numeric RunConfig field type
NEGATIVE_VALUES = {
    "float": ("-5e-1", -0.5),
    "float | None": ("-5e-1", -0.5),
    "tuple[float, float, float]": ("-5e-1,-.5,-1e0", (-0.5, -0.5, -1.0)),
    "complex | None": ("-.5e0,-2e-1", complex(-0.5, -0.2)),
}
FIELD_TYPES = dict(cli.RunConfig.__annotations__)


def test_negative_values_are_not_option_names():
    # argparse alone reads only -N and -N.N as numbers and takes -5e-1 for an option name
    checked = set()
    for command, (_, _, names, _) in _COMMANDS.items():
        for name in names:
            if FIELD_TYPES[name] not in NEGATIVE_VALUES:
                continue
            text, value = NEGATIVE_VALUES[FIELD_TYPES[name]]
            flag = "--" + name.replace("_", "-")
            assert getattr(parsed_config([command, flag, text]), name) == value, (command, flag)
            checked.add((command, flag))
    assert {("classify", "--re-min"), ("simulate", "--delta"), ("simulate", "--b0"), ("sweep", "--g0")} <= checked
    assert {command for command, _ in checked} == set(_COMMANDS)


def declared_flags() -> dict:
    """Each subcommand's flags, as _build_parser declares them, in order; --help aside."""
    (subparsers,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        command: [s for a in subparser._actions for s in a.option_strings if s not in ("-h", "--help")]
        for command, subparser in subparsers.choices.items()
    }


def test_flags_follow_the_command_table():
    table = {command: ["--config"] + ["--" + name.replace("_", "-") for name in names]
             for command, (_, _, names, _) in _COMMANDS.items()}
    assert declared_flags() == table
    # every flag but --config sets the RunConfig field of its name
    assert {name for _, _, names, _ in _COMMANDS.values() for name in names} <= set(FIELD_TYPES)
    assert sum(map(len, declared_flags().values())) == 38


def test_config_keys_follow_the_command_table(tmp_path: Path, capsys):
    # a file holding one RunConfig field at its default: read exactly when the subcommand declares it
    read = 0
    for command, (_, _, names, _) in _COMMANDS.items():
        for name in FIELD_TYPES:
            cfg = tmp_path / "one_key.json"
            cfg.write_text(json.dumps({name: getattr(cli.RunConfig(), name)}))
            argv = [command, "--config", str(cfg)]
            if name in names:
                assert parsed_config(argv) == cli.RunConfig()
                read += 1
            else:
                assert config_error(argv, capsys) == f"config error: unknown config key: {name}\n"
    assert (len(_COMMANDS) * len(FIELD_TYPES), read) == (80, 34)


# flags of RunConfig fields the subcommand does not use, and prefixes of declared flags:
# refused, not ignored or read as the flag they abbreviate
@pytest.mark.parametrize(
    "command, flag",
    [("classify", "--step=0.1"), ("classify", "--periods=2"), ("classify", "--allow-divergence"),
     ("validate", "--periods=2"), ("validate", "--allow-divergence"),
     ("sweep", "--delta=0.5"), ("sweep", "--allow-divergence"),
     ("classify", "--res=3"), ("simulate", "--om=1"), ("validate", "--st=0.1")],
)
def test_no_op_flags_are_refused(capsys, command, flag):
    assert argv_refusal([command, flag], capsys) == f"swansim {command}: error: unrecognized arguments: {flag}\n"


def test_flag_prefixes_are_refused(capsys):
    # argparse's default prefix matching read 111 of these as the one flag they abbreviate
    for command, flags in declared_flags().items():
        for flag in flags:
            for prefix in {flag[:end] for end in range(3, len(flag))} - set(flags):
                err = argv_refusal([command, f"{prefix}=1"], capsys)
                assert err == f"swansim {command}: error: unrecognized arguments: {prefix}=1\n"


def argv_refusal(argv: list[str], capsys) -> str:
    """Run the CLI in-process on argv argparse refuses; return its one stderr line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    return err


def test_argparse_refusals_are_one_line(capsys):
    assert argv_refusal([], capsys) == "swansim: error: the following arguments are required: command\n"
    assert argv_refusal(["sweep", "--b0", "0,2"], capsys) == "swansim sweep: error: unrecognized arguments: --b0 0,2\n"
    assert argv_refusal(["classify", "--resolution"], capsys) == (
        "swansim classify: error: argument --resolution: expected one argument\n"
    )
    assert argv_refusal(["simulatee"], capsys).startswith("swansim: error: argument command: invalid choice: ")
    # --help is not a refusal: the usage block on stdout and exit 0
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: swansim classify [-h] [--config CONFIG]")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_flag_lines_match_the_parser():
    documented = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        command, sep, flags = line.partition(": --")
        if sep and command in _COMMANDS:
            documented[command] = ("--" + flags).split()
    assert {command: ["--config", *flags] for command, flags in documented.items()} == declared_flags()


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_frequency_below_min_is_refused(capsys, command):
    # at these frequencies the closed forms' squares underflow to 0 (closed_series divides by omega^2)
    # and the exact flow takes its free-particle branch
    for omega0 in ("1e-300", "2e-151"):
        argv = [command, f"--omega0={omega0}", "--delta-max=0" if command == "sweep" else "--delta=0"]
        assert "below the smallest supported frequency 1e-150" in config_error(argv, capsys)


def test_small_frequency_validates(tmp_path: Path):
    out = tmp_path / "report.json"
    argv = ["validate", "--omega0=1e-149", "--delta=0", "--step=6.283185307179586e+146", f"--out={out}"]
    assert main(argv) == 0
    assert json.loads(out.read_text())["pass"] is True


def flag_text(value) -> str:
    """The text a flag takes for a JSON number, list of numbers or string."""
    if isinstance(value, list):
        return ",".join(map(flag_text, value))
    return repr(value) if isinstance(value, float) else str(value)


FLAG_FIELDS = [(command, name) for command, (_, _, names, _) in _COMMANDS.items() for name in names]
json_number = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(),
    st.sampled_from([0.0, -0.0, 3.0, 2.5, 10**400]),
)
# JSON values a flag can stand for: a number, a list of numbers, or text that reads as neither
flag_json_values = st.one_of(
    json_number,
    st.lists(json_number, min_size=2, max_size=4),
    st.text(alphabet="xyz,. _", max_size=6),
)


def config_outcome(argv: list[str]) -> str:
    try:
        return repr(parsed_config(argv))
    except cli.ConfigError as exc:
        return f"config error: {exc}"


@given(target=st.sampled_from(FLAG_FIELDS), value=flag_json_values)
@example(target=("classify", "resolution"), value=3.0)
@example(target=("classify", "resolution"), value=2.5)
@example(target=("classify", "resolution"), value="x")
@example(target=("simulate", "b0"), value=[-0.5, 1])
@example(target=("sweep", "g0"), value=[2, 0, 0.5])
@example(target=("sweep", "g0"), value=[1, 0])
@example(target=("validate", "out"), value=1.5)
@example(target=("simulate", "allow_divergence"), value=True)
@settings(max_examples=150, deadline=None)
def test_flag_and_config_file_give_the_same_config(tmp_path_factory, target, value):
    command, name = target
    flag = "--" + name.replace("_", "-")
    if FIELD_TYPES[name] == "bool":
        value, flag_argv = True, [command, flag]
    else:
        if FIELD_TYPES[name].startswith("str"):
            # a str field takes a flag's text as it is
            value = flag_text(value)
        flag_argv = [command, f"{flag}={flag_text(value)}"]
    path = tmp_path_factory.mktemp("same") / "cfg.json"
    path.write_text(json.dumps({name: value}))
    from_flag = config_outcome(flag_argv)
    assert from_flag == config_outcome([command, "--config", str(path)])
    assert "\n" not in from_flag


def expected_csv(params: SwansonParams, init: MetriplecticState, periods: float) -> bytes:
    """simulate's CSV built cell by cell from propagate's rows and a scalar metric_eigen per row."""
    traj = propagate(swanson_hamiltonian(params), init, periods * params.period, params.period / 10_000)
    lines = ["t,t_per_T,P,Q,g_pp,g_pq,g_qq,g_plus,g_minus,phi,n,divergent"]
    for t, row in zip(traj.times.tolist(), traj.values.tolist()):
        cells = [t, t / params.period, *row[:5], *metric_eigen(row[2], row[3], row[4]), row[5]]
        lines.append(",".join(f"{x:.17g}" for x in cells) + ",0")
    if traj.divergence_time is not None:
        t = traj.divergence_time
        lines.append(",".join(f"{x:.17g}" for x in [t, t / params.period] + [math.nan] * 9) + ",1")
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "omega0, delta, b0, exit_code",
    [(1.1, -0.55, None, 0), (0.9, 0.4, complex(0.2, 1.1), 0), (1.0, 1.1, None, 3)],
)
def test_simulate_csv_bytes(tmp_path: Path, omega0, delta, b0, exit_code):
    out = tmp_path / "run.csv"
    argv = ["simulate", f"--omega0={omega0}", f"--delta={delta}", "--p0=0.6", "--q0=-0.8", f"--out={out}"]
    if b0 is not None:
        argv.append(f"--b0={b0.real},{b0.imag}")
    assert main(argv) == exit_code
    g0 = Metric.identity() if b0 is None else metric_from_b(b0)
    init = MetriplecticState(Z=RealState(0.6, -0.8), G=g0, n=1.0)
    assert out.read_bytes() == expected_csv(SwansonParams(omega0, delta), init, 1.0)


def recorded_blocks(monkeypatch, module, name: str) -> list:
    """(k0, len(rows), stop) of each block the engine module.name yields from here on, as its caller takes them."""
    seen, engine = [], getattr(module, name)

    def recorded(*args):
        for k0, rows, stop, drift in engine(*args):
            seen.append((k0, len(rows), stop))
            yield k0, rows, stop, drift

    monkeypatch.setattr(module, name, recorded)
    return seen


def expected_blocks(n_rows: int, stop: int, block: int) -> list:
    """(k0, len(rows), stop) of each block of a run of n_rows rows in blocks of `block` rows, cut at stop >= 0.

    A run that stops ends in the block that holds its stop, cut just before it: empty if the stop
    falls on a block edge.
    """
    blocks = [(k0, min(block, n_rows - k0), -1) for k0 in range(0, n_rows if stop < 0 else stop + 1, block)]
    if stop >= 0:
        blocks[-1] = (blocks[-1][0], stop - blocks[-1][0], stop)
    return blocks


# simulate writes its CSV in the calling process
@pytest.mark.parametrize("delta, exit_code", [(-0.55, 0), (1.1, 3)])
def test_simulate_csv_bytes_in_blocks_of_1000(tmp_path: Path, monkeypatch, forks, delta, exit_code):
    # the divergent run stops after about 2 000 rows: blocks of 1 000 make two of them, and a third
    # that the stop cuts
    monkeypatch.setattr(propagator, "BLOCK_ROWS", 1000)
    seen = recorded_blocks(monkeypatch, cli, "_propagate_blocks")
    params = SwansonParams(1.0, delta)
    init = MetriplecticState(Z=RealState(0.6, -0.8), G=Metric.identity(), n=1.0)
    expected = expected_csv(params, init, 2.0)
    assert expected.count(b"\n") >= 2 * propagator.BLOCK_ROWS + 2
    out = tmp_path / "run.csv"
    assert main(["simulate", f"--delta={delta}", "--p0=0.6", "--q0=-0.8", "--periods=2", f"--out={out}"]) == exit_code
    assert out.read_bytes() == expected
    assert forks == []
    # 20 001 rows, or the sample rows up to the stop, header and flagged row aside
    stop = -1 if exit_code == 0 else expected.count(b"\n") - 2
    assert seen == expected_blocks(20_001, stop, 1000)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_simulate_csv_bytes_at_block_edges(tmp_path: Path, monkeypatch, forks, offset):
    # sample rows one short of, equal to and one past one block of propagator.BLOCK_ROWS, and of two
    init = MetriplecticState(Z=RealState(1.0, 0.0), G=Metric.identity(), n=1.0)
    out = tmp_path / "run.csv"
    seen = recorded_blocks(monkeypatch, cli, "_propagate_blocks")
    for blocks in (1, 2):
        seen.clear()
        rows = blocks * propagator.BLOCK_ROWS + offset
        periods = (rows - 1) / 10_000
        assert main(["simulate", "--delta=0.5", f"--periods={periods!r}", f"--out={out}"]) == 0
        expected = expected_csv(SwansonParams(1.0, 0.5), init, periods)
        assert expected.count(b"\n") == rows + 1
        assert out.read_bytes() == expected
        assert seen == expected_blocks(rows, -1, propagator.BLOCK_ROWS)
    assert forks == []


def test_simulate_divergence_row_follows_a_block_edge(tmp_path: Path, monkeypatch, forks):
    params = SwansonParams(1.0, 1.1)
    init = MetriplecticState(Z=RealState(1.0, 0.0), G=Metric.identity(), n=1.0)
    expected = expected_csv(params, init, 1.0)
    # header and flagged row aside, the sample rows fill whole blocks of this size, two of them:
    # the stop is the first row of a third block, which is empty
    stop = expected.count(b"\n") - 2
    monkeypatch.setattr(propagator, "BLOCK_ROWS", stop // 2)
    assert stop % propagator.BLOCK_ROWS == 0
    assert expected_csv(params, init, 1.0) == expected
    seen = recorded_blocks(monkeypatch, cli, "_propagate_blocks")
    out = tmp_path / "run.csv"
    assert main(["simulate", "--delta=1.1", f"--out={out}"]) == 3
    assert out.read_bytes() == expected
    assert forks == []
    assert seen == [(0, stop // 2, -1), (stop // 2, stop // 2, -1), (stop, 0, stop)]


@pytest.mark.parametrize("delta, exit_code", [(0.5, 0), (1.1, 3)])
def test_simulate_builds_its_table_one_pass_at_a_time(tmp_path: Path, monkeypatch, delta, exit_code):
    # sample_lines, as cli calls it, gets each block's rows one pass of _PASS_ROWS at a time: no
    # block-wide table is built.  Half a period is three engine blocks; the divergent run stops in its first
    from swansim._csvrows import _PASS_ROWS, sample_lines

    passes = []
    monkeypatch.setattr(cli, "sample_lines", lambda table: passes.append(len(table)) or sample_lines(table))
    params = SwansonParams(1.0, delta)
    init = MetriplecticState(Z=RealState(0.6, -0.8), G=Metric.identity(), n=1.0)
    expected = expected_csv(params, init, 0.5)
    stop = -1 if exit_code == 0 else expected.count(b"\n") - 2
    blocks = expected_blocks(5_001, stop, propagator.BLOCK_ROWS)
    out = tmp_path / "run.csv"
    assert main(["simulate", f"--delta={delta}", "--p0=0.6", "--q0=-0.8", "--periods=0.5", f"--out={out}"]) == exit_code
    assert out.read_bytes() == expected
    assert len(blocks) == (3 if exit_code == 0 else 1)
    assert passes == [min(_PASS_ROWS, rows - lo) for _, rows, _ in blocks for lo in range(0, rows, _PASS_ROWS)]


# the RK4 seed and step of the oracle block tests; at (1, 1.2) the RK4 run diverges.  T/357 makes
# the Riccati check's stride 3, so that a block of 100 starts off the stride
ORACLE_INIT = MetriplecticState(Z=RealState(0.6, -0.8), G=metric_from_b(0.8 + 1.5j), n=1.0)
ORACLE_STEPS = 357


def oracle_results(params: SwansonParams):
    """integrate's run from ORACLE_INIT and from validate's seed, the Riccati runs from 0.8 + 1.5i
    and from 0.3 + i delta/omega0 (or the error and bracket of a run that leaves the chart), and the
    validate report, at step T/ORACLE_STEPS."""
    model, step = swanson_hamiltonian(params), params.period / ORACLE_STEPS
    results = []
    for init in (ORACLE_INIT, cli._validation_seed()):
        traj = integrate(model, init, params.period, step)
        results.append((traj.values.tobytes(), traj.times.tobytes(), traj.divergence_time, traj.det_drift))
    # Im b0 = delta / omega0: the Möbius denominator of the second is real and vanishes before T
    for b0 in (0.8 + 1.5j, complex(0.3, params.delta / params.omega0)):
        try:
            results.append(riccati_direct(model, b0, params.period, step).tobytes())
        except MobiusPoleError as exc:
            results.append((str(exc), exc.bracket))
    results.append(cli._validation_report(params, step))
    return results


@pytest.mark.parametrize("delta, block", [(0.5, 1), (0.5, 3), (0.5, 100), (1.2, 1), (1.2, 3), (1.2, 100), (1.2, "stop")])
def test_oracle_results_at_block_edges(monkeypatch, delta, block):
    # the RK4 oracle runs in blocks (propagator.BLOCK_ROWS); blocks of 1, 3 or 100 rows, or as many as
    # validate's divergent RK4 run keeps, change no result.  The Riccati oracle is a stream of steps
    # with no block to resize; its strided samples are pinned by the tests after this one
    params = SwansonParams(1.0, delta)
    step = params.period / ORACLE_STEPS
    expected = oracle_results(params)
    divergence = expected[-1]["divergence"]
    stop = -1 if divergence is None else round(divergence["ode_time"] / step)
    if block == "stop":
        block = stop
    monkeypatch.setattr(propagator, "BLOCK_ROWS", block)
    assert oracle_results(params) == expected
    # the second Riccati run leaves the chart
    assert isinstance(expected[3], tuple) and expected[3][0] == "Riccati solution left the chart"
    # validate's RK4 run: on the divergent model it ends in a block cut at its stop, empty where the
    # stop falls on a block edge (blocks of 1 and of stop)
    blocks = [(k0, len(rows), k) for k0, rows, k, _ in cli._rk4_oracle(params, step)]
    assert blocks == expected_blocks(ORACLE_STEPS + 1, stop, block)


@pytest.mark.parametrize("block", [1, 3, 100])
def test_one_block_size_serves_both_engines(monkeypatch, block):
    # propagator.BLOCK_ROWS, read when a run starts, sizes the blocks of the exact engine and of the
    # RK4 oracle alike: no module keeps a copy of it
    monkeypatch.setattr(propagator, "BLOCK_ROWS", block)
    params = SwansonParams(1.0, 0.5)
    model, step = swanson_hamiltonian(params), params.period / ORACLE_STEPS
    runs = [engine(model, ORACLE_INIT, params.period, step) for engine in (_propagate_blocks, _integrate_blocks)]
    exact, rk4 = ([(k0, len(rows), stop) for k0, rows, stop, _ in blocks] for blocks in runs)
    assert exact == rk4 == expected_blocks(ORACLE_STEPS + 1, -1, block)


def whole_run_b_error(params: SwansonParams, step: float) -> float:
    """_mobius_vs_riccati's result from whole Riccati runs: the largest |evolve_b - riccati_direct|
    over its four seeds, on every stride-th step."""
    model, n_steps = swanson_hamiltonian(params), step_count(params.period, step)
    stride = max(1, n_steps // 100)
    worst = 0.0
    for b0 in (params.ground_b, 1j, 0.8 + 1.5j, -0.6 + 2j):
        ref = riccati_direct(model, b0, params.period, step)[::stride]
        mob = np.array([evolve_b(model, b0, k * step) for k in range(0, n_steps + 1, stride)])
        worst = max(worst, float(np.abs(mob - ref).max()))
    return worst


# T/357 has stride 3 and ends on a strided step; T/1001 has stride 10 and one step after the last
@pytest.mark.parametrize("steps", [357, 1001])
@pytest.mark.parametrize("delta", [0.5, -0.99])
def test_mobius_vs_riccati_matches_whole_runs(delta, steps):
    params = SwansonParams(1.0, delta)
    step = params.period / steps
    assert cli._mobius_vs_riccati(params, step) == whole_run_b_error(params, step)


def test_mobius_vs_riccati_is_none_off_the_chart():
    params = SwansonParams(1.0, 0.9999)
    assert cli._mobius_vs_riccati(params, params.period / 10_000) is None


def test_strided_riccati_samples_consume_the_whole_run(monkeypatch):
    # from 0.3 + i delta/omega0 at delta = 1.2 the run leaves the chart at step k = 101; with stride
    # k - 1 the last strided sample is step k - 1, and the step after it still raises
    params, k = SwansonParams(1.0, 1.2), 101
    model, step, b0 = swanson_hamiltonian(params), params.period / 357, complex(0.3, 1.2)
    assert len(np.fromiter(_riccati_steps(model, b0, (k - 1) * step, step), complex)) == k
    with pytest.raises(MobiusPoleError) as info:
        np.fromiter(itertools.islice(_riccati_steps(model, b0, k * step, step), 0, None, k - 1), complex)
    assert info.value.bracket == ((k - 2) * step, k * step)

    # so does validate's check: a stream that leaves the chart only after its last strided step
    def late_exit(*args):
        yield from _riccati_steps(*args)
        raise MobiusPoleError("Riccati solution left the chart")

    monkeypatch.setattr(cli, "_riccati_steps", late_exit)
    params = SwansonParams(1.0, 0.5)
    assert cli._mobius_vs_riccati(params, params.period / 1001) is None


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device every write to fails")
def test_failed_simulate_write_is_one_config_error(capsys, forks):
    # every write to /dev/full fails: one config error line, and simulate forks no child
    err = config_error(["simulate", "--periods=2", "--out=/dev/full"], capsys)
    assert err.startswith("config error: cannot write output file /dev/full: ")
    assert forks == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_CHILD_SUBREAPER is Linux's")
def test_closed_stdout_leaves_no_child():
    # a reader that stops after 20 bytes of a two-period run; the reader adopts every process
    # the run leaves (PR_SET_CHILD_SUBREAPER), so it finds one to wait for only if simulate
    # left a process behind
    script = """if True:
        import ctypes, json, os, subprocess, sys
        assert ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) == 0
        proc = subprocess.Popen([sys.executable, "-m", "swansim", "simulate", "--periods=2", *sys.argv[1:]],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(20)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
        try:
            left = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            left = None
        print(json.dumps([head.decode(), code, err.decode(), left]))
    """
    # a divergent run still exits 3 with its one line: the blocks the reader did not take are
    # computed all the same, before the stop in the first block (2 024 rows) and after it (8 555)
    for argv, code, err in [
        ([], 0, ""),
        (["--delta=1.1"], 3, "divergence detected at t = 0.855449\n"),
        (["--delta=1.1", "--step=0.0001"], 3, "divergence detected at t = 0.8555\n"),
    ]:
        cp = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120)
        assert cp.returncode == 0, cp.stderr
        assert json.loads(cp.stdout) == [CSV_HEADER[:20], code, err, None]


# a `python -m swansim` process that reports, at exit, how many engine blocks it evaluated after
# its write met a closed pipe
DRAIN_COUNTER = """if True:
    import atexit, runpy, sys
    from swansim import cli, propagator
    sampled, write = propagator._sampled_rows, cli._write_chunks
    blocks, left = [0], []

    def counted(*args):
        blocks[0] += 1
        return sampled(*args)

    def written(*args):
        left.append(write(*args))
        left.append(blocks[0])
        return left[0]

    propagator._sampled_rows, cli._write_chunks = counted, written
    # whether the reader left, and the blocks evaluated since
    atexit.register(lambda: print(left[0], blocks[0] - left[1], file=sys.stderr))
    sys.argv = ["swansim", *sys.argv[1:]]
    runpy.run_module("swansim", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv, code, err, drained", [
    # proved bounded by the closed forms: no block the reader did not take is evaluated
    (["--periods=2"], 0, "", 0),
    # not proved: the stop at row 8 555 is in the fifth block, and the write reached the first
    (["--delta=1.1", "--step=0.0001"], 3, "divergence detected at t = 0.8555\n", 4),
], ids=["bounded", "supercritical"])
def test_a_reader_that_leaves_drains_only_unproved_runs(argv, code, err, drained):
    with subprocess.Popen([sys.executable, "-c", DRAIN_COUNTER, "simulate", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(20)
        proc.stdout.close()
        assert proc.wait(timeout=60) == code
        lines = proc.stderr.read().decode()
    assert head.decode() == CSV_HEADER[:20]
    assert lines == err + f"True {drained}\n"


def test_sweep_work_does_not_grow_with_bounded_periods(tmp_path: Path, monkeypatch):
    # the couplings 0.5 .. 0.9 are bounded and 1.1, 1.2 divergent (identity seed); a bounded coupling
    # is proved without a row and evaluates only its 200 or so sampled rows, whatever its length,
    # while a divergent one scans, block by block, up to its stop
    scanned, resampled = [], []
    monkeypatch.setattr(propagator, "_sampled_rows", lambda *args: scanned.append(len(args[2])) or _sampled_rows(*args))
    monkeypatch.setattr(cli, "_sampled_rows", lambda *args: resampled.append(len(args[2])) or _sampled_rows(*args))
    out = tmp_path / "sweep.csv"
    work = {}
    for periods in (2, 50):
        for name, lo, hi in (("bounded", 0.5, 0.95), ("divergent", 1.1, 1.25)):
            scanned.clear()
            resampled.clear()
            argv = [f"--delta-min={lo}", f"--delta-max={hi}", "--delta-step=0.1", f"--periods={periods}"]
            assert main(["sweep", *argv, f"--out={out}"]) == 0
            _, rows = read_csv(out)
            work[name, periods] = (list(scanned), len(resampled))
            if name == "divergent":
                # each run scans the blocks up to the one that holds its stop, which the first
                # period holds whatever the length
                stops = [round(float(cells[3]) / (SwansonParams(1.0, float(cells[0])).period / 10_000)) for cells in rows]
                blocks = [min(-(-(stop + 1) // propagator.BLOCK_ROWS), 2) for stop in stops]
                assert len(scanned) == sum(blocks)
    assert work["bounded", 2] == work["bounded", 50] == ([], 5)
    assert work["divergent", 2] == work["divergent", 50]


def test_only_sweep_compiles_the_stop_proof(tmp_path: Path):
    # a simulate that writes to a file, classify and validate never import _stops; sweep does
    code = """if True:
        import sys
        from swansim.cli import main
        seen = []
        for argv in (["simulate", "--periods=0.5"], ["classify", "--resolution=5"], ["validate", "--step=0.002"],
                     ["sweep", "--delta-max=0.2"]):
            assert main([*argv, "--out=" + sys.argv[1]]) == 0
            seen.append("swansim._stops" in sys.modules)
        print(seen)
    """
    cp = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "[False, False, False, True]"


def test_no_command_imports_dataclasses_and_simulate_and_sweep_skip_json(tmp_path: Path):
    # json is imported by the commands that read a config file or write JSON, dataclasses by none
    code = """if True:
        import sys
        from swansim.cli import main
        seen = []
        for argv in (["simulate", "--periods=0.5"], ["sweep", "--delta-max=0.2"], ["classify", "--resolution=5"],
                     ["validate", "--step=0.002"]):
            assert main([*argv, "--out=" + sys.argv[1]]) == 0
            seen.append(("json" in sys.modules, "dataclasses" in sys.modules))
        print(seen)
    """
    cp = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "[(False, False), (False, False), (True, False), (True, False)]"


# the modules cli binds per command, and the standard module only the flow S(t) uses
CMATH, CLOSED_FORM, PROPAGATOR, GAUSSIAN, ODE, GEOMETRY, CSVROWS = MODULES = [
    "cmath", "swansim.closed_form", "swansim.propagator", "swansim.gaussian", "swansim.ode", "swansim.geometry",
    "swansim._csvrows"]


@pytest.mark.parametrize("command, loaded", [
    (["classify", "--resolution=5"], [GEOMETRY]),
    (["simulate", "--periods=0.5"], [CMATH, CLOSED_FORM, PROPAGATOR, CSVROWS]),
    (["sweep", "--delta-max=0.2"], [CMATH, CLOSED_FORM, PROPAGATOR, GEOMETRY]),
    (["validate", "--step=0.002"], [CMATH, CLOSED_FORM, PROPAGATOR, GAUSSIAN, ODE]),
], ids=["classify", "simulate", "sweep", "validate"])
def test_only_classify_skips_the_engine(tmp_path: Path, command, loaded):
    # in a fresh interpreter for each command: importing cli loads none of these modules, and the
    # command loads only its own, every one of them when its modules are bound (as the process
    # entry binds them, before its freeze). classify runs geometry's margins alone, simulate and
    # sweep the exact propagator and never its oracles, only classify and sweep label with
    # geometry, and only simulate writes a CSV
    code = f"""if True:
        import sys
        seen = []
        from swansim import cli
        seen.append([m for m in {MODULES!r} if m in sys.modules])
        cli._bind(cli._COMMANDS[sys.argv[2]][3])
        seen.append([m for m in {MODULES!r} if m in sys.modules])
        assert cli.main([*sys.argv[2:], "--out=" + sys.argv[1]]) == 0
        seen.append([m for m in {MODULES!r} if m in sys.modules])
        print(seen)
    """
    cp = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out"), *command], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == str([[], loaded, loaded])


def test_commands_call_the_functions_rebound_on_cli(tmp_path: Path):
    # a name assigned on cli before main binds its module is kept, as perfbench/tracing.py and
    # monkeypatch assign them: in a fresh interpreter, where nothing has read or bound the names yet
    code = """if True:
        import sys
        from swansim import cli, closed_form, gaussian, propagator
        calls = []
        cli.metric_eigen = lambda *args: calls.append("metric_eigen") or closed_form.metric_eigen(*args)
        assert cli.main(["simulate", "--periods=0.01", "--out=" + sys.argv[1]]) == 0
        cli.evolve_b = lambda *args: calls.append("evolve_b") or gaussian.evolve_b(*args)
        assert cli.main(["validate", "--step=0.002", "--out=" + sys.argv[1]]) == 0
        print(sorted(set(calls)), cli.step_count is propagator.step_count)
    """
    cp = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "['evolve_b', 'metric_eigen'] True"


def test_unknown_names_of_cli_are_attribute_errors():
    assert not hasattr(cli, "no_such_name")
    with pytest.raises(AttributeError, match="'swansim.cli' has no attribute 'no_such_name'"):
        cli.no_such_name


@pytest.mark.parametrize(
    "argv, first_row",
    [
        (["--delta=0.5"], "0,0,1,0,1,0,1,1,1,0,1,0"),
        # g_pq = +0 with g_pp < g_qq puts the larger eigenvalue on the q axis: phi = +pi/2
        (["--delta=0.5", "--b0=0,2"], "0,0,1,0,0.5,0,2,2,0.5,1.5707963267948966,1,0"),
    ],
)
def test_simulate_first_row_has_no_negative_zero(tmp_path: Path, argv, first_row):
    out = tmp_path / "run.csv"
    assert main(["simulate", *argv, f"--out={out}"]) == 0
    assert out.read_text().splitlines()[1] == first_row


def test_sweep_max_g_plus_is_the_largest_sampled_eigenvalue(tmp_path: Path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--delta-min=0.3", "--delta-max=1.15", "--delta-step=0.4", "--p0=0.6", "--q0=0.8", f"--out={out}"]
    assert main(argv) == 0
    _, rows = read_csv(out)
    assert len(rows) == 3
    init = MetriplecticState(Z=RealState(0.6, 0.8), G=Metric.identity(), n=1.0)
    for k, cells in enumerate(rows):
        params = SwansonParams(1.0, 0.3 + k * 0.4)
        traj = propagate(swanson_hamiltonian(params), init, params.period, params.period / 10_000)
        sample = traj.values[:: max(1, len(traj.values) // 200)].tolist()
        assert cells[4] == f"{max(metric_eigen(r[2], r[3], r[4])[0] for r in sample):.17g}"


def _stub_entry(monkeypatch, calls, argv=("swansim",)):
    """Run the process entry on argv, recording its collector calls, the engine modules it binds on
    cli and cli.main, so that pytest's own heap and cli's names stay as they are."""
    for name in ("disable", "freeze", "enable"):
        monkeypatch.setattr(gc, name, lambda name=name: calls.append(name))
    monkeypatch.setattr(cli, "_bind", lambda modules: calls.append(("bind", modules)))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 7)
    monkeypatch.setattr(sys, "argv", list(argv))
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)


def test_installed_command_runs_what_python_m_runs(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["swansim"]
    assert target == "swansim.__main__:main"
    module, _, name = target.partition(":")
    # the named command's modules are bound while the collector is off, before the freeze
    for argv, binds in (
        (["swansim", "sweep", "--periods=2"], [("bind", ("closed_form", "propagator", "geometry"))]),
        (["swansim", "validate"], [("bind", ("closed_form", "propagator", "gaussian", "ode"))]),
        (["swansim", "simulate"], [("bind", ("closed_form", "propagator", "_csvrows"))]),
        (["swansim", "classify"], [("bind", ("geometry",))]),
        (["swansim", "--help"], []),
        (["swansim", "bogus"], []),
        (["swansim"], []),
    ):
        installed, python_m = [], []
        _stub_entry(monkeypatch, installed, argv)
        assert getattr(importlib.import_module(module), name)() == 7
        _stub_entry(monkeypatch, python_m, argv)
        # runpy warns when the module it runs as __main__ is already imported
        monkeypatch.delitem(sys.modules, "swansim.__main__")
        with pytest.raises(SystemExit) as stop:
            runpy.run_module("swansim", run_name="__main__")
        assert stop.value.code == 7
        assert installed == python_m == ["disable", *binds, "freeze", "enable", "main"], argv


def test_entry_freezes_the_heap_then_runs_main(monkeypatch):
    calls = []
    _stub_entry(monkeypatch, calls)
    assert swansim_main.main() == 7
    assert calls == ["disable", "freeze", "enable", "main"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_entry_keeps_a_preset_blas_thread_count(monkeypatch):
    _stub_entry(monkeypatch, [])
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert swansim_main.main() == 7
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_entry_enables_the_collector_when_the_cli_import_fails(monkeypatch):
    calls = []
    _stub_entry(monkeypatch, calls)
    # `from . import cli` imports swansim.cli again, and a None entry in sys.modules makes that fail
    monkeypatch.delattr(swansim, "cli")
    monkeypatch.setitem(sys.modules, "swansim.cli", None)
    with pytest.raises(ImportError):
        swansim_main.main()
    assert calls == ["disable", "enable"]


# reports the process entry's state when a `python -m swansim` process exits
ENTRY_REPORTER = """
import atexit, gc, json, os, runpy, sys
atexit.register(lambda: print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"),
    len(os.listdir("/proc/self/task")), gc.isenabled(), gc.get_freeze_count()]), file=sys.stderr))
sys.argv = ["swansim", "classify", "--resolution=11"]
runpy.run_module("swansim", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_process_runs_one_blas_thread_unless_preset(preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    cp = subprocess.run([sys.executable, "-c", ENTRY_REPORTER], capture_output=True, text=True, env=env, timeout=120)
    assert cp.returncode == 0, cp.stderr
    threads, tasks, enabled, frozen = json.loads(cp.stderr.splitlines()[-1])
    assert (threads, enabled) == (preset or "1", True)
    assert frozen > 0
    if preset is None:
        # OpenBLAS would start one more thread per further CPU
        assert tasks == 1


# reports, when a `python -m swansim` process exits, which of the modules cli binds it imported
ENGINE_REPORTER = f"""
import atexit, runpy, sys
atexit.register(lambda: print([m for m in {MODULES!r} if m in sys.modules], file=sys.stderr))
sys.argv = ["swansim", *sys.argv[1:]]
runpy.run_module("swansim", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv, exit_code, loaded",
                         [(["--help"], 0, []), (["bogus"], 2, []), (["classify", "--resolution=11"], 0, [GEOMETRY])],
                         ids=["help", "unknown", "classify"])
def test_process_entry_imports_no_engine_for_help_unknown_or_classify(argv, exit_code, loaded):
    cp = subprocess.run([sys.executable, "-c", ENGINE_REPORTER, *argv], capture_output=True, text=True, timeout=120)
    assert cp.returncode == exit_code, cp.stderr
    assert cp.stderr.splitlines()[-1] == str(loaded)


# reports, when a `python -m swansim` process exits, the swansim modules it imported
SWANSIM_REPORTER = """
import atexit, runpy, sys
atexit.register(lambda: print(sorted(m for m in sys.modules if m.partition(".")[0] == "swansim")))
sys.argv = ["swansim", *sys.argv[1:]]
runpy.run_module("swansim", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv", [["simulate", "--periods=0.5"], ["classify", "--resolution=5"],
                                  ["validate", "--step=0.002"], ["sweep", "--delta-max=0.2"]], ids=lambda a: a[0])
def test_importtime_lists_every_swansim_module_a_command_loads(tmp_path: Path, argv):
    # a module imported by a statement or __import__ passes -X importtime's hook; one imported by
    # importlib.import_module does not
    argv = [sys.executable, "-X", "importtime", "-c", SWANSIM_REPORTER, *argv, f"--out={tmp_path / 'out'}"]
    cp = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert cp.returncode == 0, cp.stderr
    names = (line.rpartition("|")[2].strip() for line in cp.stderr.splitlines() if line.startswith("import time:"))
    assert str(sorted(name for name in names if name.partition(".")[0] == "swansim")) == cp.stdout.strip()


# (argv, exit code) of a process per subcommand: simulate over two periods writes five blocks
# of rows, a supercritical simulate exits 3, default validate runs every check below the pole
PROCESS_RUNS = [
    (["simulate", "--periods=2"], 0),
    (["simulate", "--delta=1.2"], 3),
    (["validate"], 0),
    (["classify", "--delta=-0.5"], 0),
    (["sweep"], 0),
]


@pytest.mark.parametrize("argv, exit_code", PROCESS_RUNS, ids=[" ".join(argv) for argv, _ in PROCESS_RUNS])
def test_process_entry_matches_main_under_dev_mode(capsysbinary, argv, exit_code):
    # -X dev -W error: the process entry and its exit add no warning and no byte to what main writes
    frozen = gc.get_freeze_count()
    assert main(argv) == exit_code
    # main never freezes, so a test or a tracer calling it keeps full collection
    assert gc.get_freeze_count() == frozen
    expected = capsysbinary.readouterr()
    cp = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "swansim", *argv],
                        capture_output=True, timeout=120)
    assert cp.returncode == exit_code, cp.stderr
    assert cp.stderr == expected.err
    assert cp.stdout == expected.out
    assert expected.err.count(b"\n") == (exit_code != 0)
