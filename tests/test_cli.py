import argparse
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from swansim import (
    Metric,
    MetriplecticState,
    RealState,
    RegionLabel,
    SwansimError,
    SwansonParams,
    metric_eigen,
    metric_from_b,
    propagate,
    region_grid,
    swanson_hamiltonian,
)
from swansim import cli
from swansim.cli import _COMMANDS, CSV_HEADER, _build_parser, _label_chunks, main

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
    code = "import sys, swansim; print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numba')))"
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


# the Hermitian model, one bounded model per sign, the near-critical failure at both signs,
# and a model with a pole, which starts no child
FORK_DELTAS = ("0", "0.5", "-0.5", "0.96", "-0.99", "1.2")


def test_validate_bytes_match_without_fork(tmp_path: Path, monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    results = {}
    for label in ("fork", "sequential"):
        if label == "fork":
            monkeypatch.setattr(os, "fork", counted_fork)
        else:
            monkeypatch.delattr(os, "fork")
        for delta in FORK_DELTAS:
            out = tmp_path / f"{label}{delta}.json"
            results[label, delta] = main(["validate", f"--delta={delta}", f"--out={out}"]), out.read_bytes()
    assert len(forks) == len(FORK_DELTAS) - 1
    for delta in FORK_DELTAS:
        assert results["fork", delta] == results["sequential", delta]
    assert [results["fork", d][0] for d in FORK_DELTAS] == [0, 0, 0, 4, 4, 0]


def test_child_check_error_matches_the_sequential_run(capfd, monkeypatch):
    # a check of the child raises: the child fails, and the process runs its checks again
    def mapped_fails(params):
        raise SwansimError("mapped check failed")

    monkeypatch.setattr(cli, "_mapped_vs_direct", mapped_fails)
    lines = []
    for sequential in (False, True):
        if sequential:
            monkeypatch.delattr(os, "fork")
        assert main(["validate"]) == 2
        out, err = capfd.readouterr()
        assert out == ""
        lines.append(err)
    assert lines == ["error: mapped check failed\n"] * 2


@pytest.mark.parametrize("argv", [["--delta=0.9999"], ["--delta=0.999", "--step=0.05"]])
def test_validate_reports_an_oracle_off_the_chart(tmp_path: Path, capfd, monkeypatch, argv):
    # the Riccati RK4 oracle leaves the chart at these steps, where the Möbius route finds no
    # pole: the oracle is at fault, so validate ends with a failed report, not an error
    reports = []
    for sequential in (False, True):
        if sequential:
            monkeypatch.delattr(os, "fork")
        out = tmp_path / f"report{sequential}.json"
        assert main(["validate", *argv, f"--out={out}"]) == 4
        assert capfd.readouterr() == ("", "")
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]

    def refuse(token):
        raise AssertionError(f"{token} in the report")

    doc = json.loads(reports[0], parse_constant=refuse)
    assert doc["pass"] is False
    assert doc["max_errors"]["B"] is None
    assert [f for f in doc["failures"] if "Riccati" in f] == ["B not checked: the Riccati RK4 oracle left the chart"]


def test_parent_check_error_reaps_the_child(capsys, monkeypatch):
    parent, real = os.getpid(), cli._validation_errors

    def parent_fails(params, step):
        # the child's convergence order calls this too, and gets the real errors
        if os.getpid() == parent:
            raise SwansimError("parent check failed")
        return real(params, step)

    monkeypatch.setattr(cli, "_validation_errors", parent_fails)
    assert main(["validate"]) == 2
    assert capsys.readouterr() == ("", "error: parent check failed\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_validate_stdout_holds_the_report_once(tmp_path: Path, capfd, monkeypatch):
    # a block-buffered stdout with text pending when the child starts: a child that
    # flushed what it inherited would write that text a second time
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
    # fd-level capture, so a line the child wrote would show
    for argv, code in ((["--delta=0.5"], 0), (["--delta=-0.99"], 4), (["--delta=0.999", "--step=0.05"], 4)):
        assert main(["validate", *argv]) == code
        assert capfd.readouterr().err.count("\n") == (code == 2)


def test_validate_overflow_prints_no_warning(capfd, monkeypatch):
    # closed_series overflows exp at this coupling, in the parent's check and in the child's
    # convergence order, where inf is the value meant; shown on fd 2 as a process shows it,
    # a warning either process printed would show
    def show(message, category, filename, lineno, file=None, line=None):
        os.write(2, warnings.formatwarning(message, category, filename, lineno, line).encode())

    for sequential in (False, True):
        if sequential:
            monkeypatch.delattr(os, "fork")
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
    # at delta = 1 this metric's conserved plane is vertical (omega0 + delta*x = 0): a hyperbola
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--g0=2.414213562373095,0,0.41421356237309503", "--delta-min=0.9", "--delta-max=1.0", f"--out={out}"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(out)
    assert len(rows) == 2 and rows[1][:3] == ["1", "divergent", "1"]


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
    command = next(command for command, (_, _, names) in _COMMANDS.items() if key in names)
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


# runs of equal codes, some longer than the chunk cap
code_runs = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2 * cli._LABEL_RUN_CAP + 3)), min_size=1, max_size=4)


@given(codes=st.one_of(st.lists(st.integers(0, 2), min_size=1, max_size=200), code_runs.map(label_runs)))
@example(codes=[0, 1, 2] * 7)
@example(codes=[2])
@example(codes=label_runs([(1, 1), (0, 3 * cli._LABEL_RUN_CAP + 1), (2, cli._LABEL_RUN_CAP)]))
@example(codes=np.array([[1, 1], [0, 2]], dtype=np.int8))
@settings(max_examples=60, deadline=None)
def test_label_chunks_match_json_dumps(codes):
    codes = np.asarray(codes, dtype=np.int8)
    chunks = list(_label_chunks(codes))
    expected = json.dumps({"labels": [LABEL_VALUES[code] for code in codes.ravel()]}, indent=2)
    assert '{\n  "labels": ' + "".join(chunks) + "\n}" == expected
    # no chunk grows with the grid: at most _LABEL_RUN_CAP labels each
    assert max(map(len, chunks)) <= cli._LABEL_RUN_CAP * len(',\n    "divergent"')


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


UNWRITABLE_ARGV = {
    "simulate": ["simulate", "--periods=0.01"],
    "classify": ["classify", "--resolution=3"],
    "validate": ["validate", "--step=0.1"],
    "sweep": ["sweep", "--delta-max=0.2"],
}


# what each subcommand computes; --out is checked before any of it runs
COMPUTE = ("propagate", "region_grid", "integrate", "first_pole_time", "classify_metric")


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
FIELD_TYPES = {field.name: field.type for field in dataclasses.fields(cli.RunConfig)}


def test_negative_values_are_not_option_names():
    # argparse alone reads only -N and -N.N as numbers and takes -5e-1 for an option name
    checked = set()
    for command, (_, _, names) in _COMMANDS.items():
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
             for command, (_, _, names) in _COMMANDS.items()}
    assert declared_flags() == table
    # every flag but --config sets the RunConfig field of its name
    assert {name for _, _, names in _COMMANDS.values() for name in names} <= set(FIELD_TYPES)
    assert sum(map(len, declared_flags().values())) == 38


def test_config_keys_follow_the_command_table(tmp_path: Path, capsys):
    # a file holding one RunConfig field at its default: read exactly when the subcommand declares it
    read = 0
    for command, (_, _, names) in _COMMANDS.items():
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
    # at these frequencies the closed forms' squares underflow to 0 (first_pole_time divides by one)
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


FLAG_FIELDS = [(command, name) for command, (_, _, names) in _COMMANDS.items() for name in names]
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


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes that called os.fork, counted from here on."""
    pids, fork = [], os.fork

    def counted_fork():
        pids.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


def no_memfd(monkeypatch):
    monkeypatch.delattr(os, "memfd_create")


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def failing_child(monkeypatch):
    parent, blocks = os.getpid(), cli._csv_blocks

    def fail_in_child(table):
        if os.getpid() != parent:
            raise RuntimeError("child failed")
        return blocks(table)

    monkeypatch.setattr(cli, "_csv_blocks", fail_in_child)


# each way simulate's CSV may be formatted: the forked child, and the in-process fallback
# without os.fork, without os.memfd_create, on one CPU and after a failed child; -> forks made
CSV_ROUTES = {
    "forked": (lambda monkeypatch: None, 1),
    "no_fork": (no_fork, 0),
    "no_memfd": (no_memfd, 0),
    "one_cpu": (one_cpu, 0),
    "failing_child": (failing_child, 1),
}


@pytest.mark.parametrize("route", sorted(CSV_ROUTES))
@pytest.mark.parametrize("delta, exit_code", [(-0.55, 0), (1.1, 3)])
def test_simulate_csv_bytes_on_every_route(tmp_path: Path, monkeypatch, forks, route, delta, exit_code):
    setup, fork_count = CSV_ROUTES[route]
    setup(monkeypatch)
    # the divergent run stops after about 2 000 rows: blocks of 1 000 give the child a half
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 1000)
    params = SwansonParams(1.0, delta)
    init = MetriplecticState(Z=RealState(0.6, -0.8), G=Metric.identity(), n=1.0)
    expected = expected_csv(params, init, 2.0)
    assert expected.count(b"\n") >= 2 * cli._CSV_BLOCK_ROWS + 2
    out = tmp_path / "run.csv"
    assert main(["simulate", f"--delta={delta}", "--p0=0.6", "--q0=-0.8", "--periods=2", f"--out={out}"]) == exit_code
    assert out.read_bytes() == expected
    assert len(forks) == fork_count
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_simulate_csv_bytes_in_parts(tmp_path: Path, monkeypatch, forks):
    # one child per part of 2 * _SPILL_ROWS rows, so the text waiting in memory does not grow
    # with the run: 20 001 rows are four parts of 5 000 and one row, formatted in-process
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 1000)
    monkeypatch.setattr(cli, "_SPILL_ROWS", 2500)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--delta=0.5", "--periods=2", f"--out={out}"]) == 0
    init = MetriplecticState(Z=RealState(1.0, 0.0), G=Metric.identity(), n=1.0)
    expected = expected_csv(SwansonParams(1.0, 0.5), init, 2.0)
    assert expected.count(b"\n") == 20_002
    assert out.read_bytes() == expected
    assert len(forks) == 4


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_simulate_csv_bytes_at_block_edges(tmp_path: Path, forks, offset):
    # sample rows one short of, equal to and one past one block of cli._CSV_BLOCK_ROWS, and of
    # two, the fewest a forked child formats half of
    init = MetriplecticState(Z=RealState(1.0, 0.0), G=Metric.identity(), n=1.0)
    out = tmp_path / "run.csv"
    for blocks in (1, 2):
        rows = blocks * cli._CSV_BLOCK_ROWS + offset
        periods = (rows - 1) / 10_000
        assert main(["simulate", "--delta=0.5", f"--periods={periods!r}", f"--out={out}"]) == 0
        expected = expected_csv(SwansonParams(1.0, 0.5), init, periods)
        assert expected.count(b"\n") == rows + 1
        assert out.read_bytes() == expected
    assert len(forks) == (offset >= 0)


def test_simulate_divergence_row_follows_a_block_edge(tmp_path: Path, monkeypatch, forks):
    params = SwansonParams(1.0, 1.1)
    init = MetriplecticState(Z=RealState(1.0, 0.0), G=Metric.identity(), n=1.0)
    expected = expected_csv(params, init, 1.0)
    # header and flagged row aside, the sample rows fill whole blocks of this size, two of them
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", (expected.count(b"\n") - 2) // 2)
    assert (expected.count(b"\n") - 2) % cli._CSV_BLOCK_ROWS == 0
    out = tmp_path / "run.csv"
    for route in ("forked", "no_fork"):
        CSV_ROUTES[route][0](monkeypatch)
        assert main(["simulate", "--delta=1.1", f"--out={out}"]) == 3
        assert out.read_bytes() == expected
    assert len(forks) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device every write to fails")
def test_failed_simulate_write_reaps_the_child(capsys, forks):
    err = config_error(["simulate", "--periods=2", "--out=/dev/full"], capsys)
    assert err.startswith("config error: cannot write output file /dev/full: ")
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_CHILD_SUBREAPER is Linux's")
def test_closed_stdout_leaves_no_child():
    # a reader that stops after 20 bytes while the forked child formats the later rows; the
    # reader adopts every process the run leaves (PR_SET_CHILD_SUBREAPER), so it finds one to
    # wait for only if simulate ended without reaping its child
    script = """if True:
        import ctypes, json, os, subprocess, sys
        assert ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) == 0
        proc = subprocess.Popen([sys.executable, "-m", "swansim", "simulate", "--periods=2"],
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
    cp = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout) == [CSV_HEADER[:20], 0, "", None]


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
