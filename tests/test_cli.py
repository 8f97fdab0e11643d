import argparse
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swansim import (
    Metric,
    MetriplecticState,
    RealState,
    RegionLabel,
    SwansonParams,
    metric_eigen,
    metric_from_b,
    propagate,
    region_grid,
    swanson_hamiltonian,
)
from swansim import cli
from swansim.cli import _build_parser, _label_chunks, _parse_complex_pair, _parse_triple, main

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
            assert "invalid initial centre" in config_error([*argv, "--p0", "nan"], capsys)
        # a period of 6e-300: omega^2 overflows, which once gave numpy warnings and a NaN error or a fake divergence
        for command in ("validate", "simulate"):
            err = config_error([command, "--omega0", "1e300"], capsys)
            assert err.startswith("config error: omega0 1e+300") and "period of 6.28e-300" in err
        # b0 whose metric overflows (g_qq) or divides by a subnormal Im b (g_pp)
        for b0 in ("1e300,1", "0,1e-320"):
            err = config_error(["simulate", "--b0", b0], capsys)
            assert err == "config error: invalid initial metric: metric entries must be finite\n"


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
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(values))
    assert message in config_error(["classify", "--config", str(cfg)], capsys)


def test_config_file_coerces_to_field_types(tmp_path: Path):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"resolution": 3.0, "delta": 0, "b0": None, "g0": [1, 0, 1]}))
    out = tmp_path / "grid.json"
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["resolution"] == 3 and len(doc["labels"]) == 9


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


UNWRITABLE_ARGV = {
    "simulate": ["simulate", "--periods=0.01"],
    "classify": ["classify", "--resolution=3"],
    "validate": ["validate", "--step=0.1"],
    "sweep": ["sweep", "--delta-max=0.2"],
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE_ARGV))
def test_unwritable_out_is_a_config_error(tmp_path: Path, capsys, command):
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        err = config_error([*UNWRITABLE_ARGV[command], f"--out={path}"], capsys)
        assert err.startswith(f"config error: cannot write output file {path}: ")
    assert not (tmp_path / "missing").exists()


def test_closed_stdout_ends_quietly():
    # a reader that stops after 20 bytes, as `| head` does: the output is cut, with no traceback
    proc = subprocess.Popen([sys.executable, "-m", "swansim", "classify", "--resolution=801"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
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
    for argv in (["classify", "--resolution=3"], ["sweep", "--delta-max=0.2"]):
        assert "band must be finite and positive" in config_error([*argv, "--config", str(cfg)], capsys)


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


# a negative value with an exponent or a leading point, for each kind of numeric flag
NEGATIVE_VALUES = {
    float: ("-5e-1", -0.5),
    _parse_triple: ("-5e-1,-.5,-1e0", (-0.5, -0.5, -1.0)),
    _parse_complex_pair: ("-.5e0,-2e-1", complex(-0.5, -0.2)),
}


def test_negative_values_are_not_option_names():
    # argparse alone reads only -N and -N.N as numbers and takes -5e-1 for an option name
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    checked = set()
    for command, subparser in subparsers.choices.items():
        for action in subparser._actions:
            if action.type not in NEGATIVE_VALUES:
                continue
            text, value = NEGATIVE_VALUES[action.type]
            for flag in action.option_strings:
                args = parser.parse_args([command, flag, text])
                assert getattr(args, action.dest) == value, (command, flag)
                checked.add((command, flag))
    assert {("classify", "--re-min"), ("simulate", "--delta"), ("simulate", "--b0"), ("sweep", "--g0")} <= checked
    assert {command for command, _ in checked} == set(subparsers.choices)


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


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_simulate_csv_bytes_at_block_edges(tmp_path: Path, offset):
    # sample rows one short of, equal to and one past a block of cli._CSV_BLOCK_ROWS
    rows = cli._CSV_BLOCK_ROWS + offset
    periods = (rows - 1) / 10_000
    out = tmp_path / "run.csv"
    assert main(["simulate", "--delta=0.5", f"--periods={periods!r}", f"--out={out}"]) == 0
    init = MetriplecticState(Z=RealState(1.0, 0.0), G=Metric.identity(), n=1.0)
    expected = expected_csv(SwansonParams(1.0, 0.5), init, periods)
    assert expected.count(b"\n") == rows + 1
    assert out.read_bytes() == expected


def test_simulate_divergence_row_follows_a_block_edge(tmp_path: Path, monkeypatch):
    params = SwansonParams(1.0, 1.1)
    init = MetriplecticState(Z=RealState(1.0, 0.0), G=Metric.identity(), n=1.0)
    expected = expected_csv(params, init, 1.0)
    # header and flagged row aside, the sample rows fill whole blocks of this size
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", (expected.count(b"\n") - 2) // 2)
    assert (expected.count(b"\n") - 2) % cli._CSV_BLOCK_ROWS == 0
    out = tmp_path / "run.csv"
    assert main(["simulate", "--delta=1.1", f"--out={out}"]) == 3
    assert out.read_bytes() == expected


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
