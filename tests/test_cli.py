import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swansim import RegionLabel, SwansonParams, region_grid
from swansim.cli import main


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
    assert doc["labels"] == [lab.value for lab in expected.ravel()]


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
    out = tmp_path / "empty.csv"
    cp = run_cli("sweep", "--delta-min", "2", "--delta-max", "1", "--delta-step", "0.1", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    assert out.read_text() == "delta,label,diverged,divergence_time,max_g_plus\n"


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


def test_config_errors(tmp_path: Path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("classify", "--config", str(bad)).returncode == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"nope": 1}))
    assert run_cli("classify", "--config", str(unknown)).returncode == 2

    assert run_cli("simulate", "--omega0", "-1").returncode == 2
    cp = run_cli("sweep", "--omega0", "0")
    assert cp.returncode == 2 and cp.stderr == "config error: omega0 must be positive, got 0.0\n"
    assert run_cli("simulate", "--g0", "2,0,2").returncode == 2
    assert run_cli("simulate", "--step", "-0.1").returncode == 2
    assert run_cli("classify", "--im-min", "-0.5").returncode == 2
    for argv in (("simulate",), ("sweep", "--delta-max", "0.2")):
        for periods in ("0", "-1"):
            cp = run_cli(*argv, "--periods", periods)
            assert cp.returncode == 2 and "periods must be positive" in cp.stderr
        cp = run_cli(*argv, "--p0", "nan")
        assert cp.returncode == 2 and "invalid initial centre" in cp.stderr


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
