"""Self-tests of the benchmark: seeded inputs repeat, and the oracles catch bad output.

Run from the root of a swansim checkout:  python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from swansim import SwansonParams, metric_closed, metric_from_b  # noqa: E402
from swansim.cli import main  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_argv(name):
    first = [inv.argv for inv in workloads.invocations(name, 11)]
    again = [inv.argv for inv in workloads.invocations(name, 11)]
    other = [inv.argv for inv in workloads.invocations(name, 12)]
    assert first == again
    assert first != other


def _run(inv, path):
    return main(inv.full_argv(str(path)))


def test_corrupted_simulate_row_is_caught(tmp_path):
    inv = workloads._invocation("bounded", "simulate", dict(
        omega0=1.1, delta=-0.6, p0=0.6, q0=0.8, b0=None, periods=0.25))
    path = tmp_path / "run.csv"
    code = _run(inv, path)
    assert oracles.check(inv, str(path), code).ok
    lines = path.read_text().splitlines()
    cells = lines[1000].split(",")
    cells[5] = repr(float(cells[5]) * (1.0 + 1e-5))  # g_pq of one row
    lines[1000] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    verdict = oracles.check(inv, str(path), code)
    assert not verdict.ok and "deviation" in verdict.message


def test_wrong_exit_code_is_caught(tmp_path):
    inv = workloads.invocations("trajectory", 3)[2]  # supercritical, exits 3
    path = tmp_path / "run.csv"
    code = _run(inv, path)
    assert code == 3 and oracles.check(inv, str(path), code).ok
    assert not oracles.check(inv, str(path), 0).ok


def test_flipped_region_labels_are_caught(tmp_path):
    inv = workloads._invocation("half_plane", "classify", dict(
        omega0=1.0, delta=0.5, re_min=-2.0, re_max=2.0, im_min=0.05, im_max=2.0, resolution=41), ext="json")
    path = tmp_path / "grid.json"
    code = _run(inv, path)
    assert oracles.check(inv, str(path), code).ok
    doc = json.loads(path.read_text())
    swap = {"bounded": "divergent", "divergent": "bounded", "boundary": "boundary"}
    doc["labels"][::10] = [swap[label] for label in doc["labels"][::10]]
    path.write_text(json.dumps(doc))
    verdict = oracles.check(inv, str(path), code)
    assert not verdict.ok and "probe" in verdict.message


def test_failed_validate_report_is_caught(tmp_path):
    inv = workloads.invocations("cross_check", 5)[0]  # subcritical
    path = tmp_path / "report.json"
    code = _run(inv, path)
    assert code == 0 and oracles.check(inv, str(path), code).ok
    doc = json.loads(path.read_text())
    doc["max_errors"]["Z"] = 1e-3
    path.write_text(json.dumps(doc))
    assert not oracles.check(inv, str(path), code).ok


def test_metric_series_matches_metric_closed():
    params = SwansonParams(0.9, -0.5)
    g0 = metric_from_b(0.3 + 1.7j)
    times = np.linspace(0.0, 2.0 * params.period, 37)
    ref = np.array([[g.g_pp, g.g_pq, g.g_qq] for g in (metric_closed(params, g0, t) for t in times)])
    assert np.allclose(oracles.metric_series(params, g0, times), ref, rtol=1e-12, atol=1e-12)
