"""CLI outputs match the golden digests of tests/golden/digests.json byte for byte.

Each recorded argv runs in-process through swansim.cli.main; its exit code,
stderr text, output byte count and SHA-256 must equal the recorded ones.  The
digests hold for the environment the file records, and elsewhere every case
fails and names both environments.  A change that is meant to change output
bytes rewrites the file with `python tests/golden/regen.py`.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

RECORD = json.loads(regen.DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("run", RECORD["runs"], ids=[run["name"] for run in RECORD["runs"]])
def test_output_matches_golden_digest(run, tmp_path):
    here = regen.environment()
    assert here == RECORD["environment"], f"digests recorded on {RECORD['environment']}, this is {here}"
    expected = {k: v for k, v in run.items() if k not in ("name", "argv")}
    assert regen.digest(run["argv"], tmp_path / "out") == expected


def test_record_covers_every_workload_seed_and_readme_example():
    names = [run["name"] for run in RECORD["runs"]]
    assert len(names) == len(set(names))
    prefixes = {name.rsplit("/", 1)[0] for name in names}
    workloads = ("trajectory", "sweep", "region_map", "cross_check")
    assert prefixes == {f"{w}/{seed}" for w in workloads for seed in regen.SEEDS} | {"README"}
    assert sorted(name for name in names if name.startswith("README/")) == [
        "README/classify", "README/simulate", "README/sweep", "README/validate"
    ]


def test_regen_names_the_runs_it_changes():
    assert regen.changed_runs(RECORD, RECORD) == []
    runs = [dict(run) for run in RECORD["runs"]]
    runs[3]["sha256"] = "0" * 64
    first = runs.pop(0)
    assert regen.changed_runs(RECORD, {**RECORD, "runs": runs}) == [first["name"], runs[2]["name"]]
    elsewhere = {"environment": {**RECORD["environment"], "numpy": "0"}, "runs": RECORD["runs"]}
    assert regen.changed_runs(RECORD, elsewhere) == [run["name"] for run in RECORD["runs"]]
    assert regen.changed_runs({}, RECORD) == [run["name"] for run in RECORD["runs"]]
