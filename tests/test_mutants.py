"""The mutation catalogue (tools/mutants/catalogue.py) stays applicable: each entry's old text
occurs exactly once in its file, and its killers name tests that exist.  Reads files only."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = runpy.run_path(str(ROOT / "tools" / "mutants" / "catalogue.py"))["MUTANTS"]


def test_mutant_ids_are_unique():
    ids = [m.id for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_mutant_applies_to_one_exact_text(mutant):
    assert mutant.file.startswith("src/swansim/")
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    # killed by named tests, or a listed survivor with its reason: never both, never neither
    assert bool(mutant.killers) != bool(mutant.survives)


@pytest.mark.parametrize("mutant", [m for m in MUTANTS if m.killers], ids=[m.id for m in MUTANTS if m.killers])
def test_mutant_killers_exist(mutant):
    for node in mutant.killers:
        path, *names = node.split("::")
        text = (ROOT / path).read_text()
        for name in names:
            assert re.search(rf"^\s*(?:def|class) {name}\b", text, re.MULTILINE), node
