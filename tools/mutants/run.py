"""Replay the mutation catalogue: apply each mutant to a copy of the tree and run the tests on it.

    python tools/mutants/run.py [ID ...]

The tree is copied once into a temporary directory outside the repository, and the mutants are
applied there one at a time; the working tree is never edited.  For each mutant the runner runs
its killers with pytest -x, and the whole tier-1 suite if they pass, then restores the file; both
with --assert=plain.  It prints a JSON report: each mutant's result ("killed" or "survived"),
whether that is what the catalogue expects, the stage that decided it ("killers" or "suite"), the
first failing test and the seconds taken.  It exits 1 if any result differs from the catalogue.
"""

from __future__ import annotations

import json
import os
import re
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "_work")


def pytest(tree: Path, args: list[str]) -> tuple[bool, str | None]:
    """Whether pytest -x passes on args in tree, and the first failing test's node id if not."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    # --assert=plain: assertions still fail a test, but pytest builds no diff of what they compared,
    # which for two long CSV strings takes about a minute
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--assert=plain", *args]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return True, None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return False, failed.group(1) if failed else f"pytest exit {done.returncode}"


def replay(tree: Path, mutant) -> dict:
    path = tree / mutant.file
    source = path.read_text()
    if source.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.id}: the old text does not occur exactly once in {mutant.file}")
    start = time.perf_counter()
    path.write_text(source.replace(mutant.old, mutant.new))
    try:
        stage = "killers"
        passed, killer = pytest(tree, list(mutant.killers)) if mutant.killers else (True, None)
        if passed:
            stage = "suite"
            # tests/test_mutants.py fails on every applied mutant by design: its old text is gone
            passed, killer = pytest(tree, ["--continue-on-collection-errors", "--ignore=tests/test_mutants.py"])
    finally:
        path.write_text(source)
    result = "survived" if passed else "killed"
    return {
        "id": mutant.id,
        "result": result,
        "expected": result == ("survived" if mutant.survives else "killed"),
        "stage": stage,
        "killer": killer,
        "seconds": round(time.perf_counter() - start, 1),
    }


def main(ids: list[str]) -> int:
    mutants = runpy.run_path(str(ROOT / "tools" / "mutants" / "catalogue.py"))["MUTANTS"]
    unknown = set(ids) - {m.id for m in mutants}
    if unknown:
        raise SystemExit(f"unknown mutant ids: {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory(prefix="swansim-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        report = [replay(tree, m) for m in mutants if not ids or m.id in ids]
    print(json.dumps(report, indent=1))
    return 0 if all(entry["expected"] for entry in report) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
