#!/usr/bin/env python3
"""Rewrite digests.json, the golden CLI outputs that tests/test_golden.py checks.

Usage, from anywhere:

    python tests/golden/regen.py

It runs every invocation of the four perfbench workloads at seeds 1, 2, 3
and 7, and each `swansim ...` command example of README.md, in-process
through swansim.cli.main on this checkout's sources.  For each run it records
the argv without --out, the exit code, the stderr text, and the byte count and
SHA-256 of the output, together with the Python, numpy and machine
architecture the digests hold for.  It then prints the name of each run whose
record differs from the one in the file it overwrites, or that none changed.

The test imports environment(), digest() and changed_runs() from here, but
never the workloads: the argv it runs are the ones in the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = Path(__file__).with_name("digests.json")
SEEDS = (1, 2, 3, 7)


def environment() -> dict:
    """What the output bytes depend on beyond swansim: the interpreter, numpy (and its libm), the machine."""
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "machine": platform.machine()}


def digest(argv: list[str], out_path: Path) -> dict:
    """Exit code, stderr text, and output byte count and SHA-256 of swansim.cli.main(argv + --out); removes the output."""
    from swansim.cli import main

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, f"--out={out_path}"])
    data = out_path.read_bytes() if out_path.exists() else b""
    out_path.unlink(missing_ok=True)
    return {"exit": code, "stderr": err.getvalue(), "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def perfbench_runs() -> list[tuple[str, list[str]]]:
    """(name, argv) of every perfbench workload invocation at SEEDS."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [
        (f"{workload}/{seed}/{inv.name}", list(inv.argv))
        for workload in workloads.WORKLOADS
        for seed in SEEDS
        for inv in workloads.invocations(workload, seed)
    ]


def readme_runs() -> list[tuple[str, list[str]]]:
    """(name, argv) of each README.md line that starts with `swansim `, continuation lines joined, --out dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8").replace("\\\n", " ")
    runs = []
    for line in text.splitlines():
        if line.startswith("swansim "):
            words = shlex.split(line)[1:]
            k = words.index("--out")
            runs.append((f"README/{words[0]}", words[:k] + words[k + 2 :]))
    return runs


def changed_runs(old: dict, new: dict) -> list[str]:
    """Names of the runs whose record differs between old and new or is in one only; all if the environments differ."""
    if old.get("environment") != new["environment"]:
        return [run["name"] for run in new["runs"]]
    before = {run["name"]: run for run in old.get("runs", [])}
    after = {run["name"]: run for run in new["runs"]}
    return [name for name in {**before, **after} if before.get(name) != after.get(name)]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in perfbench_runs() + readme_runs():
            runs.append({"name": name, "argv": argv, **digest(argv, Path(tmp) / "out")})
    record = {"environment": environment(), "runs": runs}
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} digests to {DIGESTS}")
    changed = changed_runs(old, record)
    print("\n".join(f"changed: {name}" for name in changed) if changed else "no record changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
