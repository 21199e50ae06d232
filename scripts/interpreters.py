#!/usr/bin/env python3
"""Check the pinned bytes under every Python 3.10 to 3.13 found on PATH.

Under each interpreter it runs ``-m vlab.cli scenario --all`` and compares
the sha256 of what it prints with ``perfbench/data/pins.json``; then it
runs each workload's first pass at seed 5 (``perfbench/worker.py W 5 0 0``)
and compares its verdict digest with ``DIGESTS`` in
``tests/test_digests.py``.  Both pins are read, never written, and no
bytecode is written either.  An interpreter on PATH that does not start
(a version manager's shim for a version it has not selected, say) is
reported and skipped.  The exit status is 1 when any interpreter misses a
pin, and the report names it.  Stdlib only:

    python3 scripts/interpreters.py
"""

import ast
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = [f"python3.{minor}" for minor in range(10, 14)]
TIMEOUT_S = 300


def _run(python: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([python, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=TIMEOUT_S)


def pinned_worker_digests() -> dict:
    """``DIGESTS`` of tests/test_digests.py, read as the literal it is, so
    that the test's own imports (pytest) are not needed here."""
    source = (ROOT / "tests" / "test_digests.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "DIGESTS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_digests.py assigns no DIGESTS")


def check(python: str) -> list[str]:
    """Every pin this interpreter misses, one message each."""
    problems = []
    pins = json.loads((ROOT / "perfbench" / "data" / "pins.json")
                      .read_text(encoding="utf-8"))
    proc = _run(python, "-m", "vlab.cli", "scenario", "--all")
    digest = hashlib.sha256(proc.stdout).hexdigest()
    if proc.returncode != 0 or digest != pins["scenario_all_sha256"]:
        problems.append(f"scenario --all: exit {proc.returncode}, sha256 "
                        f"{digest}, pinned {pins['scenario_all_sha256']}")
    for workload, pinned in pinned_worker_digests().items():
        proc = _run(python, str(ROOT / "perfbench" / "worker.py"), workload,
                    "5", "0", "0")
        try:
            out = json.loads(proc.stdout)
        except ValueError:
            out = {}
        found, failed = out.get("verdict_sha256"), out.get("failed")
        if failed != 0 or found != pinned:
            problems.append(f"worker {workload} 5 0 0: exit "
                            f"{proc.returncode}, failed ops {failed}, "
                            f"verdict_sha256 {found}, pinned {pinned}")
    return problems


def main() -> int:
    missed = []
    for name in NAMES:
        python = shutil.which(name)
        if python is None:
            print(f"{name}: not on PATH")
            continue
        version = _run(python, "-c", "import sys; print(sys.version.split()[0])")
        if version.returncode != 0:
            print(f"{name}: {python} does not start, skipped")
            continue
        label = f"{name} ({version.stdout.decode().strip()}, {python})"
        problems = check(python)
        print(f"{label}: " + ("every pin holds" if not problems
                              else "MISMATCH"))
        for problem in problems:
            print(f"  {problem}")
        if problems:
            missed.append(label)
    if missed:
        print("pins missed under: " + "; ".join(missed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
