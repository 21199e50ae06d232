#!/usr/bin/env python3
"""List the ``src/vlab`` lines that a pytest run never executes.

Runs ``pytest.main(argv)`` in this process under ``sys.settrace`` and
``threading.settrace``, records every line of ``src/vlab`` that a call or
line event reaches, and compares them with each module's executable lines,
taken from its compiled code objects (``co_lines``).  It prints each
never-run ``file:line``, then a count per file, and exits with pytest's
exit code.  Stdlib only, apart from pytest itself:

    PYTHONPATH=src python3 scripts/linecov.py -q tests/test_wreath_z.py

Only this process is traced.  Code run in a subprocess (the CLI subprocess
tests, perfbench workers, the interpreters that the pin scripts start)
counts as never run here, however often it ran there.  Tracing makes a run
several times slower.
"""

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vlab"


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from the file runs."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def run(argv) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit code and the lines of each src/vlab file it ran."""
    hits: dict[Path, set[int]] = {}
    inside: dict[str, set[int] | None] = {}  # co_filename -> its hit set

    def lines_of(filename: str):
        if filename not in inside:
            path = Path(filename).resolve()
            inside[filename] = (hits.setdefault(path, set())
                                if path.is_relative_to(SRC) else None)
        return inside[filename]

    def local(frame, event, arg):
        inside[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        seen = lines_of(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(list(argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def never_run(hits: dict[Path, set[int]]) -> dict[Path, list[int]]:
    return {path: sorted(executable_lines(path) - hits.get(path, set()))
            for path in sorted(SRC.rglob("*.py"))}


def main(argv) -> int:
    code, hits = run(argv)
    missed = never_run(hits)
    for path, lines in missed.items():
        for line in lines:
            print(f"{path.relative_to(ROOT)}:{line}")
    for path, lines in missed.items():
        print(f"{len(lines):6d} never run  {path.relative_to(ROOT)}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
