"""The scripts under scripts/ run end to end: each main() returns 0.

lift_demo re-verifies the pipeline's certificates under A, Nc:2 and Sl:2;
run_scenarios reruns every bundled scenario against its recorded outcome.
reach's ledger, recomputed, is the committed REACH.json.  linecov,
run over one test file, reports the lines that file never reaches.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name,
                                                  SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["lift_demo", "run_scenarios"])
def test_script_main_returns_zero(name, capsys):
    assert load(name).main() == 0
    assert capsys.readouterr().out


def test_the_committed_reach_ledger_is_what_the_engine_reaches():
    reach = load("reach")
    committed = json.loads(reach.LEDGER.read_text(encoding="utf-8"))
    assert reach.ledger() == committed


def first_body_line(module: str, function: str) -> str:
    """``src/vlab/MODULE:LINE`` of the function's first statement after
    its docstring."""
    path = SCRIPTS.parent / "src" / "vlab" / module
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            first = node.body[1 if ast.get_docstring(node) else 0]
            return f"src/vlab/{module}:{first.lineno}"
    raise LookupError(function)


def test_linecov_lists_the_lines_a_test_file_never_runs():
    root = SCRIPTS.parent
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "linecov.py"), "-q",
         "-p", "no:cacheprovider", "tests/test_wreath_z.py"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:]
    lines = set(run.stdout.splitlines())
    assert first_body_line("engine.py", "simpletimes_pipeline") in lines
    assert first_body_line("wreath_z.py", "solve_commutator") not in lines
    assert any(line.endswith("never run  src/vlab/wreath_z.py")
               for line in lines)
