#!/usr/bin/env python3
"""Which verifier hypotheses do the engine tests need?

Each ``return a and b and ...`` in ``_verify_cert``, ``_verify_epi_node``
and ``_verify_power_node`` (``src/vlab/engine.py``) is a list of the
hypotheses a certificate must meet.  A mutant replaces one operand of one
such chain by ``True``.  For each mutant the script copies the files git
tracks into a temporary directory, splices the mutation into the copy's
``engine.py`` and runs ``pytest -q -x tests/test_engine.py`` there; it
prints ``killed`` when the tests fail and ``survived`` when they pass,
with the operand's ``file:line`` and source.  A survivor is a hypothesis
that no engine test needs.  The repository itself is only read.

    python3 scripts/mutants.py           # about 7 s per mutant
    python3 scripts/mutants.py --list    # the mutants, nothing run

The exit status is 0 when every mutant ran.  Stdlib only, apart from
pytest in the mutants' runs.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = "src/vlab/engine.py"
VERIFIERS = ("_verify_cert", "_verify_epi_node", "_verify_power_node")
TESTS = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "tests/test_engine.py"]


def mutants(source: str) -> list[ast.expr]:
    """The operands of the and-chains that the verifiers return, in order."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in VERIFIERS:
            for ret in ast.walk(node):
                if (isinstance(ret, ast.Return)
                        and isinstance(ret.value, ast.BoolOp)
                        and isinstance(ret.value.op, ast.And)):
                    found.extend(ret.value.values)
    return sorted(found, key=lambda e: (e.lineno, e.col_offset))


def mutate(source: str, operand: ast.expr) -> str:
    """source with the operand's text replaced by True."""
    lines = source.splitlines(keepends=True)
    start = sum(map(len, lines[:operand.lineno - 1])) + operand.col_offset
    end = (sum(map(len, lines[:operand.end_lineno - 1]))
           + operand.end_col_offset)
    return source[:start] + "True" + source[end:]


def describe(source: str, operand: ast.expr) -> str:
    text = " ".join(ast.get_source_segment(source, operand).split())
    return f"{ENGINE}:{operand.lineno}  {text}"


def copy_tracked(dest: Path) -> None:
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                            capture_output=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def killed(tree: Path, source: str, operand: ast.expr) -> bool:
    """Whether the engine tests fail with this operand replaced."""
    (tree / ENGINE).write_text(mutate(source, operand), encoding="utf-8")
    run = subprocess.run([sys.executable, *TESTS], cwd=tree,
                         env={**os.environ, "PYTHONPATH": str(tree / "src")},
                         capture_output=True)
    return run.returncode != 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="print the mutants and run nothing")
    args = parser.parse_args(argv)
    source = (ROOT / ENGINE).read_text(encoding="utf-8")
    found = mutants(source)
    if args.list:
        for operand in found:
            print(describe(source, operand))
        return 0
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy_tracked(Path(tmp))
        for operand in found:
            survived = not killed(Path(tmp), source, operand)
            survivors += survived
            print(f"{'survived' if survived else 'killed  '}  "
                  f"{describe(source, operand)}", flush=True)
    print(f"{survivors} of {len(found)} mutants survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
