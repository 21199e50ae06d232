"""Every import in src/vlab, tests/ and scripts/ is used.

`__init__.py` files only re-export, so they are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vlab"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nimport re\nre.compile('x')\n") == [
        "line 1: os"]


LINTED = sorted(
    p for p in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                *(ROOT / "scripts").glob("*.py")]
    if p.name != "__init__.py")


@pytest.mark.parametrize(
    "path", LINTED,
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
