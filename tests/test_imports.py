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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree: ast.Module) -> list[str]:
    """Private module-level functions and classes, and private methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, defs) and _is_private(node.name):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, defs) and _is_private(item.name)]
    return names


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Private definitions that no name, attribute or import refers to."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [f"{name}: {helper}" for name, tree in trees.items()
            for helper in private_definitions(tree) if helper not in used]


def test_detector_flags_a_dead_helper():
    source = ("def _used():\n    pass\n\ndef _dead():\n    pass\n\n"
              "class K:\n    def _gone(self):\n        pass\n"
              "    def __init__(self):\n        _used()\n")
    assert dead_helpers({"m.py": source}) == ["m.py: _dead", "m.py: _gone"]
    assert dead_helpers({"m.py": "def _f():\n    pass\n",
                         "n.py": "from .m import _f\n"}) == []


def test_no_dead_private_helpers_in_src():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert dead_helpers(sources) == []
