"""Only perm.py may build a Permutation without validating its images."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vlab"


def trusted_uses(source: str) -> list[int]:
    """Lines that name the unchecked constructor `_trusted`."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "_trusted")
        or (isinstance(node, ast.Name) and node.id == "_trusted"))


def test_detector_flags_the_trusted_constructor():
    assert trusted_uses(
        "Permutation((0, 1))\np = Permutation._trusted((1, 0))\n"
        "make = _trusted\n") == [2, 3]


def test_perm_module_holds_the_trusted_constructor():
    assert trusted_uses((SRC / "perm.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "path",
    sorted(p for p in [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
           if p != SRC / "perm.py"),
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_outside_perm_skips_validation(path):
    assert trusted_uses(path.read_text(encoding="utf-8")) == []
