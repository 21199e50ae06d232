"""Only perm.py may build a Permutation without validating its images, and
only perm.py may touch the per-group memo other than through
PermutationGroup.memo."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vlab"


def name_uses(source: str, name: str) -> list[int]:
    """Lines that name `name`, as an attribute or as a bare name."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.Name) and node.id == name))


def trusted_uses(source: str) -> list[int]:
    """Lines that name the unchecked constructor `_trusted`."""
    return name_uses(source, "_trusted")


def test_detector_flags_the_trusted_constructor():
    assert trusted_uses(
        "Permutation((0, 1))\np = Permutation._trusted((1, 0))\n"
        "make = _trusted\n") == [2, 3]


def test_perm_module_holds_the_trusted_constructor():
    assert trusted_uses((SRC / "perm.py").read_text(encoding="utf-8"))


OUTSIDE_PERM = sorted(
    p for p in [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    if p != SRC / "perm.py")


@pytest.mark.parametrize("path", OUTSIDE_PERM,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_outside_perm_skips_validation(path):
    assert trusted_uses(path.read_text(encoding="utf-8")) == []


def test_detector_flags_the_memo_dict():
    assert name_uses("G.memo('k', f)\nG._memo['k'] = 1\n_memo = {}\n",
                     "_memo") == [2, 3]


def test_perm_module_holds_the_memo_dict():
    assert name_uses((SRC / "perm.py").read_text(encoding="utf-8"), "_memo")


@pytest.mark.parametrize("path", OUTSIDE_PERM,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_outside_perm_touches_the_memo_dict(path):
    assert name_uses(path.read_text(encoding="utf-8"), "_memo") == []
