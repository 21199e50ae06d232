"""Only perm.py may build a Permutation without validating its images, only
perm.py may touch the per-group memo other than through
PermutationGroup.memo, only perm.py may build an element-position index
(PermutationGroup.indexed), only perm.py may sift image tuples or read a
chain level's transversal or its inverses (bare image tuples), and only perm.py may read a subgroup's
root ambient or its member positions.  The PermutationGroup docstring names
every per-group memo key that src/vlab uses, and no other.  engine.py
compares a certificate with its builder only through the type-exact
``_same``."""

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


def position_indexes(source: str) -> list[int]:
    """Lines that build an element-position index: a dict comprehension
    keyed on `.images` whose value is the counter of an `enumerate`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.DictComp)
                and isinstance(node.key, ast.Attribute)
                and node.key.attr == "images"
                and isinstance(node.value, ast.Name)):
            continue
        for gen in node.generators:
            call, target = gen.iter, gen.target
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "enumerate"
                    and isinstance(target, ast.Tuple)
                    and isinstance(target.elts[0], ast.Name)
                    and target.elts[0].id == node.value.id):
                lines.append(node.lineno)
    return lines


def test_detector_flags_an_element_index():
    assert position_indexes(
        "index = {g.images: i for i, g in enumerate(elements)}\n"
        "orders = {g.images: g.order() for g in elements}\n"
        "regular = {b.images: make(j) for j, b in enumerate(elements)}\n"
        "keys = {key: i for i, key in enumerate(sorted(keys))}\n"
        "other = {t.images: k\n"
        "         for k, t in enumerate(targets)}\n") == [1, 5]


def test_perm_module_holds_the_element_index():
    assert position_indexes((SRC / "perm.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", OUTSIDE_PERM,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_outside_perm_builds_an_element_index(path):
    assert position_indexes(path.read_text(encoding="utf-8")) == []


def chain_internal_uses(source: str) -> list[int]:
    """Lines that name the tuple sift `_sift_from` or read a level's
    `transversal` or `inverses` as an attribute."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute)
            and node.attr in ("_sift_from", "transversal", "inverses"))
        or (isinstance(node, ast.Name) and node.id == "_sift_from"))


def test_detector_flags_the_chain_internals():
    assert chain_internal_uses(
        "G.contains(p)\nchain._sift_from(0, p.images)\n"
        "inv = level.inverses[x]\ninverses = {}\nsift = _sift_from\n"
        "u = level.transversal[x]\ntransversal = {}\n"
        ) == [2, 3, 5, 6]


def test_perm_module_holds_the_chain_internals():
    assert chain_internal_uses((SRC / "perm.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", OUTSIDE_PERM,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_outside_perm_touches_the_chain_internals(path):
    assert chain_internal_uses(path.read_text(encoding="utf-8")) == []


def position_path_uses(source: str) -> list[int]:
    """Lines that name a subgroup's root ambient `_ambient` or its member
    positions `_members`."""
    return sorted(set(name_uses(source, "_ambient")
                      + name_uses(source, "_members")))


def test_detector_flags_the_position_path():
    assert position_path_uses(
        "H = G.subgroup(gens)\nroot = H._ambient\nH._members()\n"
        "_members = None\nambient = H\n") == [2, 3, 4]


def test_perm_module_holds_the_position_path():
    source = (SRC / "perm.py").read_text(encoding="utf-8")
    assert name_uses(source, "_ambient") and name_uses(source, "_members")


@pytest.mark.parametrize("path", OUTSIDE_PERM,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_outside_perm_touches_the_position_path(path):
    assert position_path_uses(path.read_text(encoding="utf-8")) == []


def memo_keys(source: str) -> set[str]:
    """The literal first arguments of `.memo(...)`."""
    return {node.args[0].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "memo"
            and node.args and isinstance(node.args[0], ast.Constant)}


def documented_memo_keys() -> set[str]:
    """The keys of the "Memo keys:" paragraph of the PermutationGroup
    docstring."""
    tree = ast.parse((SRC / "perm.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "PermutationGroup")
    doc = ast.get_docstring(cls)
    start = doc.index("Memo keys:")
    paragraph = doc[start:].split("\n\n")[0]
    return set(paragraph.removeprefix("Memo keys:").split())


def test_detector_collects_literal_memo_keys():
    assert memo_keys("G.memo('a', f)\nH.memo('b', g)\n"
                     "G.memo(key, f)\nmemo('c', f)\n") == {"a", "b"}


def test_memo_key_list_names_exactly_the_keys_in_use():
    used = set().union(*(memo_keys(p.read_text(encoding="utf-8"))
                         for p in SRC.glob("*.py")))
    assert documented_memo_keys() == used


def _is_builder_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id.startswith("_")
            and node.func.id.endswith(("_cert", "_node")))


def builder_comparisons(source: str) -> list[int]:
    """Lines of `==` or `!=` comparisons with a builder call, `_*_cert(...)`
    or `_*_node(...)`, as an operand."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(map(_is_builder_call, [node.left, *node.comparators])))


def test_detector_flags_builder_comparisons():
    assert builder_comparisons(
        "ok = cert == _neumann_cert(G, H, N)\n"
        "ok = _same(node, _fixture_node(fx))\n"
        "ok = _whole_group_node() != node and H.order() == G.order()\n"
        "ok = node == make_node(fx) or node == _fixture_node\n"
        "ok = (covers\n      and node == _splitting_node(d, v, i))\n"
        ) == [1, 3, 6]


def test_engine_compares_with_builders_only_through_same():
    source = (SRC / "engine.py").read_text(encoding="utf-8")
    assert name_uses(source, "_same")
    assert builder_comparisons(source) == []
