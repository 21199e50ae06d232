"""Every import in src/vlab, tests/ and scripts/ is used, every private
helper in src/vlab is referred to, every public name there that nothing
in src/vlab refers to is listed with its reason, and so is every
module-level ``cache``.

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


def referenced_names(trees) -> set[str]:
    """Every name read, attribute and imported name in the trees."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Private definitions that no name, attribute or import refers to."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = referenced_names(trees.values())
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


def public_definitions(tree: ast.Module) -> list[str]:
    """Public module-level functions, classes and assigned names, and the
    public methods of module-level classes as ``Class.method``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            names.append(node.name)
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        names += [t.id for t in targets if isinstance(t, ast.Name)
                  and not t.id.startswith("_")]
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, defs)
                      and not item.name.startswith("_")]
    return names


def unreferenced_public(sources: dict[str, str]) -> list[str]:
    """Public definitions that no name, attribute or import refers to."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = referenced_names(trees.values())
    return [f"{name}: {public}" for name, tree in trees.items()
            for public in public_definitions(tree)
            if public.rsplit(".", 1)[-1] not in used]


def test_detector_flags_an_unreferenced_public_name():
    source = ("def used():\n    pass\n\ndef unused():\n    pass\n\n"
              "class K:\n    def method(self):\n        pass\n"
              "    def __init__(self):\n        used()\n"
              "    def _private(self):\n        pass\n"
              "LIMIT = 3\nSIZE: int = 4\n_HIDDEN = 5\nused(SIZE)\n")
    assert unreferenced_public({"m.py": source}) == [
        "m.py: unused", "m.py: K", "m.py: K.method", "m.py: LIMIT"]
    assert unreferenced_public({"m.py": "def f():\n    pass\n",
                                "n.py": "from .m import f\n"}) == []
    assert unreferenced_public({"m.py": "class K:\n    def f(self):\n"
                                "        pass\n\nK().f()\n"}) == []


TRACED = "on perfbench/tracer.py's list"
ENTRY = "an entry point of perfbench/ and scripts/"
API = "library API kept on purpose"

# Public names in src/vlab that nothing there refers to (``__init__.py``,
# which only re-exports, aside), each with the reason it stays.
UNREFERENCED_PUBLIC = {
    "catalog.py: serialize_catalog": API,
    "catalog.py: serialize_fixtures": API,
    "constructions.py: DirectPowerContext.component": API,
    "constructions.py: DirectPowerContext.power_subgroup": API,
    "constructions.py: WreathContext.decompose": API,
    "constructions.py: direct_power": TRACED,
    "engine.py: EngineContext.bundled": ENTRY,
    "homs.py: identity_endomorphism": TRACED,
    "homs.py: inclusion_hom": TRACED,
    "perm.py: Permutation.moved_points": API,
    "power_series.py: magnus_image": TRACED,
    "structure.py: normal_subgroups": TRACED,
    "structure.py: normalizer": TRACED,
    "varieties.py: descriptor_laws": TRACED,
    "varieties.py: eval_word": TRACED,
    "varieties.py: satisfies_laws": TRACED,
    "words.py: Word.length": API,
    "wreath_z.py: depth2_witness": TRACED,
}


def test_every_unreferenced_public_name_in_src_is_listed():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert sorted(unreferenced_public(sources)) == sorted(UNREFERENCED_PUBLIC)


def test_the_traced_and_entry_point_reasons_hold():
    tracer = (ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")
    callers = [" ".join(p.read_text(encoding="utf-8")
                        for p in (ROOT / d).glob("*.py"))
               for d in ("perfbench", "scripts")]
    for entry, reason in UNREFERENCED_PUBLIC.items():
        name = entry.split(": ")[1]
        if reason == TRACED:
            assert f'"{name}"' in tracer, entry
        if reason == ENTRY:
            assert all(f"{name}(" in text for text in callers), entry


def process_caches(tree: ast.Module) -> list[str]:
    """Module-level functions under ``cache`` or ``lru_cache``, which keep
    what they return, keyed by their arguments, for the life of the
    process."""
    def is_cache(decorator):
        target = (decorator.func if isinstance(decorator, ast.Call)
                  else decorator)
        name = (target.attr if isinstance(target, ast.Attribute)
                else getattr(target, "id", None))
        return name in ("cache", "lru_cache")

    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(map(is_cache, node.decorator_list))]


def test_detector_flags_a_process_cache():
    source = ("import functools\nfrom functools import cache\n\n"
              "@cache\ndef a(x):\n    pass\n\n"
              "@functools.lru_cache(maxsize=None)\ndef b(x):\n    pass\n\n"
              "def c(x):\n    return cache(lambda: x)\n")
    assert process_caches(ast.parse(source)) == ["a", "b"]


# Module-level caches in src/vlab, each with the reason that a cache shared
# by the whole process is safe there.  One keyed by outside text (a group
# name, say) would keep each distinct input for good.
PROCESS_CACHES = {
    "catalog.py: bundled_catalog": "takes no argument: the bundled catalog "
                                   "is built once",
    "perm.py: _identity_images": "keyed by a degree, which MAX_DEGREE caps",
}


def test_every_process_cache_in_src_is_listed():
    found = [f"{p.name}: {name}" for p in sorted(SRC.glob("*.py"))
             for name in process_caches(ast.parse(p.read_text("utf-8")))]
    assert sorted(found) == sorted(PROCESS_CACHES)
