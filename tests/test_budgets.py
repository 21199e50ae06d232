"""Every budget stop goes through check_budget and carries structured fields."""

import ast
from dataclasses import asdict
from pathlib import Path

import pytest

from vlab.config import DEFAULT_BUDGETS, Budgets
from vlab.constructions import direct_power, regular_wreath
from vlab.errors import BudgetExceeded, check_budget
from vlab.homs import all_homomorphisms, identity_endomorphism
from vlab.perm import (all_tuples, cyclic_group, parse_permutation,
                       symmetric_group)
from vlab.structure import (all_subgroups, normal_subgroups, normalizer,
                            quotient, solvable_radical)

SRC = Path(__file__).resolve().parent.parent / "src" / "vlab"


def direct_budget_raises(source: str) -> list[int]:
    """Lines that construct BudgetExceeded instead of calling check_budget."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "BudgetExceeded"
                 or getattr(node.func, "attr", None) == "BudgetExceeded")]


def test_detector_flags_a_direct_raise():
    assert direct_budget_raises(
        "check_budget('x', 1, 2)\nraise errors.BudgetExceeded('x')\n"
        "raise BudgetExceeded('y')\n") == [2, 3]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "errors.py"),
    ids=lambda p: p.name)
def test_budget_stops_go_through_check_budget(path):
    assert direct_budget_raises(path.read_text(encoding="utf-8")) == []


def test_check_budget_message_and_fields():
    check_budget("max_enumerate", 10, 10)
    with pytest.raises(BudgetExceeded) as info:
        check_budget("max_enumerate", 10, 24)
    exc = info.value
    assert str(exc) == "max_enumerate: 24 exceeds the limit 10"
    assert (exc.budget_name, exc.limit, exc.requested) == (
        "max_enumerate", 10, 24)


S4 = symmetric_group(4)
V4 = S4.subgroup([parse_permutation("(0 1)(2 3)", 4),
                  parse_permutation("(0 2)(1 3)", 4)])
TIGHT = Budgets(max_enumerate=10, max_normal_enumeration=10,
                max_normalizer=10, max_hom_product=100)

ENTRY_POINTS = {
    "elements": ("max_enumerate", lambda: S4.elements(10)),
    "all_tuples": ("max_tuples",
                   lambda: all_tuples(symmetric_group(3).elements(), 3, 100)),
    "normalizer": ("max_normalizer",
                   lambda: normalizer(S4, S4.subgroup([S4.generators[1]]),
                                      TIGHT)),
    "normal_subgroups": ("max_normal_enumeration",
                         lambda: normal_subgroups(S4, TIGHT)),
    "solvable_radical": ("max_normal_enumeration",
                         lambda: solvable_radical(S4, TIGHT)),
    "all_subgroups": ("max_normal_enumeration",
                      lambda: all_subgroups(S4, TIGHT)),
    "quotient": ("max_enumerate", lambda: quotient(S4, V4, TIGHT)),
    "hom_table": ("max_enumerate",
                  lambda: identity_endomorphism(S4).kernel(TIGHT)),
    "all_homomorphisms": ("max_hom_product",
                          lambda: all_homomorphisms(S4, S4, TIGHT)),
    "wreath_top": ("max_wreath_top",
                   lambda: regular_wreath(cyclic_group(2), S4)),
    "wreath_degree": ("max_degree",
                      lambda: regular_wreath(cyclic_group(1001),
                                             cyclic_group(10))),
    "direct_power_degree": ("max_degree",
                            lambda: direct_power(symmetric_group(3), 4000)),
}


@pytest.mark.parametrize("budget_name,call", ENTRY_POINTS.values(),
                         ids=ENTRY_POINTS.keys())
def test_entry_point_stop_is_structured(budget_name, call):
    with pytest.raises(BudgetExceeded) as info:
        call()
    exc = info.value
    assert exc.budget_name == budget_name
    assert exc.limit is not None and exc.requested is not None
    assert exc.requested > exc.limit
    assert str(exc) == (f"{budget_name}: {exc.requested} exceeds the limit "
                        f"{exc.limit}")


@pytest.mark.parametrize("budgets", [
    DEFAULT_BUDGETS, Budgets(max_enumerate=7, max_tuples=11,
                             max_wreath_top=3)], ids=["default", "custom"])
def test_as_dict_is_asdict(budgets):
    assert list(budgets.as_dict().items()) == list(asdict(budgets).items())


def test_budgets_hold_after_caching():
    G = symmetric_group(4)
    assert len(G.elements()) == 24
    with pytest.raises(BudgetExceeded):
        G.elements(10)
    hom = identity_endomorphism(G)
    assert hom.kernel().order() == 1
    with pytest.raises(BudgetExceeded):
        hom.kernel(Budgets(max_enumerate=10))


def test_all_subgroups_checks_max_enumerate_on_every_call():
    G = symmetric_group(4)
    tight = Budgets(max_enumerate=23)
    for _ in range(2):
        with pytest.raises(BudgetExceeded) as info:
            all_subgroups(G, tight)
        assert (info.value.budget_name, info.value.limit,
                info.value.requested) == ("max_enumerate", 23, 24)
        assert len(all_subgroups(G)) == 30


def test_hom_apply_takes_the_callers_budget():
    S5 = symmetric_group(5)
    hom = identity_endomorphism(S5)
    g = S5.generators[0]
    tight = Budgets(max_enumerate=100)
    with pytest.raises(BudgetExceeded) as info:
        hom.apply(g, tight)
    assert (info.value.budget_name, info.value.limit,
            info.value.requested) == ("max_enumerate", 100, 120)
    with pytest.raises(BudgetExceeded):
        hom.agrees_on(hom, S5, tight)
    assert hom.apply(g) == g
    assert hom.agrees_on(hom, S5)


@pytest.mark.parametrize("call", [
    lambda G, hom, budgets: all_homomorphisms(G, cyclic_group(2), budgets),
    lambda G, hom, budgets: hom.apply(G.generators[0], budgets),
], ids=["all_homomorphisms", "apply"])
def test_hom_walk_checks_max_enumerate_after_caching(call):
    G = symmetric_group(4)
    hom = identity_endomorphism(G)
    call(G, hom, DEFAULT_BUDGETS)
    with pytest.raises(BudgetExceeded) as info:
        call(G, hom, Budgets(max_enumerate=10))
    assert (info.value.budget_name, info.value.limit,
            info.value.requested) == ("max_enumerate", 10, 24)
