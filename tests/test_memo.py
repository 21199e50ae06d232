"""The per-group memo behind solvable_radical, derived_series, exponent,
class_representatives and indexed: budgets before the cache, fresh lists,
one element index shared by its clients, and cached answers equal to
answers computed on a fresh group."""

from math import lcm

import pytest

from tests.conftest import mulclose
from vlab.catalog import bundled_catalog
from vlab.config import DEFAULT_BUDGETS, Budgets
from vlab.constructions import regular_wreath
from vlab.errors import BudgetExceeded
from vlab.homs import all_homomorphisms
from vlab.perm import (PermutationGroup, cyclic_group, dihedral_group,
                       symmetric_group)
from vlab.structure import (all_subgroups, class_representatives,
                            derived_series, exponent, solvable_radical)


def shape(H: PermutationGroup):
    return H.order(), tuple(g.images for g in H.generators)


def memoised_queries(G: PermutationGroup):
    return (shape(solvable_radical(G)),
            [shape(term) for term in derived_series(G)],
            [r.images for r in class_representatives(G)])


def test_memo_computes_once_per_key():
    G = symmetric_group(3)
    calls = []

    def compute():
        calls.append(1)
        return len(calls)

    assert G.memo("k", compute) == 1
    assert G.memo("k", compute) == 1
    assert G.memo("other", compute) == 2
    assert len(calls) == 2


@pytest.mark.parametrize("query, budgets, expected", [
    (solvable_radical, Budgets(max_normal_enumeration=10),
     ("max_normal_enumeration", 10, 24)),
    (solvable_radical, Budgets(max_enumerate=10), ("max_enumerate", 10, 24)),
    (class_representatives, Budgets(max_enumerate=10),
     ("max_enumerate", 10, 24)),
    (exponent, Budgets(max_enumerate=10), ("max_enumerate", 10, 24)),
    (lambda G, budgets=DEFAULT_BUDGETS: G.indexed(budgets.max_enumerate),
     Budgets(max_enumerate=10), ("max_enumerate", 10, 24)),
], ids=["radical-normal-enumeration", "radical-enumerate", "class-reps",
        "exponent", "indexed"])
def test_budget_is_checked_before_the_cache(query, budgets, expected):
    S4 = symmetric_group(4)
    query(S4)  # fills the memo under the default budgets
    with pytest.raises(BudgetExceeded) as info:
        query(S4, budgets)
    exc = info.value
    assert (exc.budget_name, exc.limit, exc.requested) == expected


def test_lattice_homs_and_wreath_share_one_index(monkeypatch):
    G = dihedral_group(4)
    computed = []
    memo = G.memo

    def counting_memo(key, compute):
        def counted():
            computed.append(key)
            return compute()
        return memo(key, counted)

    monkeypatch.setattr(G, "memo", counting_memo)
    assert len(all_subgroups(G)) == 10
    assert len(all_homomorphisms(G, G)) == 36
    regular_wreath(cyclic_group(2), G)
    assert computed.count("indexed") == 1


def test_returned_lists_are_fresh_copies():
    S4 = symmetric_group(4)
    series = derived_series(S4)
    reps = class_representatives(S4)
    expected_series = [shape(term) for term in series]
    expected_reps = list(reps)
    series.append(S4)
    series[0] = None
    reps.clear()
    assert [shape(term) for term in derived_series(S4)] == expected_series
    assert class_representatives(S4) == expected_reps
    assert derived_series(S4)[0] is S4


@pytest.mark.parametrize("G", bundled_catalog(),
                         ids=lambda G: G.name or str(G.degree))
def test_cached_answers_equal_fresh_answers(G):
    first = memoised_queries(G)
    assert memoised_queries(G) == first
    fresh = PermutationGroup(G.degree, G.generators, name=G.name)
    assert memoised_queries(fresh) == first


@pytest.mark.parametrize("G", bundled_catalog(),
                         ids=lambda G: G.name or str(G.degree))
def test_exponent_is_the_lcm_of_all_element_orders(G):
    orders = []
    for x in mulclose(list(G.generators)):
        power, k = x, 1
        while not power.is_identity():
            power, k = power * x, k + 1
        orders.append(k)
    assert exponent(G) == lcm(*orders)
