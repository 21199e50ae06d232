"""The per-group memo behind solvable_radical, derived_series and
class_representatives: budgets before the cache, fresh lists, and cached
answers equal to answers computed on a fresh group."""

import pytest

from vlab.catalog import bundled_catalog
from vlab.config import Budgets
from vlab.errors import BudgetExceeded
from vlab.perm import PermutationGroup, symmetric_group
from vlab.structure import (class_representatives, derived_series,
                            solvable_radical)


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
], ids=["radical-normal-enumeration", "radical-enumerate", "class-reps"])
def test_budget_is_checked_before_the_cache(query, budgets, expected):
    S4 = symmetric_group(4)
    query(S4)  # fills the memo under the default budgets
    with pytest.raises(BudgetExceeded) as info:
        query(S4, budgets)
    exc = info.value
    assert (exc.budget_name, exc.limit, exc.requested) == expected


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
