"""The per-group memo behind solvable_radical, derived_series, exponent,
class_representatives, indexed, all_homomorphisms, q_verbal and the var:
screen, and the context's catalog memberships: budgets before the cache,
fresh lists, one element index shared by its clients, and cached answers
equal to answers computed on a fresh group, whatever ran before on the
shared catalog."""

import json
from math import lcm

import pytest

from tests.conftest import mulclose
from vlab.catalog import bundled_catalog, bundled_fixtures
from vlab.config import DEFAULT_BUDGETS, Budgets
from vlab.constructions import regular_wreath
from vlab.engine import EngineContext, epi_decide, verify_certificate
from vlab.errors import BudgetExceeded
from vlab.homs import all_homomorphisms
from vlab.perm import (PermutationGroup, cyclic_group, dihedral_group,
                       symmetric_group)
from vlab.structure import (all_subgroups, class_representatives,
                            derived_series, exponent, solvable_radical)
from vlab import varieties
from vlab.varieties import member_of_variety, parse_descriptor, q_verbal

S3 = symmetric_group(3)


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
    (lambda G, budgets=DEFAULT_BUDGETS: all_homomorphisms(G, S3, budgets),
     Budgets(max_hom_product=100), ("max_hom_product", 100, 144)),
    (lambda G, budgets=DEFAULT_BUDGETS: all_homomorphisms(G, S3, budgets),
     Budgets(max_enumerate=10), ("max_enumerate", 10, 24)),
    (lambda G, budgets=DEFAULT_BUDGETS: all_homomorphisms(S3, G, budgets),
     Budgets(max_enumerate=10), ("max_enumerate", 10, 24)),
    (lambda G, budgets=DEFAULT_BUDGETS: q_verbal(
        G, parse_descriptor("laws:{x1^6}"), budgets),
     Budgets(max_enumerate=10), ("max_enumerate", 10, 24)),
    # the var:S4 screen is kept on the catalog's S4, after its exponent
    (lambda G, budgets=DEFAULT_BUDGETS: member_of_variety(
        cyclic_group(2), parse_descriptor("var:S4"), budgets),
     Budgets(max_enumerate=10), ("max_enumerate", 10, 24)),
], ids=["radical-normal-enumeration", "radical-enumerate", "class-reps",
        "exponent", "indexed", "homs-product", "homs-source-enumerate",
        "homs-codomain-enumerate", "q-verbal", "var-screen"])
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


def test_hom_lists_are_memoised_per_codomain_and_returned_fresh():
    G, C = dihedral_group(4), symmetric_group(4)
    first = all_homomorphisms(G, C)
    second = all_homomorphisms(G, C)
    assert second == first and second is not first
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    second.reverse()
    third = all_homomorphisms(G, C)
    assert third == second[::-1] and third[0].generator_images == \
        G.generators  # the inclusion still comes first
    # an equal codomain object of its own gets its own, equal, list
    copy = PermutationGroup(C.degree, C.generators)
    assert ([h.generator_images for h in all_homomorphisms(G, copy)]
            == [h.generator_images for h in third])


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


def fresh_copy(G: PermutationGroup) -> PermutationGroup:
    return PermutationGroup(G.degree, G.generators, name=G.name)


def fresh_context(fixtures) -> EngineContext:
    return EngineContext(fixtures=fixtures,
                         catalog=[fresh_copy(C) for C in bundled_catalog()])


def verdicts(ctx: EngineContext, inputs, descriptors) -> dict:
    """Each verdict's JSON by (group, subgroup generators, descriptor);
    every verdict must verify in the context that gave it."""
    out = {}
    for G, gens in inputs:
        H = G.subgroup(gens)
        for desc in descriptors:
            verdict = epi_decide(G, H, desc, ctx)
            assert verify_certificate(G, H, desc, verdict, ctx)
            out[G.name, gens, str(desc)] = json.dumps(verdict.to_json(),
                                                      sort_keys=True)
    return out


def proper_subgroups(G: PermutationGroup):
    return [(G, H.generators) for H in all_subgroups(G)
            if H.order() < G.order()]


VAR_DESCRIPTORS = [parse_descriptor("var:A5"),
                   parse_descriptor("prod(var:A5,A)")]


def a5_subgroups(catalog):
    """A5 from the catalog with its first proper subgroup of each order."""
    a5 = next(G for G in catalog if G.name == "A5")
    by_order = {}
    for G, gens in proper_subgroups(a5):
        by_order.setdefault(G.subgroup(gens).order(), (G, gens))
    return list(by_order.values())


@pytest.fixture(scope="module")
def var_verdicts_on_fresh_contexts():
    """Per fixture set, var: verdicts on subgroups of A5, each set on
    catalog copies of its own."""
    out = {}
    for fixtures in ([], bundled_fixtures()):
        ctx = fresh_context(fixtures)
        out[bool(fixtures)] = verdicts(ctx, a5_subgroups(ctx.catalog),
                                       VAR_DESCRIPTORS)
    assert out[False] != out[True]  # the fixtures decide some of them
    return out


@pytest.mark.parametrize("catalog", ["bundled", "copy"])
@pytest.mark.parametrize("first", [False, True],
                         ids=["no-fixtures-first", "fixtures-first"])
def test_var_memberships_follow_the_fixtures_on_a_shared_catalog(
        var_verdicts_on_fresh_contexts, catalog, first):
    # membership in var:A5 hangs on the fixtures (A5 is a member only by
    # its known-member fixture), and two contexts share one catalog
    shared = (bundled_catalog() if catalog == "bundled"
              else [fresh_copy(C) for C in bundled_catalog()])
    contexts = {False: EngineContext(fixtures=[], catalog=shared),
                True: EngineContext(fixtures=bundled_fixtures(),
                                    catalog=shared)}
    for with_fixtures in (first, not first):
        assert (verdicts(contexts[with_fixtures], a5_subgroups(shared),
                         VAR_DESCRIPTORS)
                == var_verdicts_on_fresh_contexts[with_fixtures])


def test_verdicts_do_not_depend_on_memo_state():
    # every proper subgroup of every catalog group of order <= 24: the
    # warm shared catalog, a second pass in reverse order, and for each
    # group a fresh copy of the whole catalog must give the same bytes
    descriptors = [parse_descriptor("laws:{x1^6}"),
                   parse_descriptor("prod(A,A)"), parse_descriptor("Sl:3")]
    ctx = EngineContext.bundled()
    inputs = [pair for G in ctx.catalog if G.order() <= 24
              for pair in proper_subgroups(G)]
    warm = verdicts(ctx, inputs, descriptors)
    assert verdicts(ctx, inputs[::-1], descriptors) == warm
    fresh = {}
    for name in dict.fromkeys(G.name for G, _ in inputs):
        ctx = fresh_context(bundled_fixtures())
        G = next(C for C in ctx.catalog if C.name == name)
        fresh.update(verdicts(ctx, proper_subgroups(G), descriptors))
    assert fresh == warm


def test_a_var_group_outside_the_catalog_is_built_and_screened_once(
        monkeypatch):
    """The descriptor builds S6 when it is made and keeps it as desc.group,
    whose memo holds the screen."""
    screened = []
    derived_length = varieties.derived_length

    def counting_derived_length(S):
        screened.append(S)
        return derived_length(S)

    monkeypatch.setattr(varieties, "derived_length", counting_derived_length)
    desc = parse_descriptor("var:S6")
    assert desc.group.order() == 720 and desc.group.name == "S6"
    S4 = symmetric_group(4)
    assert [member_of_variety(S4, desc) for _ in range(3)] == [None] * 3
    assert screened == [desc.group]
