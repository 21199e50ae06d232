"""The separating-pair search lists no hom when HV(G) = G.

Every hom from G into a member C of the variety V kills the verbal
subgroup V(G), since V(C) = 1.  So when H times V(G) is G, two homs that
agree on H agree on G, and no catalog member can separate.
``separating_pair_search`` tests that cover once, after the first member
with more than one hom fails to separate, and then only walks the
memberships and hom budgets.  These tests check that the skip moves no
report: against the search with the cover test forced to "not covered",
against hom counts and budget stops, and against V(G) built by brute
force from the law values with ``mulclose``, which shares no code with the
skip.
"""

import sys

import pytest

from vlab import engine, homs
from vlab.catalog import bundled_catalog, bundled_fixtures
from vlab.config import Budgets
from vlab.engine import NOT_EPI, UNKNOWN, EngineContext, epi_decide
from vlab.perm import PermutationGroup
from vlab.structure import all_subgroups
from vlab.varieties import member_of_variety, parse_descriptor, q_verbal

from .conftest import mulclose

SEARCH = engine.separating_pair_search.__code__
POOL_ORDER = 24  # the REACH.json pool: proper subgroups, |G| <= 24
DESCRIPTORS = ("laws:{x1^6}", "laws:{x1^2}", "A", "Nc:2", "prod(A,A)")
POWER_LAWS = {"laws:{x1^6}": 6, "laws:{x1^2}": 2}


@pytest.fixture(scope="module")
def pool():
    ctx = EngineContext.bundled()
    return [(G, H) for G in ctx.catalog if G.order() <= POOL_ORDER
            for H in all_subgroups(G, ctx.budgets) if H.order() < G.order()]


def spy_cover(monkeypatch, force=None):
    """Record the search's cover test as [(G, H, covers)], and answer force
    instead when it is given.  The product rules' calls pass through."""
    seen = []
    step = engine._product_step

    def spy(G, H, desc, ctx):
        verbal, trace, covers = step(G, H, desc, ctx)
        if sys._getframe(1).f_code is SEARCH:
            covers = covers if force is None else force
            seen.append((G, H, covers))
        return verbal, trace, covers

    monkeypatch.setattr(engine, "_product_step", spy)
    return seen


def count_enumerations(monkeypatch):
    calls = []
    enumerate_homs = homs._enumerate_homs

    def counting(G, C, budgets):
        calls.append(C)
        return enumerate_homs(G, C, budgets)

    monkeypatch.setattr(homs, "_enumerate_homs", counting)
    return calls


def decide_all(pool, desc):
    ctx = EngineContext.bundled()
    return [epi_decide(G, H, desc, ctx).to_json() for G, H in pool]


@pytest.mark.parametrize("text", DESCRIPTORS)
def test_the_skip_moves_no_report_on_the_pool(pool, text, monkeypatch):
    desc = parse_descriptor(text)
    seen = spy_cover(monkeypatch)
    with_skip = decide_all(pool, desc)
    assert any(covers for _, _, covers in seen)
    monkeypatch.undo()
    spy_cover(monkeypatch, force=False)
    assert decide_all(pool, desc) == with_skip


# -- one covered input: D7 over a reflection, under laws:{x1^6} -------------


@pytest.fixture
def d7():
    return next(G for G in bundled_catalog() if G.name == "D7")


@pytest.fixture
def reflection(d7):
    return d7.subgroup([next(g for g in d7.elements() if g.order() == 2)])


def both_ways(monkeypatch, G, H, desc, make_ctx):
    """(verdict JSON, _enumerate_homs calls, cover answers) with the skip,
    then with the cover test forced to "not covered".  Each side gets a
    fresh context and a fresh copy of G, whose memo holds no hom list."""
    results = []
    for force in (None, False):
        monkeypatch.undo()
        seen = spy_cover(monkeypatch, force)
        calls = count_enumerations(monkeypatch)
        fresh = PermutationGroup(G.degree, G.generators, name=G.name)
        sub = fresh.subgroup(H.generators)
        verdict = epi_decide(fresh, sub, desc, make_ctx()).to_json()
        results.append((verdict, len(calls), seen))
    return results


def members_until_a_choice(G, desc):
    """The members of the variety, in catalog order, up to and including
    the first with more than one hom from G: the search lists these before
    it runs the cover test."""
    members = [C for C in bundled_catalog()
               if member_of_variety(C, desc) is True]
    count = next(i for i, C in enumerate(members, 1)
                 if len(homs.all_homomorphisms(G, C)) > 1)
    return members[:count]


def test_a_covered_input_lists_homs_only_until_the_cover_test(
        d7, reflection, monkeypatch):
    desc = parse_descriptor("laws:{x1^6}")
    (skip, skip_calls, seen), (full, full_calls, _) = both_ways(
        monkeypatch, d7, reflection, desc, EngineContext.bundled)
    in_variety = sum(member_of_variety(C, desc) is True
                     for C in bundled_catalog())
    listed = members_until_a_choice(d7, desc)
    assert [C.name for C in listed] == ["1", "C2"]
    assert [covers for *_, covers in seen] == [True]
    assert (skip_calls, full_calls) == (len(listed), in_variety)
    assert skip == full and skip["outcome"] == UNKNOWN


def test_a_hom_budget_skip_keeps_its_notes(d7, reflection, monkeypatch):
    desc = parse_descriptor("laws:{x1^6}")
    budgets = Budgets(max_hom_product=d7.order() * 6)
    (skip, skip_calls, _), (full, full_calls, _) = both_ways(
        monkeypatch, d7, reflection, desc,
        lambda: EngineContext.bundled(budgets))
    assert skip_calls == len(members_until_a_choice(d7, desc)) < full_calls
    assert skip == full
    assert any(note.endswith("skipped: hom budget") for note in skip["notes"])


def test_an_enumeration_stop_is_the_same_unknown(d7, reflection,
                                                 monkeypatch):
    # Seeded with an unlimited context's membership answers, the walk stops
    # at no member, so the stop comes from the hom budgets of C3xC6, the
    # first member in the variety of order above max_enumerate.
    desc = parse_descriptor("laws:{x1^6}")
    budgets = Budgets(max_enumerate=17)
    answers = {C: member_of_variety(C, desc) for C in bundled_catalog()}

    def seeded():
        ctx = EngineContext.bundled(budgets)
        ctx.memberships[str(desc)] = dict(answers)
        return ctx

    (skip, _, _), (full, _, _) = both_ways(monkeypatch, d7, reflection, desc,
                                           seeded)
    assert skip == full and skip["outcome"] == UNKNOWN
    assert skip["notes"][-1] == ("stopped: max_enumerate: 18 exceeds the "
                                 "limit 17")


def test_a_tuple_stop_in_the_cover_test_runs_the_search(d7, reflection,
                                                        monkeypatch):
    # D7 fails x1^6, so its own membership stops at the first law; the
    # cover test lists 14^3 tuples of the three-variable law, over the cap,
    # while each catalog member up to order 12 lists at most 12^3.
    desc = parse_descriptor("laws:{x1^6;x1^6x2^6x3^6}")
    budgets = Budgets(max_tuples=2000)
    catalog = [C for C in bundled_catalog() if C.order() <= 12]

    def small():
        return EngineContext(fixtures=bundled_fixtures(), catalog=catalog,
                             budgets=budgets)

    (skip, skip_calls, seen), (full, full_calls, _) = both_ways(
        monkeypatch, d7, reflection, desc, small)
    in_variety = sum(member_of_variety(C, desc, budgets) is True
                     for C in catalog)
    assert seen == []  # the test raised: the spy saw no answer
    assert skip_calls == full_calls == in_variety > 0
    assert skip == full and skip["outcome"] == UNKNOWN


# -- an oracle that shares no code with the skip -----------------------------


def brute_verbal(G, exponent: int):
    """The normal closure of every value of x1^exponent in G, by closure."""
    elements = mulclose(list(G.generators))
    values = {(g ** exponent).images: g ** exponent for g in elements}
    return mulclose([x.inverse() * v * x for x in elements
                     for v in values.values()])


@pytest.mark.parametrize("text", list(POWER_LAWS))
def test_the_skip_fires_exactly_where_brute_force_covers(pool, text,
                                                         monkeypatch):
    desc = parse_descriptor(text)
    ctx = EngineContext.bundled()
    seen = spy_cover(monkeypatch)
    outcomes = [(G, H, epi_decide(G, H, desc, ctx).outcome) for G, H in pool]
    verbal = {G: brute_verbal(G, POWER_LAWS[text]) for G, _ in pool}
    order = {G: len(mulclose(list(G.generators))) for G in verbal}

    def covers(G, H):
        products = {(h * v).images for h in mulclose(list(H.generators))
                    for v in verbal[G]}
        return len(products) == order[G]

    fired = [(G, H) for G, H, answer in seen if answer]
    assert fired
    for G, H in fired:
        assert len(verbal[G]) == q_verbal(G, desc).order()
        assert covers(G, H)
    assert all(answer == covers(G, H) for G, H, answer in seen)
    assert not any(covers(G, H) for G, H, outcome in outcomes
                   if outcome == NOT_EPI)
