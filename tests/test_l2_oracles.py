"""Oracles for the structure queries that a listed root answers from its
element positions: conjugacy classes, normality and solvability.

None of these share code with the position path: `sympy.combinatorics`
(skipped when absent), and brute force over `mulclose` closures with
conjugation written as g^-1 * x * g.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import mulclose
from vlab import structure
from vlab.catalog import bundled_catalog
from vlab.engine import (NOT_EPI, EngineContext, EpiVerdict,
                         verify_certificate)
from vlab.perm import (Permutation, PermutationGroup, parse_permutation,
                       symmetric_group)
from vlab.structure import (all_subgroups, conjugacy_classes,
                            derived_series, is_normal, is_solvable)
from vlab.varieties import parse_descriptor

try:
    from sympy import combinatorics
except ImportError:
    combinatorics = None

CATALOG_UP_TO_24 = [G for G in bundled_catalog() if G.order() <= 24]


def fresh(G: PermutationGroup) -> PermutationGroup:
    return PermutationGroup(G.degree, G.generators, name=G.name)


# -- sympy on random generator sets, on both paths ---------------------------


@st.composite
def group_and_subgroup(draw):
    """Up to three permutations of degree <= 7 and up to two words in them."""
    n = draw(st.integers(1, 7))
    perms = st.permutations(range(n)).map(lambda p: Permutation(tuple(p)))
    gens = draw(st.lists(perms, min_size=1, max_size=3))
    words = draw(st.lists(st.lists(st.integers(0, len(gens) - 1),
                                   min_size=1, max_size=4),
                          min_size=1, max_size=2))
    sub = []
    for word in words:
        x = Permutation.identity(n)
        for i in word:
            x = x * gens[i]
        sub.append(x)
    return n, gens, sub


def sympy_answers(gens, sub):
    """(order, class count, solvable, derived orders, normality of <sub>,
    generators of the normal closure of sub) from sympy."""

    def group(perms):
        return combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(p.images)) for p in perms])

    G, N = group(gens), group(sub)
    closure = G.normal_closure(N)
    closure_gens = [Permutation(tuple(p.array_form))
                    for p in closure.generators]
    answers = (G.order(), len(G.conjugacy_classes()), G.is_solvable,
               [H.order() for H in G.derived_series()], N.is_normal(G))
    return answers, closure_gens


def vlab_answers(G, N, closure):
    answers = (G.order(), len(conjugacy_classes(G)), is_solvable(G),
               [H.order() for H in derived_series(G)], is_normal(G, N))
    return answers, is_normal(G, closure)


@pytest.mark.skipif(combinatorics is None, reason="sympy is not installed")
@settings(max_examples=30, deadline=None)
@given(group_and_subgroup())
def test_structure_queries_match_sympy(case):
    n, gens, sub = case
    expected, closure_gens = sympy_answers(gens, sub)
    chain = vlab_answers(PermutationGroup(n, gens),
                         PermutationGroup(n, sub),
                         PermutationGroup(n, closure_gens))
    root = symmetric_group(n)
    root.elements()
    listed = vlab_answers(root.subgroup(gens), root.subgroup(sub),
                          root.subgroup(closure_gens))
    assert chain == listed == (expected, True)


# -- brute force on the catalog -----------------------------------------------


def brute_classes(elements):
    """Orbits of every element under conjugation by every element."""
    seen, classes = set(), []
    for x in elements:
        if x.images in seen:
            continue
        orbit = sorted({(g.inverse() * x * g).images for g in elements})
        seen.update(orbit)
        classes.append(orbit)
    return classes


def brute_is_normal(group_elements, N):
    members = {x.images for x in mulclose(list(N.generators))}
    return all((g.inverse() * Permutation(x) * g).images in members
               for x in members for g in group_elements)


@pytest.mark.parametrize("G", CATALOG_UP_TO_24, ids=lambda G: G.name)
def test_classes_and_normality_match_brute_force(G):
    elements = mulclose(list(G.generators))
    expected = brute_classes(elements)
    listed = fresh(G)
    assert [[x.images for x in cls]
            for cls in conjugacy_classes(listed)] == expected
    chain_G = fresh(G)
    for N in all_subgroups(listed):  # subgroups of the listed root
        truth = brute_is_normal(elements, N)
        assert is_normal(listed, N) == truth
        assert is_normal(chain_G, PermutationGroup(G.degree,
                                                   N.generators)) == truth
    assert chain_G._elements is None  # the chain answered


# -- solvability memoised by member set ---------------------------------------


def test_two_generating_sets_compute_the_derived_series_once(monkeypatch):
    S4 = symmetric_group(4)
    S4.elements()
    calls = []
    derived_subgroup = structure.derived_subgroup

    def counting(G):
        calls.append(G)
        return derived_subgroup(G)

    monkeypatch.setattr(structure, "derived_subgroup", counting)
    one = S4.subgroup([parse_permutation("(0 1 2)", 4),
                       parse_permutation("(1 2 3)", 4)])
    other = S4.subgroup([parse_permutation("(0 1)(2 3)", 4),
                         parse_permutation("(0 2 1)", 4)])
    assert one.elements() == other.elements()  # both are A4
    assert is_solvable(one)
    assert calls
    computed = len(calls)
    assert is_solvable(other)
    assert len(calls) == computed


def test_nonsolvable_normal_in_a_neumann_certificate_is_rejected(
        monkeypatch):
    """S5 with N = A5 and H = <(0 1)>: every hypothesis of the rule holds
    but the solvability of N, so the certificate must verify False, also
    once the root's memo holds solvability for other subgroups."""
    ctx = EngineContext.bundled()
    S5 = symmetric_group(5)
    A5 = S5.subgroup([parse_permutation("(0 1 2)", 5),
                      parse_permutation("(0 1 2 3 4)", 5)])
    H = S5.subgroup([parse_permutation("(0 1)", 5)])
    desc = parse_descriptor("laws:{x1^60}")  # S5 has exponent 60
    certificate = {
        "kind": "neumann-solvable-complement",
        "normal": {"name": "A5", "degree": 5, "order": 60,
                   "generators": [str(g) for g in A5.generators]},
        "normal_is_solvable": True, "product_covers": True,
        "subgroup_order": 2, "group_order": 120,
    }
    verdict = EpiVerdict(outcome=NOT_EPI, certificate=certificate,
                         derivation=[], budgets=ctx.budgets.as_dict())
    assert verify_certificate(S5, H, desc, verdict, ctx) is False
    solvable = [is_solvable(K) for K in all_subgroups(S5)]
    assert solvable.count(False) == 2  # A5 and S5
    assert verify_certificate(S5, H, desc, verdict, ctx) is False
    # every other hypothesis holds: only solvability rejects it
    monkeypatch.setattr("vlab.engine.is_solvable", lambda N: True)
    assert verify_certificate(S5, H, desc, verdict, ctx) is True
