import copy
import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from vlab import engine, homs, varieties
from vlab.catalog import resolve_group_name
from vlab.config import MAX_CHAIN_WORK, MAX_NESTING, Budgets
from vlab.constructions import MAX_DEGREE, regular_wreath
from vlab.engine import (EPI, NOT_EPI, UNKNOWN, EngineContext, EpiVerdict,
                         EscapeExhausted, _neumann_cert, dominion_bounds,
                         epi_decide, find_wreath_escape, is_simple_nonabelian,
                         mckay_bound, neumann_not_epi_test,
                         separating_pair_search, simpletimes_pipeline,
                         verify_certificate, verify_qofsimple)
from vlab.errors import BudgetExceeded, GroupError
from vlab.perm import (Permutation, PermutationGroup, StabilizerChain,
                       alternating_group, cyclic_group, pad_permutation,
                       parse_permutation, symmetric_group)
from vlab.structure import (all_subgroups, nilpotency_class,
                            normal_subgroups, product_covers, quotient,
                            solvable_radical, subgroup_intersection)
from vlab.varieties import (Abelian, ProductVariety, SolvableLength,
                            VarOfGroup, member_of_variety, parse_descriptor)


@pytest.fixture(scope="module")
def s4():
    return symmetric_group(4)


@pytest.fixture(scope="module")
def s3_in_s4(s4):
    return s4.subgroup([pad_permutation(g, 4)
                        for g in symmetric_group(3).generators], name="S3<S4")


class TestNeumannTest:
    def test_s4_s3(self, ctx, s4, s3_in_s4):
        verdict = neumann_not_epi_test(s4, s3_in_s4, ctx)
        assert verdict.outcome == NOT_EPI
        cert = verdict.certificate
        assert cert["kind"] == "neumann-solvable-complement"
        # N = the radical = S4 itself here; certificate re-verifies
        assert cert["normal"]["order"] == 24
        assert verify_certificate(s4, s3_in_s4, SolvableLength(3),
                                  verdict, ctx)

    def test_verifier_checks_the_group_lies_in_the_variety(self, ctx, c4,
                                                           c2_in_c4):
        # the rule needs G in the variety: C4 lies in A, where C2 < C4 is
        # separated, but not in laws:{x1}, the trivial variety, where the
        # decider gives no such certificate
        verdict = epi_decide(c4, c2_in_c4, Abelian(), ctx)
        assert verdict.certificate["kind"] == "neumann-solvable-complement"
        assert verify_certificate(c4, c2_in_c4, Abelian(), verdict, ctx)
        trivial = parse_descriptor("laws:{x1}")
        assert member_of_variety(c4, trivial) is False
        assert not verify_certificate(c4, c2_in_c4, trivial, verdict, ctx)

    def test_verification_parses_no_permutation(self, ctx, s4, s3_in_s4,
                                                 monkeypatch):
        verdict = neumann_not_epi_test(s4, s3_in_s4, ctx)
        calls = []

        def counting(text, degree):
            calls.append(text)
            return parse_permutation(text, degree)

        monkeypatch.setattr("vlab.engine.parse_permutation", counting)
        assert verify_certificate(s4, s3_in_s4, SolvableLength(3), verdict,
                                  ctx)
        assert calls == []

    def test_a_warm_certificate_builds_no_cycle_string(self, ctx,
                                                       monkeypatch):
        # the radical's generators keep their strings from the first op,
        # so a second subgroup of the same G stringifies nothing
        s4, desc = symmetric_group(4), SolvableLength(3)
        first = s4.subgroup([parse_permutation("(0 1)", 4)])
        assert verify_certificate(s4, first, desc,
                                  epi_decide(s4, first, desc, ctx), ctx)
        calls = []
        cycles = Permutation.cycles

        def counting(p):
            calls.append(p)
            return cycles(p)

        monkeypatch.setattr(Permutation, "cycles", counting)
        second = s4.subgroup([parse_permutation("(0 1 2)", 4)])
        verdict = epi_decide(s4, second, desc, ctx)
        assert verdict.certificate["kind"] == "neumann-solvable-complement"
        assert verify_certificate(s4, second, desc, verdict, ctx) is True
        assert calls == []

    def test_a_normal_subgroup_other_than_the_radical_is_rejected(
            self, ctx, s4, s3_in_s4):
        # V4 is solvable and normal in S4 and covers with S3, so the rule
        # holds with it too; but the one certificate of the fact names
        # the radical, here S4 itself
        v4 = s4.subgroup([parse_permutation("(0 1)(2 3)", 4),
                          parse_permutation("(0 2)(1 3)", 4)])
        assert product_covers(s4, s3_in_s4, v4)
        verdict = EpiVerdict(NOT_EPI, {
            "kind": "neumann-solvable-complement",
            "normal": {"name": "V4", "degree": 4, "order": 4,
                       "generators": [str(g) for g in v4.generators]},
            "normal_is_solvable": True, "product_covers": True,
            "subgroup_order": 6, "group_order": 24}, [], {})
        assert verify_certificate(s4, s3_in_s4, SolvableLength(3), verdict,
                                  ctx) is False

    def test_a5_a4_inconclusive(self, ctx, a5, a4_in_a5):
        assert neumann_not_epi_test(a5, a4_in_a5, ctx) is None

    def test_whole_group_inconclusive(self, ctx, s4):
        assert neumann_not_epi_test(s4, s4, ctx) is None


class TestSeparatingPairSearch:
    def test_c4_identity_inversion(self, ctx, c4, c2_in_c4):
        verdict = separating_pair_search(c4, c2_in_c4, Abelian(),
                                         EngineContext(catalog=[c4]))
        assert verdict.outcome == NOT_EPI
        cert = verdict.certificate
        gen = c4.generators[0]
        assert cert["f_images"] == [str(gen)]
        assert cert["g_images"] == [str(gen.inverse())]
        assert cert["witness"] == str(gen)
        assert verify_certificate(c4, c2_in_c4, Abelian(), verdict, ctx)

    def test_a5_a4_inconclusive_after_full_enumeration(self, a5, a4_in_a5):
        # S5 satisfies x^60, so the catalog member is admitted and all
        # homomorphism pairs get examined; none separates
        desc = parse_descriptor("laws:{x1^60}")
        ctx = EngineContext(catalog=[symmetric_group(5)])
        verdict = separating_pair_search(a5, a4_in_a5, desc, ctx)
        assert verdict is None

    def test_screen_skips_nonmembers_silently_and_unknowns_with_note(
            self, ctx, a5, a4_in_a5):
        # S5 violates the exponent-30 law of A5: screened out, nothing to do
        notes = []
        s5_only = EngineContext(fixtures=ctx.fixtures,
                                catalog=[symmetric_group(5)])
        verdict = separating_pair_search(a5, a4_in_a5, VarOfGroup("A5"),
                                         s5_only, notes=notes)
        assert verdict is None
        assert notes == []  # definitive non-members are silently irrelevant
        # C2 passes the screen but no fixture decides: skipped with a note
        c2_only = EngineContext(fixtures=ctx.fixtures,
                                catalog=[cyclic_group(2)])
        verdict = separating_pair_search(a5, a4_in_a5, VarOfGroup("A5"),
                                         c2_only, notes=notes)
        assert verdict is None
        assert any("membership" in note and "unknown" in note
                   for note in notes)

    def test_whole_group_inconclusive(self, c4):
        assert separating_pair_search(c4, c4, Abelian(),
                                      EngineContext(catalog=[c4])) is None

    def test_hom_budget_skips_a_member_with_a_note(self, c4, c2_in_c4):
        ctx = EngineContext(catalog=[cyclic_group(12), c4],
                            budgets=Budgets(max_hom_product=20))
        notes = []
        verdict = separating_pair_search(c4, c2_in_c4, Abelian(), ctx,
                                         notes=notes)
        assert notes == ["catalog group C12 skipped: hom budget"]
        assert verdict.outcome == NOT_EPI
        cert = verdict.certificate
        assert cert["codomain"]["name"] == "C4"
        assert (cert["f_images"], cert["g_images"]) == (
            ["(0 1 2 3)"], ["(0 3 2 1)"])

    def test_other_budgets_still_stop_the_search(self, c4, c2_in_c4):
        ctx = EngineContext(catalog=[cyclic_group(12)],
                            budgets=Budgets(max_enumerate=10))
        with pytest.raises(BudgetExceeded) as info:
            separating_pair_search(c4, c2_in_c4, Abelian(), ctx)
        exc = info.value
        assert (exc.budget_name, exc.limit, exc.requested) == (
            "max_enumerate", 10, 12)

    def test_hom_budget_verdict_and_notes_through_the_engine(self, a5,
                                                             a4_in_a5):
        ctx = EngineContext.bundled(Budgets(max_hom_product=100))
        verdict = epi_decide(a5, a4_in_a5, parse_descriptor("laws:{x1^6}"),
                             ctx)
        skipped = ["C2", "C3", "C2^2", "C6", "S3", "C2^3", "C3^2", "C6xC2",
                   "D6", "A4", "C2^4", "C3xC6", "C3xS3", "C3^2:C2",
                   "C6xC2^2", "A4xC2", "S3xC2^2", "C3wrC2", "C2wrC3"]
        assert verdict.outcome == UNKNOWN
        assert verdict.certificate is None
        assert verdict.notes == [
            "solvable-complement test skipped: membership of the group in "
            "laws:{x1^6} is False",
            *(f"catalog group {name} skipped: hom budget" for name in skipped),
            "fixtures, solvable-complement test and separating-pair search "
            "were all inconclusive"]


class TestMcKayBound:
    def test_examples(self, ctx, a5, a4_in_a5, s4, s3_in_s4):
        assert mckay_bound(a5, a4_in_a5, Abelian(), ctx).order() == 60
        assert mckay_bound(s4, s3_in_s4, Abelian(), ctx).order() == 24
        assert mckay_bound(s4, s4, Abelian(), ctx).order() == 24


class TestDominionBounds:
    def test_neumann_instance_exact(self, ctx, a5, a4_in_a5):
        bounds = dominion_bounds(a5, a4_in_a5,
                                 parse_descriptor("prod(var:A5,A)"), ctx)
        assert bounds.exact
        assert bounds.lower.order() == 60
        assert bounds.upper.order() == 60

    def test_whole_group(self, ctx, s4):
        bounds = dominion_bounds(s4, s4, Abelian(), ctx)
        assert bounds.exact and bounds.lower.order() == 24

    def test_solvable_base(self, ctx, c4, c2_in_c4):
        bounds = dominion_bounds(c4, c2_in_c4, Abelian(), ctx)
        assert bounds.exact
        assert bounds.lower.order() == 2 and bounds.upper.order() == 2

    def test_sandwich_on_random_instances(self, ctx):
        rng = random.Random(42)
        eligible = [g for g in ctx.catalog if g.order() <= 200]
        descs = [Abelian(), ProductVariety(Abelian(), Abelian()),
                 SolvableLength(2),
                 ProductVariety(VarOfGroup("A5"), Abelian())]
        for _ in range(40):
            G = eligible[rng.randrange(len(eligible))]
            elements = G.elements()
            k = rng.randint(0, 2)
            H = G.subgroup([elements[rng.randrange(len(elements))]
                            for _ in range(k)])
            desc = descs[rng.randrange(len(descs))]
            bounds = dominion_bounds(G, H, desc, ctx)
            assert H.is_subgroup_of(bounds.lower), (G.name, str(desc))
            assert bounds.lower.is_subgroup_of(bounds.upper), (G.name,
                                                               str(desc))
            assert bounds.upper.is_subgroup_of(G), (G.name, str(desc))

    def test_solvable_class_pinches_only_normal_subgroups(self, ctx, s4,
                                                          s3_in_s4):
        # S4 lies in Sl:3; A4 is normal in it, S3 is not
        desc = SolvableLength(3)
        a4 = s4.subgroup(alternating_group(4).generators)
        bounds = dominion_bounds(s4, a4, desc, ctx)
        assert bounds.exact and bounds.upper.order() == 12
        bounds = dominion_bounds(s4, s3_in_s4, desc, ctx)
        assert not bounds.exact
        assert bounds.lower.order() == 6 and bounds.upper.order() == 24

    def test_non_member_solvable_ambient_gets_trivial_sandwich(self, ctx):
        # A4 is not abelian: the abelian-base pinch does not apply
        a4 = alternating_group(4)
        h = a4.subgroup([parse_permutation("(0 1)(2 3)", 4)])
        bounds = dominion_bounds(a4, h, Abelian(), ctx)
        assert not bounds.exact
        assert bounds.lower.order() == 2
        assert bounds.upper.order() == 12

    def test_rejects_a_subgroup_of_another_group(self, ctx, c4):
        # the 4-cycle is odd, so C4 does not lie in A4
        with pytest.raises(GroupError, match="H must be a subgroup of G"):
            dominion_bounds(alternating_group(4), c4, Abelian(), ctx)


def sweep_on_catalog_copies(ctx, desc):
    """Decide every proper subgroup of every catalog group of order <= 24
    in a context on catalog copies of its own, so no memo starts warm."""
    fresh = EngineContext(fixtures=ctx.fixtures, catalog=[
        PermutationGroup(C.degree, C.generators, name=C.name)
        for C in ctx.catalog])
    for G in fresh.catalog:
        if G.order() > 24:
            continue
        for H in all_subgroups(G):
            if H.order() < G.order():
                epi_decide(G, H, desc, fresh)


class TestEpiDecide:
    def test_answers_at_the_nesting_cap(self, ctx, s4, s3_in_s4):
        # S4 has derived length 3, so it lies in A^3 and in A^51 alike
        desc = parse_descriptor("prod(" * MAX_NESTING + "A"
                                + ",A)" * MAX_NESTING)
        verdict = epi_decide(s4, s3_in_s4, desc, ctx)
        assert verdict.outcome == epi_decide(
            s4, s3_in_s4, parse_descriptor("prod(prod(A,A),A)"), ctx).outcome
        assert verify_certificate(s4, s3_in_s4, desc, verdict, ctx)

    def test_fixture_instance(self, ctx, a5, a4_in_a5):
        verdict = epi_decide(a5, a4_in_a5, VarOfGroup("A5"), ctx)
        assert verdict.outcome == EPI
        assert verdict.certificate["node"]["rule"] == "fixture"

    def test_product_instance(self, ctx, a5, a4_in_a5):
        desc = parse_descriptor("prod(var:A5,A)")
        verdict = epi_decide(a5, a4_in_a5, desc, ctx)
        assert verdict.outcome == EPI
        node = verdict.certificate["node"]
        assert node["rule"] == "product-splitting"
        assert node["cover_ok"] and node["verbal_order"] == 60
        assert node["inner"]["rule"] == "fixture"
        assert verify_certificate(a5, a4_in_a5, desc, verdict, ctx)

    def test_product_nilpotent_instance(self, ctx, a5, a4_in_a5):
        desc = parse_descriptor("prod(var:A5,Nc:2)")
        verdict = epi_decide(a5, a4_in_a5, desc, ctx)
        assert verdict.outcome == EPI
        assert verify_certificate(a5, a4_in_a5, desc, verdict, ctx)

    def test_solvable_rule(self, ctx, c4, c2_in_c4):
        verdict = epi_decide(c4, c2_in_c4, Abelian(), ctx)
        assert verdict.outcome == NOT_EPI
        assert verify_certificate(c4, c2_in_c4, Abelian(), verdict, ctx)

    def test_whole_subgroup_epi(self, ctx, s4):
        assert epi_decide(s4, s4, Abelian(), ctx).outcome == EPI

    def test_cover_failure(self, ctx, a5):
        # C5 < A5 under prod(var:A5, A): A(A5) = A5 covers, recursion hits
        # the fixture gap; but under prod(A, var:A5): the var:A5-verbal
        # subgroup is fixture-gapped -> unknown absorbed
        c5 = a5.subgroup([parse_permutation("(0 1 2 3 4)", 5)])
        verdict = epi_decide(a5, c5, parse_descriptor("prod(A,var:A5)"), ctx)
        assert verdict.outcome == UNKNOWN

    def test_unknown_when_fixtureless(self, a5, a4_in_a5):
        bare = EngineContext(fixtures=[], catalog=[], budgets=Budgets())
        verdict = epi_decide(a5, a4_in_a5, VarOfGroup("A5"), bare)
        assert verdict.outcome == UNKNOWN
        assert verdict.certificate is None

    def test_cover_failure_certificate(self, ctx):
        # S4 under prod(A, A): C3 times the derived subgroup misses S4, so
        # the verbal-times-subgroup bound is proper
        s4 = symmetric_group(4)
        h = s4.subgroup([parse_permutation("(0 1 2)", 4)])
        desc = parse_descriptor("prod(A,A)")
        verdict = epi_decide(s4, h, desc, ctx)
        assert verdict.outcome == NOT_EPI
        assert verdict.certificate["kind"] == "verbal-cover-failure"
        assert verify_certificate(s4, h, desc, verdict, ctx)

    @pytest.mark.parametrize("text", ["prod(laws:{x1},A)",
                                      "prod(laws:{x1^2;x1^3},A)"])
    def test_trivial_left_factor_has_no_cover_failure(self, ctx, c4,
                                                      c2_in_c4, text):
        # prod(1, A) = A: the product bound needs some C_p in the left
        # factor, so neither the decider nor the verifier may use it
        desc = parse_descriptor(text)
        verdict = epi_decide(c4, c2_in_c4, desc, ctx)
        assert "verbal-cover-failure" not in str(verdict.certificate)
        assert any("not known to be nontrivial" in note
                   for note in verdict.notes)
        assert verify_certificate(c4, c2_in_c4, desc, verdict, ctx)
        old = EpiVerdict(
            outcome=NOT_EPI, derivation=[], budgets=ctx.budgets.as_dict(),
            certificate={"kind": "verbal-cover-failure",
                         "quotient_descriptor": "A", "verbal_order": 1,
                         "bound_order": 2, "group_order": 4})
        assert not verify_certificate(c4, c2_in_c4, desc, old, ctx)
        nontrivial = parse_descriptor("prod(laws:{x1^2},A)")
        assert verify_certificate(c4, c2_in_c4, nontrivial, old, ctx)
        bounds = dominion_bounds(c4, c2_in_c4, desc, ctx)
        assert bounds.upper.order() == 4 and not bounds.exact

    def test_inner_dominion_failure(self, ctx, a5):
        # C5 < A5 under prod(var:A5, A): the cover holds (the verbal
        # subgroup is all of A5) but the trace C5 is separated inside A5
        c5 = a5.subgroup([parse_permutation("(0 1 2 3 4)", 5)])
        desc = parse_descriptor("prod(var:A5,A)")
        verdict = epi_decide(a5, c5, desc, ctx)
        assert verdict.outcome == NOT_EPI
        cert = verdict.certificate
        assert cert["kind"] == "inner-dominion-failure"
        assert cert["inner"]["kind"] == "separating-pair"
        assert verify_certificate(a5, c5, desc, verdict, ctx)

    def test_inner_failure_without_membership_is_unknown(self, ctx):
        # S4 with H = S3 under prod(A, A): the cover holds but S4 is not
        # metabelian, so an inner failure would not transfer; here the
        # inner question is itself undecided and the verdict stays unknown
        s4 = symmetric_group(4)
        s3 = s4.subgroup([pad_permutation(g, 4)
                          for g in symmetric_group(3).generators])
        verdict = epi_decide(s4, s3, parse_descriptor("prod(A,A)"), ctx)
        assert verdict.outcome == UNKNOWN

    def test_inner_failure_guard_notes_missing_membership(self, ctx):
        # SL(2,3) with a Sylow 3: the trace inside Q8 is separated, but
        # SL(2,3) is not metabelian, so the failure must not transfer; the
        # base rules then find a separating pair
        sl23 = resolve_group_name("SL23")
        syl3 = next(g for g in sl23.elements() if g.order() == 3)
        h = sl23.subgroup([syl3])
        desc = parse_descriptor("prod(A,A)")
        verdict = epi_decide(sl23, h, desc, ctx)
        assert any("does not transfer" in note for note in verdict.notes)
        assert verdict.certificate["kind"] != "inner-dominion-failure"
        assert verdict.outcome == NOT_EPI
        assert verdict.certificate["kind"] == "separating-pair"
        assert verdict.certificate["codomain"]["name"] == "A4"
        assert verify_certificate(sl23, h, desc, verdict, ctx)

    def test_undecided_product_step_reaches_the_base_rules(self, ctx):
        # SL(2,3) > C3 under prod(laws:{x1^3}, A): HV = G for V = Q8, and
        # Q8 > 1 is undecided within exponent 3, so the base rules run
        sl23 = resolve_group_name("SL23")
        syl3 = next(g for g in sl23.elements() if g.order() == 3)
        h = sl23.subgroup([syl3])
        desc = parse_descriptor("prod(laws:{x1^3},A)")
        verdict = epi_decide(sl23, h, desc, ctx)
        assert verdict.outcome == UNKNOWN
        assert verdict.derivation == ["no decision path concluded"]
        assert verdict.notes[0].startswith("product rules undecided")
        assert verdict.notes[-1] == (
            "fixtures, solvable-complement test and separating-pair "
            "search were all inconclusive")
        assert verify_certificate(sl23, h, desc, verdict, ctx)

    def test_metabelian_groups_are_decided_by_the_product_rules(self, ctx):
        # G in prod(A, A): either HV is not G, or the trace is proper in
        # the abelian V = G' and the inner solvable-complement test fails
        desc = parse_descriptor("prod(A,A)")
        kinds = set()
        for G in ctx.catalog:
            if (G.order() > 24
                    or member_of_variety(G, desc, ctx.budgets,
                                         ctx.fixtures) is not True):
                continue
            for H in all_subgroups(G):
                if H.order() == G.order():
                    continue
                verdict = epi_decide(G, H, desc, ctx)
                assert verdict.outcome == NOT_EPI, (G.name, H.generators)
                assert verify_certificate(G, H, desc, verdict, ctx)
                kinds.add(verdict.certificate["kind"])
        assert kinds == {"verbal-cover-failure", "inner-dominion-failure"}

    def test_product_rules_compute_each_verbal_subgroup_once(
            self, ctx, monkeypatch):
        # G lies in prod(N, Q) exactly when Q(G) lies in N, and q_verbal
        # keeps each Q(G) on G: the product step, the membership guards and
        # the separating-pair search share it, so over the whole sweep no
        # (group, descriptor, budgets) is computed twice
        computed = []
        compute = varieties._compute_verbal

        def counting(G, desc, budgets):
            computed.append((G, desc, budgets))
            return compute(G, desc, budgets)

        monkeypatch.setattr(varieties, "_compute_verbal", counting)
        sweep_on_catalog_copies(ctx, parse_descriptor("prod(A,A)"))
        keys = [(id(K), d, b) for K, d, b in computed]  # computed holds each K
        assert computed and len(set(keys)) == len(keys)

    def test_product_rules_enumerate_each_hom_list_once(self, ctx,
                                                         monkeypatch):
        # the inner decide on the one Q(G) object finds its hom lists warm
        runs = []
        enumerate_homs = homs._enumerate_homs

        def counting(G, C, budgets):
            runs.append((G.generators, C))
            return enumerate_homs(G, C, budgets)

        monkeypatch.setattr(homs, "_enumerate_homs", counting)
        sweep_on_catalog_copies(ctx, parse_descriptor("prod(A,A)"))
        keys = [(gens, id(C)) for gens, C in runs]  # runs holds each C
        assert runs and len(set(keys)) == len(keys)

    def test_h_not_subgroup_rejected(self, ctx, a5):
        with pytest.raises(GroupError):
            epi_decide(a5, symmetric_group(5), Abelian(), ctx)

    def test_a_chain_work_stop_on_the_subgroup_check_is_unknown(
            self, ctx, monkeypatch):
        # checking <(0 1)> <= S200 builds S200's chain, which passes
        # MAX_CHAIN_WORK: the stop is a verdict, not an exception
        works = []
        build = StabilizerChain.__init__

        def counting(chain, *args):
            try:
                build(chain, *args)
            finally:
                works.append(chain.work)

        monkeypatch.setattr(StabilizerChain, "__init__", counting)
        G = resolve_group_name("S200")
        H = G.subgroup([parse_permutation("(0 1)", 200)])
        verdict = epi_decide(G, H, Abelian(), ctx)
        assert verdict.outcome == UNKNOWN
        assert any(note.startswith("stopped: max_chain_work")
                   for note in verdict.notes)
        assert works and MAX_CHAIN_WORK < max(works) <= sum(works) \
            < 2 * MAX_CHAIN_WORK


def _decided_corpus():
    s4 = symmetric_group(4)
    a5 = alternating_group(5)
    a4_in_a5 = a5.subgroup([parse_permutation("(0 1 2)", 5),
                            parse_permutation("(0 1)(2 3)", 5)])
    return [
        (s4, s4.subgroup([parse_permutation("(0 1)", 4)]),
         parse_descriptor("Sl:3")),
        (s4, s4.subgroup([parse_permutation("(0 1 2)", 4)]),
         parse_descriptor("prod(A,A)")),
        (cyclic_group(4),
         cyclic_group(4).subgroup(
             [cyclic_group(4).generators[0] ** 2]),
         parse_descriptor("A")),
        (a5, a4_in_a5, parse_descriptor("var:A5")),
        (a5, a4_in_a5, parse_descriptor("prod(var:A5,A)")),
        (a5, a4_in_a5, parse_descriptor("prod(var:A5,Nc:2)")),
        (resolve_group_name("D6"),
         resolve_group_name("D6").subgroup(
             [parse_permutation("(0 1 2 3 4 5)", 6)]),
         parse_descriptor("Sl:2")),
    ]


class TestCertificateSoundness:
    def test_decided_corpus_reverifies(self, ctx):
        for G, H, desc in _decided_corpus():
            verdict = epi_decide(G, H, desc, ctx)
            assert verdict.outcome in (EPI, NOT_EPI), (G.name, str(desc))
            assert verify_certificate(G, H, desc, verdict, ctx), \
                (G.name, str(desc), verdict.certificate)
            flipped = NOT_EPI if verdict.outcome == EPI else EPI
            for outcome in (flipped, UNKNOWN, "maybe", None):
                relabelled = dataclasses.replace(verdict, outcome=outcome)
                assert verify_certificate(G, H, desc, relabelled,
                                          ctx) is False, (G.name, outcome)

    def test_inner_failure_needs_a_not_epi_inner_certificate(self, ctx, a5,
                                                             a4_in_a5):
        # A4 < A5 is epi under prod(var:A5, A); wrapping the inner epi
        # derivation as an inner-dominion-failure must not verify not_epi
        desc = parse_descriptor("prod(var:A5,A)")
        epi = epi_decide(a5, a4_in_a5, desc, ctx)
        node = epi.certificate["node"]
        forged = EpiVerdict(NOT_EPI, {
            "kind": "inner-dominion-failure",
            "quotient_descriptor": "A",
            "verbal_order": node["verbal_order"],
            "trace_order": a4_in_a5.order(),
            "inner": {"kind": "epi-derivation", "node": node["inner"]}},
            [], {})
        assert verify_certificate(a5, a4_in_a5, desc, forged, ctx) is False

    def test_verifier_requires_a_subgroup(self, ctx):
        # both have order 12 inside S5, and H is not a subgroup of G:
        # epi_decide refuses the pair, and no certificate holds for it
        G = PermutationGroup(5, [parse_permutation("(0 1 2)", 5),
                                 parse_permutation("(1 2 3)", 5)])
        H = PermutationGroup(5, [parse_permutation("(1 2 3)", 5),
                                 parse_permutation("(2 3 4)", 5)])
        assert G.order() == H.order() == 12 and not H.is_subgroup_of(G)
        with pytest.raises(GroupError):
            epi_decide(G, H, Abelian(), ctx)
        whole = EpiVerdict(EPI, {"kind": "epi-derivation",
                                 "node": {"rule": "whole-group"}}, [], {})
        for text in ("A", "Sl:3", "laws:{x1^6}"):
            desc = parse_descriptor(text)
            assert verify_certificate(G, G, desc, whole, ctx) is True
            assert verify_certificate(G, H, desc, whole, ctx) is False

    def test_inner_failure_needs_the_cover(self, ctx, s4):
        # HV is not G for H = <(0 1 2)> and V = Sl:2(S4) = V4, so the
        # decider answers verbal-cover-failure; the inner certificate for
        # 1 < V4 under A holds, but the inner failure does not transfer
        desc = parse_descriptor("prod(A,Sl:2)")
        H = s4.subgroup([parse_permutation("(0 1 2)", 4)])
        assert (epi_decide(s4, H, desc, ctx).certificate["kind"]
                == "verbal-cover-failure")
        verbal = varieties.q_verbal(s4, desc.right, ctx.budgets)
        trace = subgroup_intersection(s4, H, verbal, ctx.budgets)
        inner = epi_decide(verbal, trace, desc.left, ctx)
        assert inner.certificate["kind"] == "neumann-solvable-complement"
        forged = EpiVerdict(NOT_EPI, {
            "kind": "inner-dominion-failure", "quotient_descriptor": "Sl:2",
            "verbal_order": 4, "trace_order": 1,
            "inner": inner.certificate}, [], {})
        assert verify_certificate(s4, H, desc, forged, ctx) is False

    def test_tampered_certificates_fail(self, ctx, c4, c2_in_c4, a5,
                                        a4_in_a5):
        verdict = separating_pair_search(c4, c2_in_c4, Abelian(),
                                         EngineContext(catalog=[c4]))
        broken = copy.deepcopy(verdict)
        broken.certificate["witness"] = "()"  # identity never separates
        assert not verify_certificate(c4, c2_in_c4, Abelian(), broken, ctx)
        broken2 = copy.deepcopy(verdict)
        broken2.certificate["g_images"] = broken2.certificate["f_images"]
        assert not verify_certificate(c4, c2_in_c4, Abelian(), broken2, ctx)

        desc = parse_descriptor("prod(var:A5,A)")
        epi = epi_decide(a5, a4_in_a5, desc, ctx)
        broken3 = copy.deepcopy(epi)
        broken3.certificate["node"]["verbal_order"] = 30
        assert not verify_certificate(a5, a4_in_a5, desc, broken3, ctx)

    def test_separating_pair_needs_its_codomain_in_the_variety(self, ctx):
        # f = id and g = conjugation by (0 1) agree on <(0 1)> and differ
        # first at (1 2), but S3 is not abelian: the pair separates nothing
        # in A, where <(0 1)> is epimorphically embedded, as it covers
        # S3/S3' = C2
        s3 = symmetric_group(3)
        h = s3.subgroup([parse_permutation("(0 1)", 3)])
        t = parse_permutation("(0 1)", 3)
        forged = EpiVerdict(NOT_EPI, {
            "kind": "separating-pair",
            "codomain": {"name": "S3", "degree": 3, "order": 6,
                         "generators": [str(g) for g in s3.generators]},
            "f_images": [str(g) for g in s3.generators],
            "g_images": [str(g ** t) for g in s3.generators],
            "subgroup_generators": ["(0 1)"],
            "witness": "(1 2)", "f_witness": "(1 2)",
            "g_witness": "(0 2)"}, [], {})
        assert verify_certificate(s3, h, Abelian(), forged, ctx) is False
        # the codomain is rebuilt from its generators: a false name and
        # order do not put it in A
        renamed = copy.deepcopy(forged)
        renamed.certificate["codomain"].update(name="C2", order=2)
        assert verify_certificate(s3, h, Abelian(), renamed, ctx) is False
        # declared "into C3": C3 lies in A and both maps pass the
        # Cayley-edge check, but their images lie outside C3
        into_c3 = copy.deepcopy(forged)
        into_c3.certificate["codomain"] = {"name": "C3", "degree": 3,
                                           "generators": ["(0 1 2)"]}
        assert verify_certificate(s3, h, Abelian(), into_c3, ctx) is False
        assert epi_decide(s3, h, Abelian(), ctx).outcome == UNKNOWN
        # the same maps do separate in Sl:2, which contains S3
        metabelian = parse_descriptor("Sl:2")
        assert verify_certificate(s3, h, metabelian, forged, ctx) is True
        # (0 1 2) separates them too, but the witness is the least element
        # of S3 where they differ: another witness is a second certificate
        # for the same fact
        later = copy.deepcopy(forged)
        later.certificate.update(witness="(0 1 2)", f_witness="(0 1 2)",
                                 g_witness="(0 2 1)")
        assert verify_certificate(s3, h, metabelian, later, ctx) is False

    def test_separating_pair_codomain_is_listed_under_max_enumerate(self,
                                                                    ctx):
        # f sends C2's generator to the fourth power of C8's, g to the
        # identity: they agree on 1 and differ at (0 1).  Checking a hom
        # lists its target, so a budget below |C8| refuses the pair, as it
        # refuses the search over C8 that could have found it
        c2 = cyclic_group(2)
        one = c2.subgroup([c2.identity()])
        c8 = resolve_group_name("C8")
        half = parse_permutation("(0 4)(1 5)(2 6)(3 7)", 8)
        pair = EpiVerdict(NOT_EPI, {
            "kind": "separating-pair",
            "codomain": {"name": "C8", "degree": 8, "order": 8,
                         "generators": [str(c8.generators[0])]},
            "f_images": [str(half)], "g_images": ["()"],
            "subgroup_generators": ["()"],
            "witness": "(0 1)", "f_witness": str(half),
            "g_witness": "()"}, [], {})
        assert verify_certificate(c2, one, Abelian(), pair, ctx) is True
        tight = EngineContext(fixtures=ctx.fixtures, catalog=ctx.catalog,
                              budgets=Budgets(max_enumerate=4))
        assert verify_certificate(c2, one, Abelian(), pair, tight) is False
        with pytest.raises(BudgetExceeded):
            separating_pair_search(c2, one, Abelian(), EngineContext(
                catalog=[c8], budgets=tight.budgets))

    def test_direct_power_blocks_must_be_disjoint(self, ctx, a5, a4_in_a5):
        # two copies of the A4 < A5 fixture on the same five points would
        # claim A4 x 1 epi in A5 x A5, where the engine finds it is not
        from vlab.constructions import direct_product
        desc = VarOfGroup("A5")
        G = direct_product(a5, a5)
        fixture = epi_decide(a5, a4_in_a5, desc, ctx).certificate["node"]

        def power(blocks, H):
            node = {**fixture, "rule": "direct-power-fixture",
                    "copies": len(blocks), "blocks": blocks}
            verdict = EpiVerdict(EPI, {"kind": "epi-derivation",
                                       "node": node}, [], {})
            return verify_certificate(G, H, desc, verdict, ctx)

        left = G.subgroup([pad_permutation(g, 10)
                           for g in a4_in_a5.generators])
        assert power([[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]], left) is False
        assert epi_decide(G, left, desc, ctx).outcome == NOT_EPI
        both = G.subgroup(list(left.generators) + [
            pad_permutation(g, 10, offset=5) for g in a4_in_a5.generators])
        assert power([[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]], both) is True
        # disjoint blocks other than the consecutive ones the pipeline
        # builds are a second certificate for the same fact
        assert power([[5, 6, 7, 8, 9], [0, 1, 2, 3, 4]], both) is False
        # a JSON true is no point, though Python reads it as 1
        assert power([[0, True, 2, 3, 4], [5, 6, 7, 8, 9]], both) is False

    def test_codomain_degree_is_bounded_before_parsing(self, ctx, c4):
        # the declared degree sets the cost of rebuilding the codomain; a
        # valid pair into C2 declared on MAX_DEGREE + 1 points is refused
        one = c4.subgroup([c4.identity()])
        desc = parse_descriptor("laws:{x1^6}")
        verdict = epi_decide(c4, one, desc, ctx)
        assert verdict.certificate["kind"] == "separating-pair"
        assert verdict.certificate["codomain"]["degree"] == 2
        assert verify_certificate(c4, one, desc, verdict, ctx)
        huge = copy.deepcopy(verdict)
        huge.certificate["codomain"]["degree"] = MAX_DEGREE + 1
        assert verify_certificate(c4, one, desc, huge, ctx) is False

    def test_a_pair_needs_one_image_per_generator(self, ctx):
        G = resolve_group_name("C4xC2")
        one = G.subgroup([G.identity()])
        desc = parse_descriptor("laws:{x1^6}")
        verdict = epi_decide(G, one, desc, ctx)
        assert verdict.certificate["kind"] == "separating-pair"
        assert verify_certificate(G, one, desc, verdict, ctx)
        short = copy.deepcopy(verdict)
        del short.certificate["f_images"][-1]
        assert verify_certificate(G, one, desc, short, ctx) is False

    @staticmethod
    def _pair_into_c3(ctx):
        """(C9, its trivial subgroup, laws:{x1^6}, the verdict): the pair
        sends C9's generator to () and to (0 1 2) in the catalog C3."""
        G = resolve_group_name("C9")
        one = G.subgroup([G.identity()])
        desc = parse_descriptor("laws:{x1^6}")
        verdict = epi_decide(G, one, desc, ctx)
        assert verdict.certificate["codomain"]["name"] == "C3"
        assert verdict.certificate["g_images"] == ["(0 1 2)"]
        return G, one, desc, verdict

    @pytest.mark.parametrize("text", [
        "(1 2 0)", "(2 0 1)", "(0,1,2)", "(0, 1, 2)", " (0 1 2)",
        "(0 1 2)()", "(0 1)", "(0 2)", "(0 5)", "(0 1 2", ""])
    def test_an_image_must_be_the_string_of_a_codomain_element(self, ctx,
                                                               text):
        # the first six parse to (0 1 2) but are not its cycle string; the
        # next two lie in S3, not C3; the last three do not parse on 3
        # points
        G, one, desc, verdict = self._pair_into_c3(ctx)
        assert verify_certificate(G, one, desc, verdict, ctx)
        forged = copy.deepcopy(verdict)
        forged.certificate["g_images"] = [text]
        assert verify_certificate(G, one, desc, forged, ctx) is False

    def test_the_string_memo_holds_at_most_the_codomain(self, ctx,
                                                        monkeypatch):
        G, one, desc, verdict = self._pair_into_c3(ctx)
        C = next(E for E in ctx.catalog if E.name == "C3")
        variants = {sep.join(map(str, rotation)).join(ends)
                    for rotation in ([0, 1, 2], [1, 2, 0], [2, 0, 1])
                    for sep in (" ", "  ", ",", ", ", " ,")
                    for ends in (("(", ")"), (" (", ")"), ("(", ") "),
                                 ("(", ")()"))}
        variants.discard("(0 1 2)")
        variants = sorted(variants)[:50]
        assert len(variants) == 50
        for text in variants:
            forged = copy.deepcopy(verdict)
            forged.certificate["g_images"] = [text]
            assert verify_certificate(G, one, desc, forged, ctx) is False
        assert verify_certificate(G, one, desc, verdict, ctx)
        assert len(C.memo("cycle_strings", dict)) <= C.order()
        parses = []

        def counting(*args):
            parses.append(args)
            return parse_permutation(*args)

        monkeypatch.setattr(engine, "parse_permutation", counting)
        assert verify_certificate(G, one, desc, verdict, ctx)
        assert parses == []

    def test_a_pair_into_a_relabelled_member_verifies(self, ctx):
        # Dic3 over its element of order 4, under laws:{x1^6}: the pair
        # maps into the catalog S3; moved by (0 2) into a copy that is no
        # catalog entry, it still separates, and the copy's membership is
        # answered per call, not kept in the context
        G = resolve_group_name("Dic3")
        H = G.subgroup([parse_permutation("(0 6 3 9)(1 7 4 10)(2 8 5 11)",
                                          12)])
        desc = parse_descriptor("laws:{x1^6}")
        verdict = epi_decide(G, H, desc, ctx)
        cert = verdict.certificate
        assert cert["codomain"]["name"] == "S3"
        move = parse_permutation("(0 2)", 3)
        S3 = next(E for E in ctx.catalog if E.name == "S3")
        copy_ = PermutationGroup(3, [g ** move for g in S3.generators])
        maps = [homs.GroupHomomorphism(
            G, copy_, [parse_permutation(t, 3) ** move for t in cert[key]])
            for key in ("f_images", "g_images")]
        moved = dataclasses.replace(verdict, certificate=engine._pair_cert(
            G, H, copy_, *maps, ctx.budgets))
        texts = moved.certificate["codomain"]["generators"]
        assert texts != cert["codomain"]["generators"]
        assert all(texts != [str(g) for g in E.generators]
                   for E in ctx.catalog)
        before = {key: dict(answers)
                  for key, answers in ctx.memberships.items()}
        assert verify_certificate(G, H, desc, moved, ctx) is True
        assert ctx.memberships == before

    @staticmethod
    def _verify_forged_sn_pair(n, ctx, c4, c2_in_c4, monkeypatch):
        """Verify a separating pair for C2 < C4 under Sl:3 whose codomain
        is <(0 1), (0 1 ... n-1)> = S_n; returns the verdict and the work
        of each chain build it made."""
        works = []
        build = StabilizerChain.__init__

        def counting(chain, *args):
            try:
                build(chain, *args)
            finally:
                works.append(chain.work)

        monkeypatch.setattr(StabilizerChain, "__init__", counting)
        forged = EpiVerdict(NOT_EPI, {
            "kind": "separating-pair",
            "codomain": {"name": f"S{n}", "degree": n, "order": n,
                         "generators": ["(0 1)", "(" + " ".join(
                             map(str, range(n))) + ")"]},
            "f_images": ["(0 1)"], "g_images": ["()"],
            "subgroup_generators": [str(c2_in_c4.generators[0])],
            "witness": str(c4.generators[0]), "f_witness": "(0 1)",
            "g_witness": "()"}, [], {})
        desc = parse_descriptor("Sl:3")
        return verify_certificate(c4, c2_in_c4, desc, forged, ctx), works

    def test_a_codomain_past_the_chain_work_cap_is_refused(self, ctx, c4,
                                                          c2_in_c4,
                                                          monkeypatch):
        # S80 is not in Sl:3; one chain build of it passes MAX_CHAIN_WORK,
        # so the check stops instead of running on
        verified, works = self._verify_forged_sn_pair(80, ctx, c4, c2_in_c4,
                                                      monkeypatch)
        assert verified is False
        assert MAX_CHAIN_WORK < max(works) <= sum(works) < 2 * MAX_CHAIN_WORK

    @pytest.mark.parametrize("n", [30, 50])
    def test_an_unlisted_codomain_is_listed_before_its_membership(
            self, ctx, c4, c2_in_c4, monkeypatch, n):
        # S30 and S50 build within MAX_CHAIN_WORK but pass max_enumerate:
        # building f lists C first and stops after one chain build, where
        # the membership check would compute S_n's derived series
        verified, works = self._verify_forged_sn_pair(n, ctx, c4, c2_in_c4,
                                                      monkeypatch)
        assert verified is False
        assert 1 <= len(works) <= 2
        assert sum(works) < 2 * max(works)

    def test_neumann_certificate_needs_a_proper_subgroup(self, ctx, s4):
        # S4 lies in Sl:3 and is its own solvable radical, which is normal
        # and covers with H = S4: every hypothesis holds but H < G, and S4
        # is epimorphically embedded in itself
        desc = parse_descriptor("Sl:3")
        forged = EpiVerdict(NOT_EPI, {
            "kind": "neumann-solvable-complement",
            "normal": {"name": None, "degree": 4, "order": 24,
                       "generators": ["(2 3)", "(0 3)", "(0 1)"]},
            "normal_is_solvable": True, "product_covers": True,
            "subgroup_order": 24, "group_order": 24}, [], {})
        radical = solvable_radical(s4, ctx.budgets)
        assert forged.certificate == _neumann_cert(s4, s4, radical)
        assert verify_certificate(s4, s4, desc, forged, ctx) is False
        assert epi_decide(s4, s4, desc, ctx).outcome == EPI

    def test_inner_failure_needs_the_verbal_subgroup_in_the_left_factor(
            self, ctx, s4, monkeypatch):
        # H = <(0 1)> covers S4 with the A-verbal subgroup A4, and the
        # trace 1 is not epimorphically embedded in A4 within A (two maps
        # onto C3 separate it), but A4 is not abelian, so that failure
        # says nothing about H in S4 within prod(A,A)
        desc = parse_descriptor("prod(A,A)")
        H = s4.subgroup([parse_permutation("(0 1)", 4)])
        forged = EpiVerdict(NOT_EPI, {
            "kind": "inner-dominion-failure", "quotient_descriptor": "A",
            "verbal_order": 12, "trace_order": 1,
            "inner": {"kind": "separating-pair",
                      "codomain": {"name": "C3", "degree": 3, "order": 3,
                                   "generators": ["(0 1 2)"]},
                      "f_images": ["()", "()"],
                      "g_images": ["(0 1 2)", "(0 2 1)"],
                      "subgroup_generators": ["()"], "witness": "(1 2 3)",
                      "f_witness": "()", "g_witness": "(0 2 1)"}}, [], {})
        assert verify_certificate(s4, H, desc, forged, ctx) is False
        # every other hypothesis holds: only the membership rejects it
        monkeypatch.setattr("vlab.engine.member_of_variety",
                            lambda *args: True)
        assert verify_certificate(s4, H, desc, forged, ctx) is True

    def test_power_node_needs_the_group_to_be_the_whole_power(self, ctx, a5,
                                                              a4_in_a5):
        # A5 wr C2 holds the base A5 x A5 on the two consecutive blocks,
        # and A4 x A4 is the fixture subgroup's power there, but the group
        # has order 7,200, not 60^2: the fixture's power is a proper
        # subgroup, and the power rule says nothing about A5 wr C2
        desc = VarOfGroup("A5")
        G = regular_wreath(a5, cyclic_group(2)).product
        H = G.subgroup([pad_permutation(g, 10, offset)
                        for offset in (0, 5) for g in a4_in_a5.generators])
        fixture = epi_decide(a5, a4_in_a5, desc, ctx).certificate["node"]
        forged = EpiVerdict(EPI, {"kind": "epi-derivation", "node": {
            **fixture, "rule": "direct-power-fixture", "copies": 2,
            "blocks": [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]}}, [], {})
        assert G.order() == 7200 and H.order() == 144
        assert verify_certificate(G, H, desc, forged, ctx) is False

    def test_solvable_class_rule_is_no_certificate_kind(self, ctx, c4,
                                                        c2_in_c4):
        # C4 lies in the solvable class Sl:3 and C2 is proper, so the
        # deleted rule's verifier branch would have accepted this
        desc = parse_descriptor("Sl:3")
        forged = EpiVerdict(NOT_EPI, {
            "kind": "solvable-class-rule", "descriptor": str(desc),
            "group_order": 4, "subgroup_order": 2}, [], {})
        assert verify_certificate(c4, c2_in_c4, desc, forged, ctx) is False
        verdict = epi_decide(c4, c2_in_c4, desc, ctx)
        assert verdict.certificate["kind"] == "neumann-solvable-complement"

    def test_unknown_carries_no_certificate(self, ctx, a5, a4_in_a5):
        bare = EngineContext(fixtures=[], catalog=[], budgets=Budgets())
        verdict = epi_decide(a5, a4_in_a5, VarOfGroup("A5"), bare)
        assert verify_certificate(a5, a4_in_a5, VarOfGroup("A5"), verdict,
                                  bare)


_FOUR_CYCLE = {"degree": 4, "generators": ["(0 1 2 3)"]}


class TestVerifierTotality:
    @pytest.mark.parametrize("outcome,certificate", [
        (NOT_EPI, {"kind": "separating-pair", "codomain": 5}),
        (EPI, {"kind": "epi-derivation", "node": None}),
        (NOT_EPI, {"kind": "neumann-solvable-complement",
                   "normal": {"degree": "x", "generators": ["(0 1)"]}}),
        (EPI, {"kind": "epi-derivation",
               "node": {"rule": "direct-power-fixture",
                        "fixture": {"group": _FOUR_CYCLE, "subgroup": None},
                        "blocks": [[0, 1, 2, 3]]}}),
        (NOT_EPI, ["separating-pair"]),
    ], ids=["codomain-int", "node-null", "degree-str", "subgroup-null",
            "cert-list"])
    def test_malformed_certificate_is_false(self, ctx, s4, s3_in_s4,
                                            outcome, certificate):
        verdict = EpiVerdict(outcome, certificate, [], {})
        assert verify_certificate(s4, s3_in_s4, Abelian(), verdict,
                                  ctx) is False

    @pytest.mark.parametrize("kind", ["inner-dominion-failure",
                                      "product-splitting"])
    def test_deeply_nested_inner_is_false(self, ctx, s4, s3_in_s4, a5,
                                          a4_in_a5, kind):
        # the builder echoes the certificate's own inner, so a comparison
        # that walked it would need two frames per level; the hypothesis
        # certificates below never nest this deep
        G, H, desc = ((s4, s3_in_s4, "prod(Sl:2,A)")
                      if kind == "inner-dominion-failure"
                      else (a5, a4_in_a5, "prod(var:A5,A)"))
        desc = parse_descriptor(desc)
        verdict = epi_decide(G, H, desc, ctx)
        certificate = json.loads(json.dumps(verdict.certificate))
        holder = certificate.get("node", certificate)
        assert kind in (holder.get("kind"), holder.get("rule"))
        holder["inner"] = json.loads('{"inner": ' * 450 + "null"
                                     + "}" * 450)
        forged = dataclasses.replace(verdict, certificate=certificate)
        assert verify_certificate(G, H, desc, forged, ctx) is False


@pytest.fixture(scope="module")
def certified_verdicts(ctx, a5, a4_in_a5):
    c5 = a5.subgroup([parse_permutation("(0 1 2 3 4)", 5)])
    instances = _decided_corpus() + [
        (a5, c5, parse_descriptor("prod(var:A5,A)"))]
    rows = [(G, H, desc, epi_decide(G, H, desc, ctx))
            for G, H, desc in instances]
    for right in (Abelian(), parse_descriptor("Nc:2")):
        report = simpletimes_pipeline(a5, a4_in_a5, VarOfGroup("A5"), right,
                                      ctx)
        W = report.escape.wreath
        rows.append((W.product, W.wreath_subgroup(a4_in_a5),
                     ProductVariety(VarOfGroup("A5"), right), report.verdict))
    return rows


def _json_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _json_paths(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _json_paths(child, path + (i,))


_RULE_NAMES = ["neumann-solvable-complement", "solvable-class-rule",
               "separating-pair", "verbal-cover-failure",
               "inner-dominion-failure", "epi-derivation", "whole-group",
               "fixture", "product-splitting", "direct-power-fixture"]
_CERT_KEYS = ["kind", "rule", "node", "inner", "normal", "codomain",
              "degree", "generators", "f_images", "g_images", "witness",
              "verbal_order", "trace_order", "bound_order", "fixture",
              "group", "subgroup", "blocks"]
# small degrees and short cycles keep every mutated group tiny
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12)
    | st.sampled_from(["", "x", "()", "(0 1)", "(0 1 2)", "(0 1 2 3 4)",
                       "(0 5)"] + _RULE_NAMES),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.sampled_from(_CERT_KEYS),
                                        children, max_size=3)),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verifier_never_raises_on_one_mutated_field(ctx, certified_verdicts,
                                                     data):
    G, H, desc, verdict = data.draw(st.sampled_from(certified_verdicts))
    paths = list(_json_paths(verdict.certificate))
    path = data.draw(st.sampled_from(paths))
    certificate = copy.deepcopy(verdict.certificate)
    if not path:
        certificate = data.draw(_JSON_VALUES)
    else:
        parent = certificate
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JSON_VALUES)
    mutated = copy.deepcopy(verdict)
    mutated.certificate = certificate
    assert verify_certificate(G, H, desc, mutated, ctx) in (True, False)


def _rebuilt_leaves(value, path=()):
    """Paths to the scalar leaves: the verifier rebuilds every one."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _rebuilt_leaves(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _rebuilt_leaves(child, path + (i,))
    else:
        yield path, value


def _edited(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    return 0


def test_every_one_leaf_edit_of_a_rebuilt_certificate_fails(
        ctx, certified_verdicts):
    edits = 0
    for G, H, desc, verdict in certified_verdicts:
        assert verify_certificate(G, H, desc, verdict, ctx), str(desc)
        for path, value in _rebuilt_leaves(verdict.certificate):
            mutated = copy.deepcopy(verdict)
            parent = mutated.certificate
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = _edited(value)
            assert verify_certificate(G, H, desc, mutated, ctx) is False, \
                (str(desc), path)
            edits += 1
    assert edits == 160


def _retyped(value, old, new):
    """value with every leaf of exact type old made new."""
    if isinstance(value, dict):
        return {key: _retyped(child, old, new)
                for key, child in value.items()}
    if isinstance(value, list):
        return [_retyped(child, old, new) for child in value]
    return new(value) if type(value) is old else value


@pytest.mark.parametrize("old,new,count", [(int, float, 10), (bool, int, 7)],
                         ids=["int-as-float", "bool-as-int"])
def test_builder_comparisons_are_type_exact(ctx, certified_verdicts, old,
                                            new, count):
    # 5.0 == 5 and True == 1 in Python, but not in the certificate's JSON
    retyped = 0
    for G, H, desc, verdict in certified_verdicts:
        if not any(type(value) is old
                   for _, value in _rebuilt_leaves(verdict.certificate)):
            continue
        mutated = dataclasses.replace(
            verdict, certificate=_retyped(verdict.certificate, old, new))
        assert mutated.certificate == verdict.certificate
        assert verify_certificate(G, H, desc, mutated, ctx) is False, \
            str(desc)
        retyped += 1
    assert retyped == count


def product_condition_on_normals(G: PermutationGroup, H: PermutationGroup,
                                 desc: ProductVariety, ctx: EngineContext):
    """For each normal N0 with N0 in the left factor and G/N0 in the right,
    check the covering condition (and the inner embedding when decidable).

    Checking a single normal subgroup is not enough, so this enumerates all
    of them; it is a consistency check, not the decision path.
    """
    if not isinstance(desc, ProductVariety):
        raise GroupError("needs a product descriptor")
    results = []
    for N0 in normal_subgroups(G, ctx.budgets):
        left_member = member_of_variety(N0, desc.left, ctx.budgets,
                                        ctx.fixtures)
        if left_member is not True:
            continue
        quotient_group = quotient(G, N0, ctx.budgets).group
        right_member = member_of_variety(quotient_group, desc.right,
                                         ctx.budgets, ctx.fixtures)
        if right_member is not True:
            continue
        covers = product_covers(G, H, N0, ctx.budgets)
        inner_outcome = None
        if N0.order() > 1:
            trace = subgroup_intersection(G, H, N0, ctx.budgets)
            inner_outcome = epi_decide(N0, trace, desc.left, ctx).outcome
        results.append({"normal_order": N0.order(), "covers": covers,
                        "inner_outcome": inner_outcome})
    return results


class TestAllNormalsConsistency:
    @pytest.mark.parametrize("desc_text", ["prod(var:A5,A)",
                                           "prod(var:A5,Nc:2)"])
    def test_neumann_instance(self, ctx, a5, a4_in_a5, desc_text):
        # whenever the engine says epi under prod(N,Q), every admissible
        # normal subgroup must satisfy the covering clause (checking just
        # one normal subgroup would not be enough, so all are enumerated)
        desc = parse_descriptor(desc_text)
        verdict = epi_decide(a5, a4_in_a5, desc, ctx)
        assert verdict.outcome == EPI
        rows = product_condition_on_normals(a5, a4_in_a5, desc, ctx)
        assert rows, "at least one admissible normal subgroup"
        for row in rows:
            assert row["covers"], row
            assert row["inner_outcome"] in (None, EPI)


class TestQOfSimple:
    def test_a_third_verbal_subgroup_violates_the_dichotomy(self, ctx, a5,
                                                            monkeypatch):
        # a verbal subgroup of A5 wr C2 is the base power or trivial; one
        # that is neither is a hard error, not a branch
        def one_base_generator(W, qdesc, budgets):
            base = regular_wreath(a5, cyclic_group(2), budgets).base_subgroup()
            return W.subgroup([base.generators[0]])

        monkeypatch.setattr(engine, "q_verbal", one_base_generator)
        with pytest.raises(GroupError, match="dichotomy violated"):
            verify_qofsimple(a5, cyclic_group(2), Abelian(), ctx)

    def test_base_branch(self, ctx, a5):
        report = verify_qofsimple(a5, cyclic_group(2), Abelian(), ctx)
        assert report.branch == "base"
        assert report.verbal_order == 3600

    def test_trivial_top(self, ctx, a5):
        from vlab.perm import trivial_group
        report = verify_qofsimple(a5, trivial_group(1), Abelian(), ctx)
        assert report.branch == "base"
        assert report.verbal_order == 60

    def test_trivial_branch(self, ctx, a5):
        report = verify_qofsimple(a5, cyclic_group(2),
                                  parse_descriptor("laws:{x1^60}"), ctx)
        assert report.branch == "trivial"

    def test_rejects_nonsimple(self, ctx):
        with pytest.raises(GroupError):
            verify_qofsimple(symmetric_group(4), cyclic_group(2),
                             Abelian(), ctx)
        with pytest.raises(GroupError):
            verify_qofsimple(cyclic_group(5), cyclic_group(2), Abelian(),
                             ctx)

    def test_simplicity_detector(self, ctx, a5):
        assert is_simple_nonabelian(a5, ctx)
        assert not is_simple_nonabelian(alternating_group(4), ctx)
        assert not is_simple_nonabelian(cyclic_group(7), ctx)


class TestWreathEscape:
    def test_abelian_escape_is_c2(self, ctx):
        result = find_wreath_escape(cyclic_group(2), Abelian(), ctx)
        assert result.top.name == "C2"
        assert result.wreath.product.order() == 8
        assert not result.wreath.product.is_abelian()

    def test_nil2_escape_is_c4(self, ctx):
        result = find_wreath_escape(cyclic_group(2),
                                    parse_descriptor("Nc:2"), ctx)
        assert result.top.name == "C4"
        witness = result.wreath.product
        assert witness.order() == 64
        assert nilpotency_class(witness) >= 3

    def test_a5_escape_is_trivial(self, ctx, a5):
        result = find_wreath_escape(a5, Abelian(), ctx)
        assert result.top.order() == 1

    def test_ladder_respects_prime_filter(self, ctx):
        from vlab.engine import escape_ladder
        names = [g.name for g in escape_ladder(cyclic_group(2))]
        assert names == ["1", "C2", "C4", "C8", "C2wrC2", "C2wrC2wrC2"]
        names60 = [g.name for g in escape_ladder(alternating_group(5))]
        assert "C7" not in names60 and "C12" in names60 \
            and "C3wrC3" in names60

    def test_exhaustion_is_explicit(self, ctx):
        # every buildable rung of the C2-ladder is metabelian, so Sl:5
        # admits them all and the search must fail loudly
        with pytest.raises(EscapeExhausted):
            find_wreath_escape(cyclic_group(2), parse_descriptor("Sl:5"),
                               ctx)

    @staticmethod
    def skip_notes(base, text, ctx):
        with pytest.raises(EscapeExhausted) as info:
            find_wreath_escape(base, parse_descriptor(text), ctx)
        notes = list(info.value.skipped)
        assert str(info.value).endswith(f"(skipped: {'; '.join(notes)})")
        return notes

    def test_a_fixture_gap_in_any_membership_skips_the_rung(self, ctx):
        # no fixture gives var:S3's verbal subgroup: the trivial rung stops
        # in its wreath's membership, every other rung in its own
        gap = "verbal subgroup for var:S3 is undecidable with current fixtures"
        notes = self.skip_notes(cyclic_group(2), "prod(A,var:S3)", ctx)
        assert notes == [f"1: wreath membership: {gap}"] + [
            f"{name}: membership: {gap}"
            for name in ("C2", "C4", "C8", "C2wrC2", "C2wrC2wrC2")]

    def test_a_budget_stop_in_any_membership_skips_the_rung(self, ctx):
        small = EngineContext(fixtures=ctx.fixtures, catalog=ctx.catalog,
                              budgets=Budgets(max_enumerate=3))
        notes = self.skip_notes(cyclic_group(2), "laws:{x1^4}", small)
        stop = "max_enumerate: {} exceeds the limit 3".format
        assert notes == [f"C2: wreath membership: {stop(8)}",
                         f"C4: membership: {stop(4)}",
                         f"C8: membership: {stop(8)}",
                         f"C2wrC2: membership: {stop(8)}",
                         f"C2wrC2wrC2: membership: {stop(128)}"]

    def test_unknown_and_false_memberships_skip_the_rung(self, ctx):
        # C3 passes var:S3's screen (exponent 6, Sl:2) but no fixture
        # decides it; C9 and C3wrC3 fail the exponent law
        notes = self.skip_notes(cyclic_group(3), "var:S3", ctx)
        assert notes == ["1: wreath membership unknown", "C3: membership None",
                         "C9: membership False", "C3wrC3: membership False"]

    def test_trivial_base_rejected(self, ctx):
        from vlab.perm import trivial_group
        with pytest.raises(GroupError):
            find_wreath_escape(trivial_group(1), Abelian(), ctx)


class TestPipeline:
    def test_neumann_lift_through_trivial_escape(self, ctx, a5, a4_in_a5):
        report = simpletimes_pipeline(a5, a4_in_a5, VarOfGroup("A5"),
                                      Abelian(), ctx)
        assert report.verdict.outcome == EPI
        assert report.escape.top.order() == 1
        W = report.escape.wreath
        desc = ProductVariety(VarOfGroup("A5"), Abelian())
        assert verify_certificate(W.product, W.wreath_subgroup(a4_in_a5),
                                  desc, report.verdict, ctx)

    def test_the_lift_is_checked_by_the_verifier(self, ctx, a5, a4_in_a5,
                                                 monkeypatch):
        from vlab import engine
        monkeypatch.setattr(engine, "_verify_epi_node",
                            lambda *args: False)
        with pytest.raises(GroupError, match="internal error"):
            simpletimes_pipeline(a5, a4_in_a5, VarOfGroup("A5"), Abelian(),
                                 ctx)

        def stop(*args):
            raise BudgetExceeded("stop", budget_name="max_enumerate")

        # a budget stop in the check propagates, as from any other step
        monkeypatch.setattr(engine, "_verify_epi_node", stop)
        with pytest.raises(BudgetExceeded):
            simpletimes_pipeline(a5, a4_in_a5, VarOfGroup("A5"), Abelian(),
                                 ctx)

    def test_missing_fixture_gives_unknown(self, ctx, a5):
        c5 = a5.subgroup([parse_permutation("(0 1 2 3 4)", 5)])
        report = simpletimes_pipeline(a5, c5, VarOfGroup("A5"), Abelian(),
                                      ctx)
        assert report.verdict.outcome == UNKNOWN
        assert report.details.get("missing_fixture")

    def test_exhausted_escape_gives_unknown(self, ctx, a5, a4_in_a5):
        # restrict the wreath budget so even the trivial rung fails
        tight = EngineContext(fixtures=ctx.fixtures, catalog=ctx.catalog,
                              budgets=Budgets(max_wreath_top=0))
        report = simpletimes_pipeline(a5, a4_in_a5, VarOfGroup("A5"),
                                      Abelian(), tight)
        assert report.verdict.outcome == UNKNOWN
        assert report.details.get("escape_exhausted")

    def test_rejects_nonsimple_base(self, ctx, s4, s3_in_s4):
        fx_ctx = EngineContext(
            fixtures=ctx.fixtures + [_fake_s4_fixture(s4, s3_in_s4)],
            catalog=ctx.catalog, budgets=ctx.budgets)
        with pytest.raises(GroupError):
            simpletimes_pipeline(s4, s3_in_s4, VarOfGroup("S4"), Abelian(),
                                 fx_ctx)


def _fake_s4_fixture(s4, s3):
    from vlab.varieties import Fixture
    return Fixture(kind="known-epi", group=s4, subgroup=s3,
                   descriptor=VarOfGroup("S4"),
                   provenance="test-only placeholder")


class TestDirectPowerCompatibility:
    def test_exact_bounds_power_componentwise(self, ctx):
        from vlab.constructions import direct_power
        desc = parse_descriptor("prod(A,A)")
        for name in ("S3", "C6", "D4", "A4", "Q8"):
            G = resolve_group_name(name)
            elements = G.elements()
            H = G.subgroup([elements[1]])
            base = dominion_bounds(G, H, desc, ctx)
            for k in (2, 3):
                power = direct_power(G, k)
                Hk = power.power_subgroup(H)
                bk = dominion_bounds(power.product, Hk, desc, ctx)
                assert bk.exact == base.exact
                assert bk.lower.same_group_as(
                    power.power_subgroup(base.lower))
                assert bk.upper.same_group_as(
                    power.power_subgroup(base.upper))
