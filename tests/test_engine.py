import copy
import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from vlab import homs, varieties
from vlab.catalog import resolve_group_name
from vlab.config import Budgets
from vlab.constructions import MAX_DEGREE
from vlab.engine import (EPI, NOT_EPI, UNKNOWN, EngineContext, EpiVerdict,
                         EscapeExhausted, dominion_bounds, epi_decide,
                         find_wreath_escape, is_simple_nonabelian, mckay_bound,
                         neumann_not_epi_test, separating_pair_search,
                         simpletimes_pipeline, verify_certificate,
                         verify_qofsimple)
from vlab.errors import BudgetExceeded, GroupError
from vlab.perm import (PermutationGroup, alternating_group, cyclic_group,
                       pad_permutation, parse_permutation, symmetric_group)
from vlab.structure import (all_subgroups, nilpotency_class,
                            normal_subgroups, product_covers, quotient,
                            subgroup_intersection)
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
        verdict = separating_pair_search(c4, c2_in_c4, [c4], Abelian(), ctx)
        assert verdict.outcome == NOT_EPI
        cert = verdict.certificate
        gen = c4.generators[0]
        assert cert["f_images"] == [str(gen)]
        assert cert["g_images"] == [str(gen.inverse())]
        assert cert["witness"] == str(gen)
        assert verify_certificate(c4, c2_in_c4, Abelian(), verdict, ctx)

    def test_a5_a4_inconclusive_after_full_enumeration(self, ctx, a5,
                                                       a4_in_a5):
        # S5 satisfies x^60, so the catalog member is admitted and all
        # homomorphism pairs get examined; none separates
        desc = parse_descriptor("laws:{x1^60}")
        verdict = separating_pair_search(a5, a4_in_a5,
                                         [symmetric_group(5)], desc, ctx)
        assert verdict is None

    def test_screen_skips_nonmembers_silently_and_unknowns_with_note(
            self, ctx, a5, a4_in_a5):
        # S5 violates the exponent-30 law of A5: screened out, nothing to do
        notes = []
        verdict = separating_pair_search(a5, a4_in_a5, [symmetric_group(5)],
                                         VarOfGroup("A5"), ctx, notes=notes)
        assert verdict is None
        assert notes == []  # definitive non-members are silently irrelevant
        # C2 passes the screen but no fixture decides: skipped with a note
        verdict = separating_pair_search(a5, a4_in_a5, [cyclic_group(2)],
                                         VarOfGroup("A5"), ctx, notes=notes)
        assert verdict is None
        assert any("membership" in note and "unknown" in note
                   for note in notes)

    def test_whole_group_inconclusive(self, ctx, c4):
        assert separating_pair_search(c4, c4, [c4], Abelian(), ctx) is None

    def test_hom_budget_skips_a_member_with_a_note(self, c4, c2_in_c4):
        ctx = EngineContext(budgets=Budgets(max_hom_product=20))
        notes = []
        verdict = separating_pair_search(c4, c2_in_c4, [cyclic_group(12), c4],
                                         Abelian(), ctx, notes=notes)
        assert notes == ["catalog group C12 skipped: hom budget"]
        assert verdict.outcome == NOT_EPI
        cert = verdict.certificate
        assert cert["codomain"]["name"] == "C4"
        assert (cert["f_images"], cert["g_images"]) == (
            ["(0 1 2 3)"], ["(0 3 2 1)"])

    def test_other_budgets_still_stop_the_search(self, c4, c2_in_c4):
        ctx = EngineContext(budgets=Budgets(max_enumerate=10))
        with pytest.raises(BudgetExceeded) as info:
            separating_pair_search(c4, c2_in_c4, [cyclic_group(12)],
                                   Abelian(), ctx)
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
        var_a5 = VarOfGroup("A5")
        assert mckay_bound(a5, a4_in_a5, var_a5, Abelian(), ctx).order() == 60
        assert mckay_bound(s4, s3_in_s4, Abelian(), Abelian(),
                           ctx).order() == 24
        assert mckay_bound(s4, s4, Abelian(), Abelian(), ctx).order() == 24


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
            assert bounds.sandwich_ok(G, H), (G.name, str(desc))

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

    def test_tampered_certificates_fail(self, ctx, c4, c2_in_c4, a5,
                                        a4_in_a5):
        verdict = separating_pair_search(c4, c2_in_c4, [c4], Abelian(), ctx)
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
        # at (0 1 2), but S3 is not abelian: the pair separates nothing in
        # A, where <(0 1)> is epimorphically embedded, as it covers
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
            "witness": "(0 1 2)", "f_witness": "(0 1 2)",
            "g_witness": "(0 2 1)"}, [], {})
        assert verify_certificate(s3, h, Abelian(), forged, ctx) is False
        # the codomain is rebuilt from its generators; its name and order
        # are never read
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
    """Paths to the scalar leaves outside separating pairs: the parts the
    verifier rebuilds."""
    if isinstance(value, dict):
        if value.get("kind") == "separating-pair":
            return
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
    assert edits == 144


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
