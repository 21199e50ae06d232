import ast
import itertools
from pathlib import Path

import pytest

from tests.conftest import COMMUTATOR, mulclose
from vlab.catalog import resolve_group_name
from vlab.config import DEFAULT_BUDGETS, MAX_NESTING, Budgets
from vlab.errors import FixtureGap, GroupError, ParseError
from vlab.perm import cyclic_group, parse_permutation, symmetric_group
from vlab.structure import normal_subgroups, quotient
from vlab.varieties import (Abelian, Fixture, Laws, NilpotentClass,
                            ProductVariety, SolvableLength, VarOfGroup,
                            descriptor_laws, eval_word, is_solvable_variety,
                            is_trivial_variety, member_of_variety,
                            parse_descriptor, q_verbal, satisfies_laws,
                            verbal_subgroup)
from vlab.words import Word, derived_law, nilpotency_law, parse_word


def brute_verbal(G, words):
    """Oracle: collect every value of every word over all tuples, close.
    Each value is read letter by letter from G's multiplication table."""
    elements = G.elements()
    position = {g.images: i for i, g in enumerate(elements)}
    table = [[position[(a * b).images] for b in elements] for a in elements]
    inverse = [position[a.inverse().images] for a in elements]
    one = position[G.identity().images]
    values = set()
    for word in words:
        for tup in itertools.product(range(len(elements)), repeat=word.arity):
            v = one
            for var, exp in word.letters:
                x = tup[var - 1] if exp > 0 else inverse[tup[var - 1]]
                for _ in range(abs(exp)):
                    v = table[v][x]
            if v != one:
                values.add(elements[v])
    if not values:
        return {G.identity()}
    return set(mulclose(sorted(values)))


class TestDescriptorParsing:
    @pytest.mark.parametrize("text,expected", [
        ("A", Abelian()),
        ("Nc:2", NilpotentClass(2)),
        ("Sl:3", SolvableLength(3)),
        ("var:A5", VarOfGroup("A5")),
        ("prod(var:A5,A)", ProductVariety(VarOfGroup("A5"), Abelian())),
        ("prod(prod(A,A),Nc:2)",
         ProductVariety(ProductVariety(Abelian(), Abelian()),
                        NilpotentClass(2))),
    ])
    def test_parse(self, text, expected):
        assert parse_descriptor(text) == expected

    def test_laws_parse(self):
        desc = parse_descriptor("laws:{[x1,x2];x1^4}")
        assert desc == Laws((COMMUTATOR, parse_word("x1^4")))

    def test_roundtrip_through_str(self):
        for text in ("A", "Nc:2", "Sl:3", "var:A5", "prod(var:A5,A)",
                     "laws:{[x1,x2];x1^4}"):
            desc = parse_descriptor(text)
            assert parse_descriptor(str(desc)) == desc

    def test_a_law_that_reduces_to_the_identity_round_trips(self):
        desc = parse_descriptor("laws:{x1 x1^-1}")
        assert str(desc) == "laws:{1}"
        assert parse_descriptor("laws:{1}") == desc == Laws((Word.identity(),))

    def test_every_descriptor_named_in_the_tests_round_trips(self):
        """Each string literal under tests/ that parses as a descriptor."""
        texts = {node.value for path in Path(__file__).parent.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text("utf-8")))
                 if isinstance(node, ast.Constant)
                 and isinstance(node.value, str)}
        parsed = 0
        for text in sorted(texts):
            try:
                desc = parse_descriptor(text)
            except GroupError:
                continue
            assert parse_descriptor(str(desc)) == desc, text
            parsed += 1
        assert parsed >= 40

    def test_a_name_that_does_not_resolve_is_refused_when_made(self):
        with pytest.raises(ParseError, match="unknown group name"):
            VarOfGroup("NoSuchGroup")

    @pytest.mark.parametrize("bad", ["B", "Nc:", "laws:{}", "prod(A)",
                                     "var:", "Nc:x", "Sl:", "Nc:1.5",
                                     "Sl:two"])
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse_descriptor(bad)

    @pytest.mark.parametrize("text,message", [
        ("Nc:0", "Nc needs c >= 1"), ("Sl:0", "Sl needs n >= 1")])
    def test_a_family_needs_a_positive_parameter(self, text, message):
        with pytest.raises(GroupError, match=message):
            parse_descriptor(text)

    @pytest.mark.parametrize("text,expected", [
        ("Nc: 2", NilpotentClass(2)), ("Nc:+2", NilpotentClass(2)),
        ("Sl:03", SolvableLength(3)), ("Sl:1_0", SolvableLength(10))])
    def test_every_int_spelling_parses(self, text, expected):
        assert parse_descriptor(text) == expected

    def test_prod_nests_up_to_the_cap(self):
        left = "prod(" * MAX_NESTING + "A" + ",A)" * MAX_NESTING
        desc = parse_descriptor(left)
        for _ in range(MAX_NESTING):
            assert desc.right == Abelian()
            desc = desc.left
        assert desc == Abelian()
        right = "prod(A," * MAX_NESTING + "Nc:2" + ")" * MAX_NESTING
        assert str(parse_descriptor(right)) == right

    @pytest.mark.parametrize("text", [
        "prod(" * (MAX_NESTING + 1) + "A" + ",A)" * (MAX_NESTING + 1),
        "prod(A," * (MAX_NESTING + 1) + "A" + ")" * (MAX_NESTING + 1),
        "prod(" * 1000 + "A" + ",A)" * 1000])
    def test_prod_past_the_cap_is_a_parse_error(self, text):
        with pytest.raises(ParseError,
                           match=f"prod\\( nests deeper than {MAX_NESTING}"):
            parse_descriptor(text)

    def test_equality_is_syntactic(self):
        # no semantic normalization across descriptor forms
        assert parse_descriptor("A") != parse_descriptor("Nc:1")
        assert parse_descriptor("laws:{[x1,x2]}") != parse_descriptor("A")


class TestDescriptorLaws:
    @pytest.mark.parametrize("text,laws", [
        ("laws:{x1^2;[x1,x2]}", (parse_word("x1^2"), COMMUTATOR)),
        ("A", (COMMUTATOR,)),
        ("Nc:2", (nilpotency_law(2),)),
        ("Sl:2", (derived_law(2),))])
    def test_named_families_give_their_defining_law(self, text, laws):
        assert descriptor_laws(parse_descriptor(text)) == laws

    @pytest.mark.parametrize("text", ["var:A5", "prod(A,A)"])
    def test_other_descriptors_have_no_law_basis(self, text):
        with pytest.raises(GroupError, match="no explicit finite law basis"):
            descriptor_laws(parse_descriptor(text))


class TestEvalWord:
    def test_eval_in_group(self):
        s3 = symmetric_group(3)
        a, b = parse_permutation("(0 1)", 3), parse_permutation("(1 2)", 3)
        assert eval_word(COMMUTATOR, [a, b], s3).order() == 3

    def test_a_value_of_another_degree_is_refused(self):
        a = parse_permutation("(0 1)", 4)
        with pytest.raises(GroupError, match="degree differs"):
            eval_word(COMMUTATOR, [a, a], symmetric_group(3))

    def test_too_few_values_are_refused(self):
        a = parse_permutation("(0 1)", 3)
        with pytest.raises(GroupError, match="needs arity 2, got 1"):
            eval_word(COMMUTATOR, [a], symmetric_group(3))

    def test_identity_word(self):
        s3 = symmetric_group(3)
        assert eval_word(Word.identity(), [], s3).is_identity()


class TestVerbalSubgroup:
    def test_no_laws_is_refused(self):
        with pytest.raises(GroupError, match="at least one law"):
            verbal_subgroup(symmetric_group(3), [])

    # oracle-first: expected values computed by exhaustive value collection
    @pytest.mark.parametrize("group_name,words,expected_order", [
        ("S4", [COMMUTATOR], 12),
        ("D4", [COMMUTATOR], 2),
        ("A4", [COMMUTATOR], 4),
        ("S3", [parse_word("x1^2")], 3),
        ("D4", [parse_word("x1^2")], 2),
        ("C6", [parse_word("x1^3")], 2),
        ("A4", [parse_word("x1^3")], 4),
        ("S3", [derived_law(2)], 1),
        ("A4", [derived_law(2)], 1),
        ("S4", [derived_law(2)], 4),
        ("D4", [nilpotency_law(2)], 1),
        ("S3", [nilpotency_law(2)], 3),
        ("S3", [COMMUTATOR, parse_word("x1^2")], 3),
    ])
    def test_against_enumeration_oracle(self, group_name, words,
                                        expected_order):
        G = resolve_group_name(group_name)
        got = verbal_subgroup(G, words)
        assert got.order() == expected_order
        # expected values above were computed with this oracle; rerun it
        # where the tuple count stays reasonable (the S4 arity-4 case was
        # frozen from a one-off full run)
        work = max(G.order() ** w.arity for w in words)
        if work <= 30_000:
            assert len(brute_verbal(G, words)) == expected_order

    def test_verbal_is_normal_and_minimal(self):
        from vlab.structure import is_normal
        for name in ("S4", "D4", "A4", "Q8"):
            G = resolve_group_name(name)
            for words in ([COMMUTATOR], [parse_word("x1^2")]):
                V = verbal_subgroup(G, words)
                assert is_normal(G, V)
                oracle = brute_verbal(G, words)
                assert V.order() == len(oracle)
                assert all(V.contains(v) for v in oracle)

    def test_abelian_commutator_trivial(self):
        assert verbal_subgroup(cyclic_group(12), [COMMUTATOR]).order() == 1


class TestSatisfiesLaws:
    def test_metabelian_law_on_s3(self):
        assert satisfies_laws(symmetric_group(3), [derived_law(2)]).holds

    def test_s3_not_abelian_with_witness(self):
        check = satisfies_laws(symmetric_group(3), [COMMUTATOR])
        assert not check.holds
        assert check.witness_word == COMMUTATOR
        a, b = check.witness_tuple[:2]
        assert not COMMUTATOR.evaluate([a, b]).is_identity()

    def test_a_budget_stop_leaves_no_witness(self):
        # the exponent decides that x1^2 fails in S4, but its 24 one-tuples
        # pass max_tuples, so the witness walk stops before its first tuple
        check = satisfies_laws(symmetric_group(4), [parse_word("x1^2")],
                               Budgets(max_tuples=10))
        assert not check.holds and check.witness_tuple is None
        assert check.note.startswith("witness search capped")

    def test_a5_exponent_30(self, a5):
        assert satisfies_laws(a5, [parse_word("x1^30")]).holds
        # oracle: all element orders divide 30
        assert all(30 % g.order() == 0 for g in a5.elements())


class TestQVerbal:
    @pytest.mark.parametrize("name,order", [
        ("S3", 3), ("D4", 1), ("Q8", 1), ("A4", 4), ("S4", 12)])
    def test_a_word_of_no_named_shape_closes_all_its_values(self, name,
                                                            order):
        # [x1^2,x2] is neither a power nor an Nc/Sl law: every pair is tried
        G = resolve_group_name(name)
        V = q_verbal(G, parse_descriptor("laws:{[x1^2,x2]}"))
        assert V.order() == order
        assert set(V.elements()) == brute_verbal(G, [parse_word("[x1^2,x2]")])

    def test_wreath_abelian_verbal_is_base(self, a5):
        from vlab.constructions import regular_wreath
        w = regular_wreath(a5, cyclic_group(2))
        v = q_verbal(w.product, Abelian())
        assert v.order() == 3600
        assert v.same_group_as(w.base_subgroup())

    def test_second_derived_of_s4(self):
        v = q_verbal(symmetric_group(4), SolvableLength(2))
        assert v.order() == 4

    def test_abelian_group_trivial(self):
        assert q_verbal(cyclic_group(8), Abelian()).order() == 1

    def test_var_of_group_needs_fixture(self):
        with pytest.raises(FixtureGap):
            q_verbal(symmetric_group(3), VarOfGroup("A5"))

    def test_kept_per_descriptor_and_budgets(self):
        G, desc = symmetric_group(4), ProductVariety(Abelian(), Abelian())
        first = q_verbal(G, desc)
        assert q_verbal(G, desc) is first
        other = q_verbal(G, desc, Budgets(max_tuples=5))
        assert other is not first and other.same_group_as(first)

    def test_a_fixture_gap_leaves_no_entry(self):
        G, desc = symmetric_group(3), VarOfGroup("A5")
        with pytest.raises(FixtureGap):
            q_verbal(G, desc)
        assert (desc, DEFAULT_BUDGETS) not in G.memo("q_verbal", dict)

    def test_universal_property_validates_product_identity(self):
        # for every normal N: G/N in V  <=>  V(G) <= N; with V = prod(A,A)
        # this simultaneously checks (NQ)(G) = N(Q(G))
        descs = [Abelian(), NilpotentClass(2), SolvableLength(2),
                 ProductVariety(Abelian(), Abelian())]
        for name in ("S4", "D4", "A4", "Q8", "C3^2:C2", "SL23", "A5"):
            G = resolve_group_name(name)
            for desc in descs:
                V = q_verbal(G, desc)
                for N in normal_subgroups(G):
                    member = member_of_variety(quotient(G, N).group, desc)
                    assert member == V.is_subgroup_of(N), (name, str(desc))

    def test_monotone_under_quotients(self):
        # image of the verbal subgroup equals the verbal subgroup of the image
        for name, desc in (("S4", Abelian()), ("S4", NilpotentClass(2)),
                           ("D4", Abelian()), ("Dic3", Abelian())):
            G = resolve_group_name(name)
            for N in normal_subgroups(G):
                q = quotient(G, N)
                V = q_verbal(G, desc)
                image = q.group.subgroup(
                    [q.projection.apply(g) for g in V.generators])
                assert image.same_group_as(q_verbal(q.group, desc))


class TestMemberOfVariety:
    def test_examples(self, a5):
        assert member_of_variety(symmetric_group(3),
                                 ProductVariety(Abelian(), Abelian())) is True
        assert member_of_variety(resolve_group_name("V1"),
                                 VarOfGroup("A5")) is True
        for n in range(1, 6):
            assert member_of_variety(a5, SolvableLength(n)) is False

    @pytest.mark.parametrize("named,law", [
        pytest.param(named, law, id=str(named)) for named, law in (
            (Abelian(), nilpotency_law(1)),
            (NilpotentClass(1), nilpotency_law(1)),
            (NilpotentClass(2), nilpotency_law(2)),
            (NilpotentClass(3), nilpotency_law(3)),
            (SolvableLength(1), derived_law(1)),
            (SolvableLength(2), derived_law(2)))])
    def test_named_families_match_their_laws(self, named, law):
        # G lies in the family iff every value of its defining word is 1,
        # over the catalog groups whose tuple count stays reasonable
        from vlab.catalog import bundled_catalog
        sample = [G for G in bundled_catalog()
                  if G.order() ** law.arity <= 30_000]
        for G in sample:
            assert member_of_variety(G, named) == \
                (brute_verbal(G, [law]) == {G.identity()}), G.name

    def test_var_of_group_screen_and_fixture(self, a5, ctx):
        fixtures = ctx.fixtures
        var_a5 = VarOfGroup("A5")
        assert member_of_variety(a5, var_a5, fixtures=fixtures) is True
        # S5 has elements of order 4; the exponent-30 screen rules it out
        assert member_of_variety(symmetric_group(5), var_a5,
                                 fixtures=fixtures) is False
        # C2 passes every sampled law, but no fixture decides: unknown
        assert member_of_variety(cyclic_group(2), var_a5,
                                 fixtures=fixtures) is None

    def test_sl_membership_matches_derived_series_length(self):
        from vlab.structure import derived_series
        for name in ("S4", "SL23", "C6", "D4", "A5"):
            G = resolve_group_name(name)
            series = derived_series(G)
            solvable = series[-1].order() == 1
            for n in (1, 2, 3, 4):
                expected = solvable and len(series) - 1 <= n
                assert member_of_variety(G, SolvableLength(n)) == expected


class TestSolvableVarietyRule:
    def test_structural_yes(self):
        assert is_solvable_variety(Abelian()) is True
        assert is_solvable_variety(
            ProductVariety(Abelian(), NilpotentClass(2))) is True
        assert is_solvable_variety(SolvableLength(3)) is True

    def test_law_sets_stay_unknown(self):
        assert is_solvable_variety(Laws((parse_word("x1^5"),))) is None

    def test_perfect_generator_gives_no(self):
        assert is_solvable_variety(VarOfGroup("A5")) is False
        assert is_solvable_variety(
            ProductVariety(VarOfGroup("A5"), Abelian())) is False

    @pytest.mark.parametrize("name,solvable", [
        ("C1", True), ("S3", True), ("D4", True), ("S4", True),
        ("A5", False), ("S5", False)])
    def test_var_of_a_group_is_solvable_iff_the_group_is(self, name,
                                                         solvable):
        # S of derived length d puts var:S inside Sl:d; S is a member
        assert is_solvable_variety(VarOfGroup(name)) is solvable


# the test ids name the three answers of a structural question
YES, NO, UNKNOWN = "yes", "no", "unknown"
ANSWER = {YES: True, NO: False, UNKNOWN: None}

# one descriptor per answer of each structural question; triviality has
# no third answer
TRIVIAL = {YES: "laws:{x1}", NO: "A"}
SOLVABLE = {YES: "A", NO: "var:A5", UNKNOWN: "laws:{x1^2}"}


@pytest.mark.parametrize("question,examples,left,right", [
    pytest.param(question, examples, left, right,
                 id=f"{label}-{right}-{left}")
    for label, question, examples in (
        ("trivial", is_trivial_variety, TRIVIAL),
        ("solvable", is_solvable_variety, SOLVABLE))
    for left in examples for right in examples])
def test_a_product_has_the_property_iff_both_factors_do(question, examples,
                                                        left, right):
    assert question(parse_descriptor(examples[left])) is ANSWER[left]
    assert question(parse_descriptor(examples[right])) is ANSWER[right]
    product = parse_descriptor(f"prod({examples[left]},{examples[right]})")
    expected = (YES if left == right == YES
                else NO if NO in (left, right) else UNKNOWN)
    assert question(product) is ANSWER[expected]


class TestTrivialVariety:
    @pytest.mark.parametrize("text,expected", [
        ("laws:{x1}", YES), ("laws:{x1^2;x1^3}", YES),
        ("laws:{[x1,x2]}", NO), ("laws:{x1^6;x1^4}", NO),
        ("laws:{x1^2x2^3}", YES), ("laws:{x1^2x2^4}", NO),
        ("A", NO), ("Nc:2", NO), ("Sl:1", NO),
        ("var:C1", YES), ("var:S3", NO),
        ("prod(laws:{x1},laws:{x1^2;x1^3})", YES),
        ("prod(laws:{x1},A)", NO),
    ])
    def test_cases(self, text, expected):
        assert is_trivial_variety(parse_descriptor(text)) is ANSWER[expected]

    @pytest.mark.parametrize("text", [
        "var:NoSuchGroup", "prod(var:NoSuchGroup,laws:{x1})",
        "prod(A,var:NoSuchGroup)", "prod(laws:{x1},var:NoSuchGroup)"])
    @pytest.mark.parametrize("question", [
        is_trivial_variety, is_solvable_variety], ids=["trivial", "solvable"])
    def test_an_unresolvable_name_is_refused(self, question, text):
        with pytest.raises(ParseError, match="unknown group name"):
            question(parse_descriptor(text))

    @pytest.mark.parametrize("text", [
        "laws:{x1}", "laws:{x1^2;x1^3}", "laws:{[x1,x2]}", "laws:{x1^6;x1^4}",
        "laws:{x1^2x2^3}", "laws:{x1^2x2^4}", "laws:{x1^5x2^-5}"])
    def test_law_sets_match_prime_cyclic_oracle(self, text):
        # a variety is nontrivial iff it contains some C_p; every p dividing
        # an exponent sum here is below 7
        desc = parse_descriptor(text)
        has_cp = any(satisfies_laws(cyclic_group(p), desc.words).holds
                     for p in (2, 3, 5, 7))
        assert is_trivial_variety(desc) is (not has_cp)


class TestFixtures:
    def test_fixture_requires_provenance(self, a5):
        with pytest.raises(Exception):
            Fixture(kind="known-member", group=a5, subgroup=None,
                    descriptor=VarOfGroup("A5"), provenance="  ")

    @pytest.mark.parametrize("kind,provenance,message", [
        ("known-epimorphism", "a text", "unknown fixture kind"),
        ("known-member", "", "must carry provenance"),
        ("known-epi", "a text", "need a subgroup")])
    def test_each_malformed_fixture_is_refused(self, a5, kind, provenance,
                                               message):
        with pytest.raises(GroupError, match=message):
            Fixture(kind=kind, group=a5, subgroup=None,
                    descriptor=VarOfGroup("A5"), provenance=provenance)

    def test_bundled_fixture_matches_equal_subgroup(self, a5, a4_in_a5, ctx):
        from vlab.varieties import find_epi_fixture
        # a different generating set for the same subgroup still matches
        other = a5.subgroup([parse_permutation("(0 1 2)", 5),
                             parse_permutation("(0 1)(2 3)", 5)])
        assert find_epi_fixture(ctx.fixtures, a5, other,
                                VarOfGroup("A5")) is not None
        assert find_epi_fixture(ctx.fixtures, a5, a4_in_a5,
                                VarOfGroup("A5")) is not None
        # a conjugate copy is a different subgroup value: no match
        conj = a5.subgroup([g ** parse_permutation("(0 4)(1 2)", 5)
                            for g in a4_in_a5.generators])
        assert find_epi_fixture(ctx.fixtures, a5, conj,
                                VarOfGroup("A5")) is None
