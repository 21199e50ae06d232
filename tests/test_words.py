import pytest

from vlab.config import MAX_DEGREE, MAX_NESTING
from vlab.errors import BudgetExceeded, GroupError, ParseError
from tests.conftest import COMMUTATOR
from vlab.perm import parse_permutation, symmetric_group
from vlab.words import (Word, as_derived_law, as_nilpotency_law,
                        as_power_law, commutator_word, derived_law,
                        left_normed_commutator, nilpotency_law, parse_word)


class TestWordAlgebra:
    def test_reduction_merges_adjacent(self):
        w = Word.make([(1, 2), (1, 3), (2, -1)])
        assert w.letters == ((1, 5), (2, -1))

    def test_reduction_cancels(self):
        w = Word.variable(1) * Word.variable(1, -1)
        assert w.is_identity()

    def test_rejects_unreduced_direct_construction(self):
        with pytest.raises(GroupError):
            Word(((1, 1), (1, 1)))
        with pytest.raises(GroupError):
            Word(((1, 0),))

    def test_inverse(self):
        w = parse_word("x1^2 x2^-1")
        assert (w * w.inverse()).is_identity()
        assert w.inverse().letters == ((2, 1), (1, -2))

    def test_commutator_expansion(self):
        w = commutator_word(Word.variable(1), Word.variable(2))
        assert w.letters == ((1, -1), (2, -1), (1, 1), (2, 1))

    def test_arity_and_length(self):
        w = parse_word("[x1,x3] x2^2")
        assert w.arity == 3
        assert w.length() == 6


class TestParser:
    @pytest.mark.parametrize("text", [
        "x1", "x2^-3", "x1 x2", "[x1,x2]", "[x1,x2,x3]", "[[x1,x2],x3]",
        "(x1 x2)^2", "[x1,x2]^-1 x3",
    ])
    def test_roundtrip_through_str(self, text):
        w = parse_word(text)
        assert parse_word(str(w)) == w

    def test_left_normed_bracket(self):
        assert parse_word("[x1,x2,x3]") == parse_word("[[x1,x2],x3]")

    def test_juxtaposition(self):
        assert parse_word("x1 x2") == Word.variable(1) * Word.variable(2)
        assert parse_word("x1x2") == Word.variable(1) * Word.variable(2)

    @pytest.mark.parametrize("bad", ["y1", "[x1]", "x1^", "[x1,x2", "x0"])
    def test_errors(self, bad):
        with pytest.raises((ParseError, GroupError)):
            parse_word(bad)

    @pytest.mark.parametrize("bad,position", [
        ("x1 )", 3), (")", 0), ("x1,x2", 2), ("x1 ]", 3)])
    def test_a_stray_closing_token_is_reported_where_it_stands(self, bad,
                                                               position):
        with pytest.raises(ParseError, match="unexpected") as exc:
            parse_word(bad)
        assert exc.value.position == position

    def test_brackets_nest_up_to_the_cap(self):
        n = MAX_NESTING
        assert parse_word("(" * n + "x1" + ")" * n) == Word.variable(1)
        # [x1, x1] = 1, and so is every [x1, 1] around it
        assert parse_word("[x1," * n + "x1" + "]" * n).is_identity()
        assert parse_word("([x1," * (n // 2) + "x1" + "])" * (n // 2)) \
            .is_identity()

    @pytest.mark.parametrize("bad,position", [
        ("(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1),
         MAX_NESTING),
        ("[x1," * (MAX_NESTING + 1) + "x1" + "]" * (MAX_NESTING + 1),
         4 * MAX_NESTING),
        ("(" * 2000 + "x1" + ")" * 2000, MAX_NESTING)])
    def test_brackets_past_the_cap_are_a_parse_error(self, bad, position):
        with pytest.raises(ParseError, match="brackets nest deeper") as exc:
            parse_word(bad)
        assert exc.value.position == position

    @pytest.mark.parametrize("bad", ["x1^" + "9" * 5000, "x" + "9" * 5000])
    def test_a_number_past_the_digit_limit_is_a_parse_error(self, bad):
        # int() refuses more than 4,300 digits with a ValueError
        with pytest.raises(ParseError, match="number too long"):
            parse_word(bad)

    def test_a_large_power_takes_logarithmically_many_products(
            self, monkeypatch):
        calls = []
        multiply = Word.__mul__

        def counting(a, b):
            calls.append(1)
            return multiply(a, b)

        monkeypatch.setattr(Word, "__mul__", counting)
        assert parse_word("x1^4194304") == Word.variable(1, 2 ** 22)
        # repeated squaring: at most two products per bit, not 2^22
        assert len(calls) <= 2 * (2 ** 22).bit_length()


class TestPower:
    @pytest.mark.parametrize("text", [
        "x1", "x2^-3", "x1 x2", "[x1,x2]", "x1^2 x2^-1 x1", "[x1,x2,x3] x2"])
    def test_power_is_the_repeated_product(self, text):
        w = parse_word(text)
        for n in range(-9, 20):
            factor = w if n >= 0 else w.inverse()
            product = Word.identity()
            for _ in range(abs(n)):
                product = product * factor
            assert w ** n == product, n


    def test_a_power_past_the_syllable_cap_is_refused_before_it_is_built(
            self, monkeypatch):
        # (x1 x2)^n has 2n syllables; x1 x2 x1^-1 keeps 3 at every power
        assert len(parse_word("(x1 x2)^5000").letters) == MAX_DEGREE
        calls = []
        multiply = Word.__mul__

        def counting(a, b):
            calls.append(1)
            return multiply(a, b)

        monkeypatch.setattr(Word, "__mul__", counting)
        with pytest.raises(BudgetExceeded, match="max_degree: 10002"):
            parse_word("(x1 x2)^5001")
        # the two products that build x1 x2, then w w: no power is built
        assert len(calls) == 3
        calls.clear()
        word = parse_word("(x1 x2 x1^-1)^1000000000")
        assert word.letters == ((1, 1), (2, 10 ** 9), (1, -1))
        assert len(calls) <= 2 * (10 ** 9).bit_length() + 3

    def test_a_bracket_past_the_syllable_cap_is_refused_step_by_step(
            self, monkeypatch):
        # each entry of [x1, x2, x2, ...] about doubles the word: 13 entries
        # make 8,193 syllables, and the 18-entry bracket would make 524,289
        assert len(parse_word("[x1" + ",x2" * 12 + "]").letters) == 8193
        products = []
        multiply = Word.__mul__

        def counting(a, b):
            products.append(multiply(a, b))
            return products[-1]

        monkeypatch.setattr(Word, "__mul__", counting)
        with pytest.raises(BudgetExceeded, match="max_degree: 16388"):
            parse_word("[x1" + ",x2" * 17 + "]")
        # one product per parsed entry, then three per commutator step up
        # to the 8,193-syllable word; nothing past the cap is built
        assert len(products) == 18 + 3 * 12
        assert max(len(w.letters) for w in products) == 8193

    def test_the_bracket_cap_leaves_the_built_in_laws_alone(self):
        # the laws are composed without the parser's cap: derived_law(7)
        # has 16,384 syllables
        assert [len(nilpotency_law(c).letters) for c in range(1, 13)] == [
            4, 10, 22, 46, 94, 190, 382, 766, 1534, 3070, 6142, 12286]
        assert len(derived_law(7).letters) == 16384
        assert parse_word(
            "[" + ",".join(f"x{i}" for i in range(1, 13)) + "]"
        ) == nilpotency_law(11)


class TestEvaluation:
    def test_single_variable(self):
        s3 = symmetric_group(3)
        g = parse_permutation("(0 1 2)", 3)
        assert Word.variable(1).evaluate([g]) == g

    def test_cancellation_evaluates_to_identity(self):
        g = parse_permutation("(0 1 2)", 3)
        w = parse_word("x1 x1^-1")
        assert w.evaluate([g]).is_identity()

    def test_commutator_value_is_three_cycle(self):
        a = parse_permutation("(0 1)", 3)
        b = parse_permutation("(1 2)", 3)
        value = COMMUTATOR.evaluate([a, b])
        assert value.order() == 3
        # direct multiplication oracle
        assert value == a.inverse() * b.inverse() * a * b

    def test_arity_mismatch(self):
        with pytest.raises(GroupError):
            parse_word("[x1,x2]").evaluate([parse_permutation("(0 1)", 2)])


class TestClassification:
    def test_power(self):
        assert as_power_law(parse_word("x1^6")) == 6
        assert as_power_law(parse_word("x1 x2")) is None

    def test_nilpotency(self):
        assert as_nilpotency_law(COMMUTATOR) == 1
        assert as_nilpotency_law(nilpotency_law(2)) == 2
        assert as_nilpotency_law(parse_word("[x1,x2,x3]")) == 2
        assert as_nilpotency_law(parse_word("x1^2")) is None

    def test_derived(self):
        assert as_derived_law(COMMUTATOR) == 1
        assert as_derived_law(derived_law(2)) == 2
        assert as_derived_law(parse_word("[[x1,x2],[x3,x4]]")) == 2
        assert as_derived_law(parse_word("[x1,x2,x3]")) is None

    def test_weight_counts(self):
        assert nilpotency_law(2).arity == 3
        assert derived_law(2).arity == 4
        assert derived_law(3).arity == 8

    def test_left_normed_builder(self):
        vars3 = [Word.variable(i) for i in (1, 2, 3)]
        assert left_normed_commutator(vars3) == \
            commutator_word(commutator_word(vars3[0], vars3[1]), vars3[2])
