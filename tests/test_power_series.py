import random
from math import comb

import pytest

from vlab.config import MAX_DEGREE
from vlab.errors import BudgetExceeded, GroupError
from vlab.power_series import (SeriesParams, TruncatedSeries,
                               _binomial_mod_p, law_failure_witness,
                               magnus_image, p_adic_split)
from vlab.scenarios import MAGNUS_CORPUS
from vlab.words import Word, parse_word

ONE = {(): 1}  # the terms of the series 1


def random_series(rng, params, terms=4):
    data = {}
    for _ in range(terms):
        length = rng.randint(0, params.truncation - 1)
        mono = tuple(rng.randint(1, params.variables) for _ in range(length))
        data[mono] = rng.randint(1, params.p - 1)
    return TruncatedSeries(params, data)


def add(a, b):
    terms = dict(a.terms)
    for mono, coeff in b.terms.items():
        terms[mono] = terms.get(mono, 0) + coeff
    return TruncatedSeries(a.params, terms)


def power(u, n):
    result = TruncatedSeries.one(u.params)
    for _ in range(n):
        result = result * u
    return result


def random_unit(rng, params):
    """1 plus a random series without constant term."""
    terms = dict(random_series(rng, params).terms)
    terms[()] = 1
    return TruncatedSeries(params, terms)


def reference_inverse(u):
    """Inverse of a series with constant term 1 by the finite geometric
    series: 1 - a + a^2 - ..., where the augmentation part a is nilpotent at
    truncation d."""
    assert u.terms.get(()) == 1
    minus_a = TruncatedSeries(u.params,
                              {m: -c for m, c in u.terms.items() if m})
    result = term = TruncatedSeries.one(u.params)
    for _ in range(1, u.params.truncation):
        term = term * minus_a
        result = add(result, term)
    return result


def per_letter_image(word, p, d, variables):
    """The Magnus image as the product of one factor per letter: 1 + y_i
    for x_i and its reference inverse for x_i^-1."""
    params = SeriesParams(p, variables, d)
    result = TruncatedSeries.one(params)
    for var, exp in word.letters:
        factor = TruncatedSeries(params, {(): 1, (var,): 1})
        if exp < 0:
            factor = reference_inverse(factor)
        for _ in range(abs(exp)):
            result = result * factor
    return result


class TestRingAxioms:
    @pytest.mark.parametrize("p,k,d", [(2, 2, 5), (3, 2, 4)])
    def test_associativity_and_distributivity(self, p, k, d):
        params = SeriesParams(p, k, d)
        rng = random.Random(100 * p + d)
        for _ in range(60):
            a = random_series(rng, params)
            b = random_series(rng, params)
            c = random_series(rng, params)
            assert (a * b) * c == a * (b * c)
            assert a * add(b, c) == add(a * b, a * c)
            assert add(a, b) * c == add(a * c, b * c)

    def test_one_is_neutral(self):
        params = SeriesParams(2, 2, 5)
        rng = random.Random(1)
        one = TruncatedSeries.one(params)
        for _ in range(20):
            a = random_series(rng, params)
            assert a * one == a
            assert one * a == a

    def test_noncommutative(self):
        params = SeriesParams(2, 2, 3)
        y1 = TruncatedSeries.variable(params, 1)
        y2 = TruncatedSeries.variable(params, 2)
        assert y1 * y2 != y2 * y1

    def test_truncation_drops_high_degree(self):
        params = SeriesParams(2, 1, 3)
        y = TruncatedSeries.variable(params, 1)
        assert (y * y * y).terms == {}

    def test_parameter_mismatch(self):
        a = TruncatedSeries.one(SeriesParams(2, 2, 4))
        b = TruncatedSeries.one(SeriesParams(3, 2, 4))
        with pytest.raises(GroupError):
            a * b


class TestUnitInverse:
    """The geometric-series inverse that per_letter_image uses."""

    def test_inverse_of_one_plus_y(self):
        params = SeriesParams(2, 1, 3)
        u = TruncatedSeries(params, {(): 1, (1,): 1})
        inv = reference_inverse(u)
        assert inv.terms == {(): 1, (1,): 1, (1, 1): 1}  # 1 + y + y^2
        assert (u * inv).terms == ONE

    def test_inverse_of_one(self):
        params = SeriesParams(3, 1, 4)
        one = TruncatedSeries.one(params)
        assert reference_inverse(one) == one

    def test_involutive_on_random_units(self):
        params = SeriesParams(3, 2, 4)
        rng = random.Random(2)
        for _ in range(40):
            u = random_unit(rng, params)
            assert (u * reference_inverse(u)).terms == ONE
            assert reference_inverse(reference_inverse(u)) == u

    def test_unit_group_exponent(self):
        # units with constant term 1 have exponent dividing p^ceil(log_p d)
        import math
        for p, k, d in ((2, 2, 5), (3, 1, 4)):
            params = SeriesParams(p, k, d)
            exponent = p ** math.ceil(math.log(d, p))
            rng = random.Random(p * d)
            for _ in range(25):
                assert power(random_unit(rng, params), exponent).terms == ONE


class TestMagnusImage:
    def test_single_variable(self):
        img = magnus_image(Word.variable(1), 5, 2)
        assert img.terms == {(): 1, (1,): 1}

    def test_square_mod_2(self):
        img = magnus_image(parse_word("x1^2"), 2, 3)
        assert img.terms == {(): 1, (1, 1): 1}

    def test_commutator_leading_monomial(self):
        img = magnus_image(parse_word("[x1,x2]"), 2, 5)
        assert img.terms[(1, 2, 1, 2)] == 1

    def _short_words(self):
        letters = [(1, 1), (1, -1), (2, 1), (2, -1)]
        words = {Word.identity()}
        frontier = [Word.identity()]
        for _ in range(4):
            new = []
            for w in frontier:
                for letter in letters:
                    extended = w * Word.make([letter])
                    if extended.length() == w.length() + 1 \
                            and extended not in words:
                        words.add(extended)
                        new.append(extended)
            frontier = new
        return sorted(words, key=lambda w: (w.length(), str(w)))

    def test_freeness_spot_check(self):
        # distinct reduced words of length <= 4 on two variables separate at
        # d = 9, p = 2; below that, (1+y)^4 = 1 + y^4 exactly mod 2 makes
        # x^4 and x^-4 agree, so d = 9 is the sharp truncation here
        images = {}
        for w in self._short_words():
            img = magnus_image(w, 2, 9, variables=2)
            key = tuple(sorted(img.terms.items()))
            assert key not in images, (w, images[key])
            images[key] = w

    def test_freeness_boundary_at_low_truncation(self):
        # at d = 6 the only colliding pairs are x_i^4 vs x_i^-4
        images = {}
        collisions = set()
        for w in self._short_words():
            img = magnus_image(w, 2, 6, variables=2)
            key = tuple(sorted(img.terms.items()))
            if key in images:
                collisions.add(frozenset((str(images[key]), str(w))))
            else:
                images[key] = w
        assert collisions == {frozenset(("x1^4", "x1^-4")),
                              frozenset(("x2^4", "x2^-4"))}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_the_per_letter_product_on_short_words(self, p):
        for d in range(1, 10):
            for w in self._short_words():
                assert magnus_image(w, p, d, variables=2) == \
                    per_letter_image(w, p, d, 2), (str(w), p, d)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_the_per_letter_product_on_prime_power_exponents(self, p):
        # exponents +-b * p^k (p^k <= 8), alone and next to x2-syllables
        exponents = [s * b * p ** k for s in (1, -1) for b in (1, 2, 3, 4)
                     for k in range(4) if p ** k <= 8 and b % p]
        for e in exponents:
            for w in (Word.variable(1, e),
                      Word.make([(1, e), (2, -1)]),
                      Word.make([(2, 1), (1, e), (2, -e)])):
                for d in range(1, 10):
                    assert magnus_image(w, p, d, variables=2) == \
                        per_letter_image(w, p, d, 2), (str(w), p, d)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_lucas_binomial_matches_comb(self, p):
        for n in range(200):
            for k in range(200):
                assert _binomial_mod_p(n, k, p) == comb(n, k) % p, (n, k)


class TestLawFailureWitness:
    def test_p_adic_split(self):
        assert p_adic_split(12, 2) == (3, 2)
        assert p_adic_split(-8, 2) == (-1, 3)
        assert p_adic_split(5, 3) == (5, 0)
        with pytest.raises(GroupError):
            p_adic_split(0, 2)

    # frozen from the degree rule plus direct expansion
    @pytest.mark.parametrize("text,p,d,monomial,coeff", [
        ("x1^2", 2, 3, (1, 1), 1),
        ("[x1,x2]", 2, 5, (1, 2, 1, 2), 1),
        ("x1", 3, 2, (1,), 1),
        ("x1^6", 2, 3, (1, 1), 1),       # 6 = 3*2: b=3, k=1
        ("x1^6", 3, 4, (1, 1, 1), 2),    # 6 = 2*3: b=2, k=1
    ])
    def test_examples(self, text, p, d, monomial, coeff):
        report = law_failure_witness(parse_word(text), p)
        assert report.truncation == d
        assert report.monomial == monomial
        assert report.predicted_coefficient == coeff
        assert report.extracted_coefficient == coeff
        assert not report.image_is_one
        assert report.consistent

    def test_empty_word_rejected(self):
        with pytest.raises(GroupError):
            law_failure_witness(Word.identity(), 2)

    @pytest.mark.parametrize("p", [1, 0, -3, 4, 9, 561])
    def test_p_must_be_prime(self, p):
        # p = 1 would split each exponent by p forever, p = 0 divide by 0
        with pytest.raises(GroupError):
            law_failure_witness(Word.variable(1), p)
        with pytest.raises(GroupError):
            SeriesParams(p, 1, 2)

    def test_the_witness_monomial_is_bounded_before_it_is_built(self):
        # x1^(2^k) at p = 2 asks for a monomial of 2^k letters
        assert len(law_failure_witness(Word.variable(1, 8192), 2)
                   .monomial) == 8192
        with pytest.raises(BudgetExceeded) as info:
            law_failure_witness(Word.variable(1, 2 ** 30), 2)
        assert info.value.budget_name == "max_degree"
        assert info.value.limit == MAX_DEGREE

    def test_large_prime_is_accepted_at_once(self):
        p = 2 ** 61 - 1
        assert law_failure_witness(Word.variable(1), p).consistent

    def test_prediction_matches_extraction_on_random_words(self):
        rng = random.Random(77)
        letters = [(1, 1), (1, -1), (1, 2), (2, 1), (2, -1), (3, 1), (3, 2)]
        for _ in range(40):
            body = []
            for _ in range(rng.randint(1, 4)):
                body.append(letters[rng.randrange(len(letters))])
            word = Word.make(body)
            if word.is_identity():
                continue
            for p in (2, 3):
                report = law_failure_witness(word, p)
                assert report.consistent, (str(word), p)

    @pytest.mark.parametrize("text,p,letters", [
        ("x1^-8192", 2, 8192), ("x1^-1024 x2^512", 2, 1536),
        ("[x1,x2,x3,x4]", 2, 22),
        ("[x1,x2,x3,x4,x5,x6]", 2, 94), ("[x1,x2,x3,x4,x5,x6]", 3, 94),
        ("(x1^-1 x2 x1^4 x2)^200", 2, 1400)])
    def test_the_witness_makes_no_series_product(self, text, p, letters,
                                                 monkeypatch):
        # the truncated image grows exponentially in the syllable count
        calls = []
        mul = TruncatedSeries.__mul__

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
        report = law_failure_witness(parse_word(text), p)
        assert report.consistent
        assert len(report.monomial) == letters
        assert calls == []

    def test_a_zero_coefficient_leaves_the_image_undecided(self,
                                                           monkeypatch):
        # only a wrong binomial gives 0; the report then decides nothing
        monkeypatch.setattr("vlab.power_series._binomial_mod_p",
                            lambda n, k, p: 0)
        report = law_failure_witness(parse_word("[x1,x2]"), 2)
        assert report.extracted_coefficient == 0
        assert report.image_is_one is None
        assert not report.consistent


def _extracted_from_the_image(report):
    image = magnus_image(report.word, report.p, report.truncation)
    return image.terms.get(report.monomial, 0), image.terms == ONE


class TestWitnessAgainstTheImage:
    """The product over syllables against the whole truncated image."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_seeded_random_words(self, p):
        rng = random.Random(3400 + p)
        exponents = [e for e in range(-9, 10) if e]
        for _ in range(150):
            letters, var = [], 0
            for _ in range(rng.randint(1, 5)):
                var = rng.choice([v for v in (1, 2, 3) if v != var])
                letters.append((var, rng.choice(exponents)))
            report = law_failure_witness(Word.make(letters), p)
            coeff, is_one = _extracted_from_the_image(report)
            assert report.extracted_coefficient == coeff, (letters, p)
            assert report.image_is_one is is_one is False

    @pytest.mark.parametrize("text", MAGNUS_CORPUS)
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_magnus_corpus(self, text, p):
        report = law_failure_witness(parse_word(text), p)
        coeff, is_one = _extracted_from_the_image(report)
        assert report.extracted_coefficient == coeff
        assert report.image_is_one is is_one is False
