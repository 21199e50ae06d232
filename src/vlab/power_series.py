"""Truncated noncommutative power series over a prime field.

Monomials are flat sequences of variable indices (the algebra is free
noncommutative, so exponent vectors would be wrong); all monomials of total
degree >= d are dropped.  Units with constant term 1 form a finite p-group,
which is how a single reduced word is defeated: mapping x_i to 1 + y_i sends
a nontrivial word to a series with a predictable nonzero monomial, so the law
fails in that unit group.

Each syllable x_i^e maps to the binomial series sum_j C(e, j) y_i^j, where
C(e, j) = (-1)^j C(j - e - 1, j) for e < 0, and Lucas's theorem gives C(n, k)
mod p as the product of C(n_t, k_t) over the base-p digits.  So for
e = b * p^k (p not dividing b), C(e, j) = 0 mod p for 0 < j < p^k and
C(e, p^k) = b mod p: the image of a reduced word with exponents b_i * p^{k_i}
has the unique monomial y_{r_1}^{p^{k_1}} ... y_{r_s}^{p^{k_s}} of degree
p^{k_1} + ... + p^{k_s}, with coefficient b_1 ... b_s mod p, and truncating
one degree above that sum leaves the image visibly different from 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .config import MAX_DEGREE
from .errors import GroupError, check_budget
from .words import Word

Monomial = tuple[int, ...]  # sequence over variable indices 1..k


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes: exact below 3.1 * 10**23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@dataclass(frozen=True)
class SeriesParams:
    p: int
    variables: int
    truncation: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise GroupError("p must be a prime >= 2")
        if self.variables < 1:
            raise GroupError("need at least one variable")
        if self.truncation < 1:
            raise GroupError("truncation degree must be >= 1")


class TruncatedSeries:
    """Sparse series: monomial tuple -> nonzero coefficient mod p."""

    __slots__ = ("params", "terms")

    def __init__(self, params: SeriesParams, terms: dict[Monomial, int] | None = None):
        self.params = params
        clean: dict[Monomial, int] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) >= params.truncation:
                continue
            if any(not 1 <= v <= params.variables for v in mono):
                raise GroupError(f"monomial {mono} uses an unknown variable")
            c = coeff % params.p
            if c:
                clean[mono] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def one(params: SeriesParams) -> TruncatedSeries:
        return TruncatedSeries(params, {(): 1})

    @staticmethod
    def variable(params: SeriesParams, i: int) -> TruncatedSeries:
        return TruncatedSeries(params, {(i,): 1})

    # -- ring operations -------------------------------------------------------

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        if self.params != other.params:
            raise GroupError("mixed series parameters")
        d = self.params.truncation
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if len(m1) + len(m2) >= d:
                    continue
                mono = m1 + m2
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return TruncatedSeries(self.params, terms)

    def coefficient(self, mono: Monomial) -> int:
        return self.terms.get(tuple(mono), 0)

    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms


def _binomial_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p for n, k >= 0 by Lucas's theorem: the product of
    C(n_t, k_t) over the base-p digits n_t of n and k_t of k."""
    c = 1
    while k and c:
        n, n_t = divmod(n, p)
        k, k_t = divmod(k, p)
        c = c * comb(n_t, k_t) % p
    return c


def magnus_image(word: Word, p: int, d: int,
                 variables: int | None = None) -> TruncatedSeries:
    """Evaluate the word at x_i -> 1 + y_i in the truncated series ring, one
    product per syllable: x_i^e is sum_{j<d} C(e, j) y_i^j, with C(e, j) mod p
    by Lucas and C(e, j) = (-1)^j C(j - e - 1, j) for e < 0."""
    if d < 1:
        raise GroupError("truncation degree must be >= 1")
    k = variables if variables is not None else max(word.arity, 1)
    params = SeriesParams(p=p, variables=k, truncation=d)
    result = TruncatedSeries.one(params)
    for var, e in word.letters:
        if e > 0:  # C(e, j) = 0 for j > e
            coeffs = [_binomial_mod_p(e, j, p)
                      for j in range(min(e, d - 1) + 1)]
        else:
            coeffs = [(-1) ** j * _binomial_mod_p(j - e - 1, j, p)
                      for j in range(d)]
        result = result * TruncatedSeries(
            params, {(var,) * j: c for j, c in enumerate(coeffs) if c})
    return result


def p_adic_split(n: int, p: int) -> tuple[int, int]:
    """n = b * p^k with p not dividing b; returns (b, k).  Sign stays on b."""
    if n == 0:
        raise GroupError("0 has no p-adic split")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return n, k


@dataclass(frozen=True)
class WitnessReport:
    word: Word
    p: int
    truncation: int
    monomial: Monomial
    predicted_coefficient: int
    extracted_coefficient: int
    image_is_one: bool

    @property
    def consistent(self) -> bool:
        return (self.predicted_coefficient == self.extracted_coefficient
                and self.predicted_coefficient != 0
                and not self.image_is_one)


def law_failure_witness(word: Word, p: int) -> WitnessReport:
    """Defeat a nontrivial reduced word in a finite p-group of unit series.

    Writes each syllable exponent as b_i * p^{k_i}, truncates one degree
    above p^{k_1} + ... + p^{k_s}, and checks that the designated monomial
    carries coefficient b_1 ... b_s mod p (nonzero) and the image is not 1.
    """
    if word.is_identity():
        raise GroupError("the empty word is a law of every group")
    if not _is_prime(p):  # p_adic_split would divide by p forever
        raise GroupError(f"p must be a prime >= 2, got {p}")
    splits = [p_adic_split(exp, p) for _, exp in word.letters]
    degree_sum = sum(p ** k for _, k in splits)
    check_budget("max_degree", MAX_DEGREE, degree_sum)  # the monomial's length
    d = degree_sum + 1
    monomial: list[int] = []
    coeff = 1
    for (var, _), (b, k) in zip(word.letters, splits):
        monomial.extend([var] * (p ** k))
        coeff = (coeff * b) % p
    image = magnus_image(word, p, d)
    extracted = image.coefficient(tuple(monomial))
    return WitnessReport(
        word=word, p=p, truncation=d, monomial=tuple(monomial),
        predicted_coefficient=coeff, extracted_coefficient=extracted,
        image_is_one=image.is_one())
