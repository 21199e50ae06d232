"""Free-group words: the laws that cut out varieties.

A word is a reduced sequence of (variable, exponent) syllables with variables
numbered from 1.  Syntax: ``x1``, ``x2^-3``, ``1`` for the identity word,
juxtaposition for products, and ``[w1,w2]`` for the commutator
``w1^-1 w2^-1 w1 w2``; a bracket with more than two entries is the left-normed
commutator ``[[w1,w2],w3,...]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .config import MAX_DEGREE, MAX_NESTING
from .errors import GroupError, ParseError, check_budget
from .perm import Permutation, power


def _reduce(letters):
    out: list[tuple[int, int]] = []
    for var, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == var:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((var, merged))
        else:
            out.append((var, exp))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A reduced word; ``letters`` pairs are (variable index >= 1, exponent)."""

    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for var, exp in self.letters:
            if var < 1:
                raise GroupError("variable indices start at 1")
            if exp == 0:
                raise GroupError("zero exponent in a reduced word")
        for (a, _), (b, _) in zip(self.letters, self.letters[1:]):
            if a == b:
                raise GroupError("adjacent syllables share a variable")

    @staticmethod
    def make(letters) -> Word:
        return Word(_reduce(letters))

    @staticmethod
    def variable(i: int, exp: int = 1) -> Word:
        return Word.make([(i, exp)])

    @staticmethod
    def identity() -> Word:
        return Word(())

    @property
    def arity(self) -> int:
        return max((var for var, _ in self.letters), default=0)

    def is_identity(self) -> bool:
        return not self.letters

    def length(self) -> int:
        """Total letter count (sum of |exponent| over syllables)."""
        return sum(abs(exp) for _, exp in self.letters)

    def __mul__(self, other: Word) -> Word:
        return Word.make(self.letters + other.letters)

    def inverse(self) -> Word:
        return Word(tuple((var, -exp) for var, exp in reversed(self.letters)))

    def __pow__(self, n: int) -> Word:
        """Repeated squaring, once the power's syllable count is checked."""
        if n < 0:
            return self.inverse() ** (-n)
        if n > 1:
            # each of the n - 1 joins of w^n reduces away what w w does
            syllables = len(self.letters)
            lost = 2 * syllables - len((self * self).letters)
            check_budget("max_degree", MAX_DEGREE,
                         n * syllables - (n - 1) * lost)
        return power(self, n, Word.identity())

    def evaluate(self, values) -> Permutation:
        """Substitute values[i-1] for x_i and multiply left to right."""
        if self.arity > len(values):
            raise GroupError(
                f"word of arity {self.arity} needs {self.arity} values, "
                f"got {len(values)}")
        if not values:
            raise GroupError("evaluation needs at least one value for degree")
        result = Permutation.identity(values[0].degree)
        for var, exp in self.letters:
            result = result * (values[var - 1] ** exp)
        return result

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for var, exp in self.letters:
            parts.append(f"x{var}" if exp == 1 else f"x{var}^{exp}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Word.parse({str(self)!r})"

    @staticmethod
    def parse(text: str) -> Word:
        return parse_word(text)


def commutator_word(a: Word, b: Word) -> Word:
    return a.inverse() * b.inverse() * a * b


def left_normed_commutator(words) -> Word:
    words = list(words)
    if not words:
        raise GroupError("empty commutator")
    acc = words[0]
    for w in words[1:]:
        acc = commutator_word(acc, w)
    return acc


def nilpotency_law(c: int) -> Word:
    """Left-normed commutator of weight c+1 on distinct variables."""
    if c < 1:
        raise GroupError("nilpotency class must be >= 1")
    return left_normed_commutator([Word.variable(i) for i in range(1, c + 2)])


def derived_law(n: int) -> Word:
    """The iterated-commutator law of derived length n, on 2^n variables."""
    if n < 1:
        raise GroupError("derived length must be >= 1")

    def rec(depth: int, start: int) -> Word:
        if depth == 0:
            return Word.variable(start)
        half = 2 ** (depth - 1)
        return commutator_word(rec(depth - 1, start),
                               rec(depth - 1, start + half))

    return rec(n, 1)


# -- parser -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(x\d+|1|\[|\]|,|\(|\)|\^-?\d+)")


def _tokenize(text: str):
    tokens = []
    pos = depth = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"bad token in word {text!r}", position=pos)
        tok = match.group(1)
        depth += (tok in ("(", "[")) - (tok in (")", "]"))  # parse recursion
        if depth > MAX_NESTING:
            raise ParseError(f"brackets nest deeper than {MAX_NESTING}",
                             position=pos)
        tokens.append((tok, pos))
        pos = match.end()
    return tokens


def _int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past int()'s limit on decimal digits
        raise ParseError("number too long", position=pos) from None


class _WordParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> Word:
        # only the end stops the outer product: parse_term reports a stray ')'
        return self.parse_product(stop=())

    def parse_product(self, stop) -> Word:
        result = Word.identity()
        while self.peek() is not None and self.peek() not in stop:
            result = result * self.parse_term()
        return result

    def parse_term(self) -> Word:
        tok, pos = self.next()
        if tok.startswith("x"):
            atom = Word.variable(_int(tok[1:], pos))
        elif tok == "1":
            atom = Word.identity()
        elif tok == "(":
            atom = self.parse_product(stop={")"})
            self._expect(")")
        elif tok == "[":
            entries = [self.parse_product(stop={",", "]"})]
            while self.peek() == ",":
                self.next()
                entries.append(self.parse_product(stop={",", "]"}))
            self._expect("]")
            if len(entries) < 2:
                raise ParseError("commutator needs at least two entries",
                                 position=pos)
            atom = entries[0]
            for entry in entries[1:]:
                # [a, b] = a^-1 b^-1 a b has at most 2(|a| + |b|) syllables
                check_budget("max_degree", MAX_DEGREE,
                             2 * (len(atom.letters) + len(entry.letters)))
                atom = commutator_word(atom, entry)
        else:
            raise ParseError(f"unexpected {tok!r} in word {self.text!r}",
                             position=pos)
        if self.peek() is not None and self.peek().startswith("^"):
            exp_tok, exp_pos = self.next()
            atom = atom ** _int(exp_tok[1:], exp_pos)
        return atom

    def _expect(self, tok: str):
        if self.peek() != tok:
            pos = (self.tokens[self.index][1]
                   if self.index < len(self.tokens) else len(self.text))
            raise ParseError(f"expected {tok!r} in word {self.text!r}",
                             position=pos)
        self.next()


def parse_word(text: str) -> Word:
    return _WordParser(text).parse()


# -- structural classification (drives evaluation strategies) -----------------


def as_power_law(word: Word) -> int | None:
    """Exponent e if the word is x_i^e for a single variable, else None."""
    if len(word.letters) == 1:
        return word.letters[0][1]
    return None


def as_nilpotency_law(word: Word) -> int | None:
    """c (at most 11) if the word is the left-normed weight-(c+1)
    commutator, else None; only the law of the word's arity is built."""
    c = word.arity - 1
    return c if 1 <= c <= 11 and word == nilpotency_law(c) else None


def as_derived_law(word: Word) -> int | None:
    """n (at most 7) if the word is the derived-length-n law, else None;
    only a word of arity 2^n is compared, with that one law."""
    n = word.arity.bit_length() - 1
    return (n if 1 <= n <= 7 and word.arity == 2 ** n
            and word == derived_law(n) else None)
