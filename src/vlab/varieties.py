"""Variety descriptors, verbal subgroups, and membership tests.

A descriptor is one of: an explicit finite law set, the named families (the
abelian variety, nilpotent of class <= c, solvable of length <= n), the
variety generated by a fixed finite group (fixture-backed, deliberately
partial), or a product ``prod(N, Q)``: the class of extensions of an N-group
by a Q-group.

The verbal subgroup of a product is computed with the identity
``(NQ)(G) = N(Q(G))``, which the test suite validates against the brute-force
value collection on small groups via the universal property.  Membership
uses G in ``prod(N, Q)`` iff Q(G) in N; both read ``q_verbal``'s memoised
Q(G).  G lies in Nc:c or Sl:n exactly when that family's verbal subgroup
is trivial, and a law word spelling Nc:c or Sl:n is answered by that family.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gcd

from .config import DEFAULT_BUDGETS, MAX_NESTING, Budgets
from .errors import BudgetExceeded, FixtureGap, GroupError, ParseError
from .perm import PermutationGroup, all_tuples
from .structure import (class_representatives, derived_length,
                        derived_series, derived_subgroup, exponent,
                        generated_subgroup, is_solvable, lower_central_series,
                        normal_closure, product_subgroup)
from .words import (Word, as_derived_law, as_nilpotency_law, as_power_law,
                    derived_law, nilpotency_law, parse_word)

# -- descriptors ---------------------------------------------------------------


@dataclass(frozen=True)
class Laws:
    words: tuple[Word, ...]

    def __str__(self):
        return "laws:{" + ";".join(str(w).replace(" ", "") for w in self.words) + "}"


@dataclass(frozen=True)
class Abelian:
    def __str__(self):
        return "A"


@dataclass(frozen=True)
class NilpotentClass:
    c: int

    def __post_init__(self):
        if self.c < 1:
            raise GroupError("Nc needs c >= 1")

    def __str__(self):
        return f"Nc:{self.c}"


@dataclass(frozen=True)
class SolvableLength:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise GroupError("Sl needs n >= 1")

    def __str__(self):
        return f"Sl:{self.n}"


@dataclass(frozen=True)
class VarOfGroup:
    """The variety generated by the named group, resolved when made as
    ``--group`` is but never through ``--catalog``; compared by name."""

    group_name: str
    group: PermutationGroup = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        from .catalog import resolve_group_name  # catalog imports this module
        object.__setattr__(self, "group", resolve_group_name(self.group_name))

    def __str__(self):
        return f"var:{self.group_name}"


@dataclass(frozen=True)
class ProductVariety:
    left: "Descriptor"   # the normal-subgroup factor
    right: "Descriptor"  # the quotient factor

    def __str__(self):
        return f"prod({self.left},{self.right})"


Descriptor = Laws | Abelian | NilpotentClass | SolvableLength | VarOfGroup | ProductVariety


def parse_descriptor(text: str, nesting: int = 0) -> Descriptor:
    """Grammar: A | Nc:c | Sl:n | var:NAME | laws:{w;w;...} | prod(d,d);
    nesting counts the prod( levels around text, MAX_NESTING at most."""
    s = text.strip()
    if s == "A":
        return Abelian()
    for prefix, family in (("Nc:", NilpotentClass), ("Sl:", SolvableLength)):
        if s.startswith(prefix):
            try:
                return family(int(s[3:]))
            except ValueError:
                raise ParseError(f"{prefix} needs an integer: {text!r}") from None
    if s.startswith("var:"):
        name = s[4:].strip()
        if not name:
            raise ParseError("var: needs a group name")
        return VarOfGroup(name)
    if s.startswith("laws:{") and s.endswith("}"):
        body = s[len("laws:{"):-1]
        words = tuple(parse_word(part) for part in body.split(";") if part.strip())
        if not words:
            raise ParseError("laws:{} needs at least one word")
        return Laws(words)
    if s.startswith("prod(") and s.endswith(")"):
        if nesting >= MAX_NESTING:
            raise ParseError(f"prod( nests deeper than {MAX_NESTING}")
        body = s[len("prod("):-1]
        depth = 0
        for i, ch in enumerate(body):
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
            elif ch == "," and depth == 0:
                return ProductVariety(parse_descriptor(body[:i], nesting + 1),
                                      parse_descriptor(body[i + 1:], nesting + 1))
        raise ParseError(f"prod needs two comma-separated descriptors: {text!r}")
    raise ParseError(f"unknown descriptor {text!r}")


def descriptor_laws(desc: Descriptor) -> tuple[Word, ...]:
    """The defining law set for the named families."""
    if isinstance(desc, Laws):
        return desc.words
    if isinstance(desc, Abelian):
        return (nilpotency_law(1),)
    if isinstance(desc, NilpotentClass):
        return (nilpotency_law(desc.c),)
    if isinstance(desc, SolvableLength):
        return (derived_law(desc.n),)
    raise GroupError(f"{desc} has no explicit finite law basis here")


# -- fixtures -------------------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    """An externally sourced fact, never inferred; provenance is mandatory.

    kind is one of ``known-epi`` (subgroup is epimorphically embedded in group
    within the descriptor's variety), ``known-member`` or ``known-nonmember``
    (group membership in the descriptor's variety).
    """

    kind: str
    group: PermutationGroup
    subgroup: PermutationGroup | None
    descriptor: Descriptor
    provenance: str

    def __post_init__(self):
        if self.kind not in ("known-epi", "known-member", "known-nonmember"):
            raise GroupError(f"unknown fixture kind {self.kind!r}")
        if not self.provenance.strip():
            raise GroupError("fixtures must carry provenance")
        if self.kind == "known-epi" and self.subgroup is None:
            raise GroupError("known-epi fixtures need a subgroup")


def find_member_fixture(fixtures, G: PermutationGroup, desc: Descriptor):
    """Membership fixture matching G (as a concrete subgroup of Sym(deg))."""
    for fx in fixtures:
        if fx.descriptor != desc:
            continue
        if fx.kind in ("known-member", "known-nonmember") \
                and fx.group.same_group_as(G):
            return fx
    return None


def find_epi_fixture(fixtures, G: PermutationGroup, H: PermutationGroup,
                     desc: Descriptor):
    for fx in fixtures:
        if fx.kind != "known-epi" or fx.descriptor != desc:
            continue
        if fx.group.same_group_as(G) and fx.subgroup.same_group_as(H):
            return fx
    return None


# -- word evaluation over a group -----------------------------------------------


@dataclass
class LawCheck:
    holds: bool
    witness_word: Word | None = None
    witness_tuple: tuple | None = None
    note: str = ""


def eval_word(word: Word, values, G: PermutationGroup):
    """Evaluate a law at a tuple of elements of G."""
    for v in values:
        if v.degree != G.degree:
            raise GroupError("tuple entry degree differs from G")
    if word.arity > len(values):
        raise GroupError(f"word needs arity {word.arity}, got {len(values)}")
    if word.is_identity() or not word.letters:
        return G.identity()
    return word.evaluate(list(values) + [G.identity()])


def _word_family(word: Word):
    """The named family a law word defines (Nc:c or Sl:n), else None."""
    c = as_nilpotency_law(word)
    if c is not None:
        return NilpotentClass(c)
    n = as_derived_law(word)
    return None if n is None else SolvableLength(n)


def _value_seed(G: PermutationGroup, word: Word, budgets: Budgets):
    """Generators for the single-word verbal subgroup, by strategy.

    Word values are closed under conjugation (substituting a conjugated tuple
    conjugates the value), so the subgroup they generate is normal and the
    targeted strategies below agree with full tuple enumeration.
    """
    e = as_power_law(word)
    if e is not None:
        reps = class_representatives(G, budgets)
        values = [r ** e for r in reps]
        return normal_closure(G, [v for v in values if not v.is_identity()])
    family = _word_family(word)
    if family is not None:
        return q_verbal(G, family, budgets)
    # fallback: each distinct value once, in the order the walk meets it
    return generated_subgroup(G, {v.images: v for _, v in
                                  _word_values(G, word, budgets)}.values())


def _word_values(G: PermutationGroup, word: Word, budgets: Budgets):
    """(tuple, value) for each tuple of G's elements on which word is not
    the identity, in ``all_tuples`` order; the budgets are checked before
    the first tuple: max_enumerate, then max_degree and max_tuples."""
    elements = G.elements(budgets.max_enumerate)
    for tup in all_tuples(elements, word.arity, budgets.max_tuples):
        value = word.evaluate(list(tup))
        if not value.is_identity():
            yield tup, value


def verbal_subgroup(G: PermutationGroup, laws,
                    budgets: Budgets = DEFAULT_BUDGETS) -> PermutationGroup:
    """Subgroup generated by all values of all laws; normal by construction."""
    laws = list(laws)
    if not laws:
        raise GroupError("verbal_subgroup needs at least one law")
    result = G.subgroup([G.identity()])
    for word in laws:
        if word.is_identity():
            continue
        part = _value_seed(G, word, budgets)
        if part.order() > 1:
            result = product_subgroup(G, result, part)
    return result


def _law_holds(G: PermutationGroup, word: Word, budgets: Budgets) -> bool:
    e = as_power_law(word)
    if e is not None:
        return e % exponent(G, budgets) == 0
    family = _word_family(word)
    if family is not None:
        return member_of_variety(G, family, budgets)
    return next(_word_values(G, word, budgets), None) is None


def _find_witness(G: PermutationGroup, word: Word, budgets: Budgets):
    """The first violating tuple, or None when a budget stops the walk."""
    try:
        return next((tup for tup, _ in _word_values(G, word, budgets)), None)
    except BudgetExceeded:
        return None


def satisfies_laws(G: PermutationGroup, laws,
                   budgets: Budgets = DEFAULT_BUDGETS) -> LawCheck:
    """True iff every law vanishes identically; early exit with a witness."""
    for word in laws:
        if word.is_identity():
            continue
        if not _law_holds(G, word, budgets):
            witness = _find_witness(G, word, budgets)
            note = "" if witness is not None else \
                "witness search capped; violation certified by subgroup strategy"
            return LawCheck(holds=False, witness_word=word,
                            witness_tuple=witness, note=note)
    return LawCheck(holds=True)


# -- descriptor-level operations --------------------------------------------------


def q_verbal(G: PermutationGroup, desc: Descriptor,
             budgets: Budgets = DEFAULT_BUDGETS) -> PermutationGroup:
    """The verbal subgroup of G for desc: the least normal N with G/N in desc.

    Kept in ``G.memo("q_verbal")`` by (desc, budgets), so a tighter budget
    still raises after a looser call; an exception leaves no entry.  No
    fixture is read: a ``var:`` part raises FixtureGap on nontrivial G.
    """
    memo = G.memo("q_verbal", dict)
    key = (desc, budgets)
    if key not in memo:
        memo[key] = _compute_verbal(G, desc, budgets)
    return memo[key]


def _compute_verbal(G: PermutationGroup, desc: Descriptor,
                    budgets: Budgets) -> PermutationGroup:
    """q_verbal(G, desc), computed."""
    if isinstance(desc, Abelian):
        return derived_subgroup(G)
    if isinstance(desc, NilpotentClass):
        return lower_central_series(
            G, min(desc.c, G.order().bit_length()))[-1]
    if isinstance(desc, SolvableLength):
        series = derived_series(G)
        return series[min(desc.n, len(series) - 1)]
    if isinstance(desc, Laws):
        return verbal_subgroup(G, desc.words, budgets)
    if isinstance(desc, ProductVariety):
        return q_verbal(q_verbal(G, desc.right, budgets), desc.left, budgets)
    if isinstance(desc, VarOfGroup):
        if G.order() == 1:
            return G.subgroup([G.identity()])
        raise FixtureGap(
            f"verbal subgroup for {desc} is undecidable with current fixtures")
    raise GroupError(f"unhandled descriptor {desc!r}")


def member_of_variety(G: PermutationGroup, desc: Descriptor,
                      budgets: Budgets = DEFAULT_BUDGETS,
                      fixtures=()):
    """Three-valued membership: True, False, or None for unknown."""
    if G.order() == 1:
        return True
    if isinstance(desc, Abelian):
        return G.is_abelian()
    if isinstance(desc, (NilpotentClass, SolvableLength)):
        return _compute_verbal(G, desc, budgets).order() == 1
    if isinstance(desc, Laws):
        return all(_law_holds(G, w, budgets) for w in desc.words
                   if not w.is_identity())
    if isinstance(desc, ProductVariety):
        # G lies in prod(N, Q) exactly when Q(G) lies in N
        inner = q_verbal(G, desc.right, budgets)
        return member_of_variety(inner, desc.left, budgets, fixtures)
    if isinstance(desc, VarOfGroup):
        fx = find_member_fixture(fixtures, G, desc)
        if fx is not None:
            return fx.kind == "known-member"
        # necessary-condition screen: laws that hold in the generating group
        # must hold in every member.
        if any(member_of_variety(G, family, budgets) is False
               for family in _screen_families(desc.group, budgets)):
            return False
        return None
    raise GroupError(f"unhandled descriptor {desc!r}")


def _screen_families(S: PermutationGroup, budgets: Budgets):
    """Cheap varieties containing S: its exponent law, Nc:1, Nc:2 and Sl:n
    for its derived length n, each kept if S lies in it.  Memoised in
    ``S.memo("screen_families")`` once exponent() has checked the budget."""
    e = exponent(S, budgets)

    def compute():
        n = derived_length(S) or 1  # a nonsolvable S is not in Sl:1
        candidates = (Laws((Word.variable(1, e),)), NilpotentClass(1),
                      NilpotentClass(2), SolvableLength(n))
        return tuple(d for d in candidates if member_of_variety(S, d, budgets))

    return S.memo("screen_families", compute)


def is_trivial_variety(desc: Descriptor) -> bool:
    """Whether desc is the variety of trivial groups.

    A nontrivial variety contains some C_p, and C_p satisfies a word iff p
    divides each of its per-variable exponent sums; so a law set is trivial
    exactly when the gcd of all those sums is 1.
    """
    if isinstance(desc, Laws):
        sums = Counter()  # an absent variable's sum, 0, leaves the gcd
        for i, w in enumerate(desc.words):
            for v, e in w.letters:
                sums[i, v] += e
        return gcd(*sums.values()) == 1
    if isinstance(desc, ProductVariety):
        return is_trivial_variety(desc.left) and is_trivial_variety(desc.right)
    if isinstance(desc, VarOfGroup):
        return desc.group.order() == 1
    return False


def is_solvable_variety(desc: Descriptor) -> bool | None:
    """Structural True, False or None; never guesses from raw law sets.
    var:S is solvable exactly when S is: S of derived length d puts var:S
    inside Sl:d, and S itself is a member."""
    if isinstance(desc, (Abelian, NilpotentClass, SolvableLength)):
        return True
    if isinstance(desc, ProductVariety):
        # three-valued: a product is solvable iff both factors are
        both = [is_solvable_variety(d) for d in (desc.left, desc.right)]
        return False if False in both else both[0] and both[1]
    if isinstance(desc, VarOfGroup):
        return is_solvable(desc.group)
    return None
