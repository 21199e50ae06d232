"""Permutations and permutation groups with a deterministic stabilizer chain.

Conventions used throughout the library:

* points are 0-based integers ``0..degree-1``;
* products compose left to right: ``(p * q)(x) == q(p(x))``;
* conjugation is ``p ** g == g^-1 * p * g``;
* the canonical ordering of group elements is lexicographic on image tuples
  (so the identity always sorts first).

The stabilizer chain is built by a plain deterministic Schreier-Sims: base
points are the smallest moved points, orbits are explored breadth-first with
generators in list order.  Two runs over the same generator list produce the
same chain, the same transversals and the same element enumeration, which is
what makes certificates reproducible.  The build and the sift work on image
tuples, with the inverse of every transversal value kept beside it, and a
Schreier generator already known to lie in the deeper chain is not sifted
again; neither changes which generators are adjoined or in what order, so
the chain is the one the plain algorithm builds (see ``StabilizerChain``).

A subgroup made by ``G.subgroup(gens)`` remembers its root ambient (G's own
root, or G).  Once the root has listed its elements, the subgroup answers
``order``, ``contains`` and ``elements`` from the set of its members'
positions in the root's ``indexed()`` list, the closure of the identity
along the root's multiplication columns of its generators; position order
is canonical order, so no chain and no sort is needed.  The path lists
nothing that was not listed already, and its closure is bounded by the
root's order, which passed the root's ``max_enumerate`` check when it was
listed.  A group with no member set (a query made before the root is
listed, a subgroup with a generator outside its root, a group not made by
``subgroup()``) answers ``contains`` from its own index once it is listed
itself, and from its stabilizer chain before; ``random_element`` and
``chain()`` always use the chain.

Validation happens only at the boundaries: ``Permutation(...)``,
``from_cycles``, ``parse_permutation`` and everything built on them (the
catalog, certificate JSON) check that the images form a permutation.
Products, inverses and identities are permutations by construction, so
they go through the unchecked ``Permutation._trusted``, which no other
module may call.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass
from functools import cache
from math import gcd

from .errors import DegreeMismatch, GroupError, ParseError, check_budget


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection on 0..degree-1, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise GroupError(f"not a permutation of 0..{n - 1}: {self.images}")

    @staticmethod
    def _trusted(images: tuple[int, ...]) -> Permutation:
        """Wrap images already known to be a permutation, unchecked."""
        p = object.__new__(Permutation)
        object.__setattr__(p, "images", images)
        return p

    @staticmethod
    def identity(degree: int) -> Permutation:
        return Permutation._trusted(_identity_images(degree))

    @staticmethod
    def from_cycles(degree: int, cycles) -> Permutation:
        images = list(range(degree))
        for cycle in cycles:
            if len(set(cycle)) != len(cycle):
                raise GroupError(f"repeated point in cycle {cycle}")
            if any(not 0 <= x < degree for x in cycle):
                raise GroupError(f"cycle {cycle} has a point outside "
                                 f"0..{degree - 1}")
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return Permutation(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Permutation) -> Permutation:
        if len(self.images) != len(other.images):
            raise DegreeMismatch(
                f"degree {len(self.images)} vs {len(other.images)}")
        return Permutation._trusted(
            tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> Permutation:
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._trusted(tuple(inv))

    def __pow__(self, g):
        # integer power; for a Permutation exponent this is conjugation
        # g^-1*self*g, which maps g(x) to g(self(x))
        if isinstance(g, Permutation):
            p, h = self.images, g.images
            if len(p) != len(h):
                raise DegreeMismatch(f"degree {len(p)} vs {len(h)}")
            out = [0] * len(p)
            for x, y in zip(h, map(h.__getitem__, p)):
                out[x] = y
            return Permutation._trusted(tuple(out))
        n = g
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(len(self.images))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def moved_points(self):
        return [i for i, j in enumerate(self.images) if i != j]

    def cycles(self):
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = set()
        out = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def order(self) -> int:
        n = 1
        for cycle in self.cycles():
            n = n * len(cycle) // gcd(n, len(cycle))
        return n

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation.parse({str(self)!r}, degree={self.degree})"

    @staticmethod
    def parse(text: str, degree: int | None = None) -> Permutation:
        return parse_permutation(text, degree)


@cache
def _identity_images(degree: int) -> tuple[int, ...]:
    """The identity's image tuple, one shared tuple per degree."""
    return tuple(range(degree))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, degree: int | None = None) -> Permutation:
    """Parse cycle notation like ``(0 1 2 3 4)(5 6)``; ``()`` is the identity.

    Points are 0-based and separated by whitespace (commas tolerated).
    """
    stripped = text.strip()
    if stripped in ("", "()"):
        if degree is None:
            raise ParseError("identity needs an explicit degree")
        return Permutation.identity(degree)
    rest = stripped
    cycles = []
    pos = 0
    while rest:
        match = _CYCLE_RE.match(rest)
        if match is None:
            raise ParseError(f"expected a cycle in {text!r}", position=pos)
        body = match.group(1).replace(",", " ").split()
        try:
            points = [int(tok) for tok in body]
        except ValueError as exc:
            raise ParseError(f"bad point in cycle {match.group(0)!r}: {exc}",
                             position=pos) from None
        if any(p < 0 for p in points):
            raise ParseError("points are 0-based and nonnegative", position=pos)
        if points:
            cycles.append(points)
        pos += match.end()
        rest = rest[match.end():].lstrip()
    needed = max((max(c) for c in cycles), default=-1) + 1
    if degree is None:
        degree = needed
    elif needed > degree:
        raise ParseError(f"cycle uses point {needed - 1} >= degree {degree}")
    return Permutation.from_cycles(degree, cycles)


class _Level:
    __slots__ = ("point", "gens", "transversal", "inverses")

    def __init__(self, point: int, degree: int):
        self.point = point
        # generators of this level's full stabilizer group (not a partition:
        # every element of the deeper group that surfaces here is appended)
        self.gens: list[Permutation] = []
        identity = Permutation.identity(degree)
        self.transversal: dict[int, Permutation] = {point: identity}
        # image tuple of the inverse of every transversal value
        self.inverses: dict[int, tuple[int, ...]] = {point: identity.images}


class StabilizerChain:
    """Base and strong generating set for a finite permutation group.

    Textbook deterministic Schreier-Sims: level i holds a generating set of
    the pointwise stabilizer of the first i base points, its orbit is
    explored breadth-first with generators in list order, and every Schreier
    generator that fails to sift is adjoined to the next level.

    The build and the sift work on image tuples: each level keeps the
    inverse of every transversal value, built in the same breadth-first
    pass (u_q = u_p s gives u_q^-1 = s^-1 u_p^-1), so a sift step and a
    Schreier generator u_p s u_q^-1 are one tuple each.  While the chain is
    built, each level remembers the Schreier generators already known to lie
    in the deeper chain's group (they sifted to the identity, or their
    residue was adjoined) and does not sift them again when it is rebuilt.
    That group only grows and a sift has no side effect, so such a sift
    could only give the identity: the same generators are adjoined in the
    same order, and the chain is the one the plain algorithm builds.
    """

    def __init__(self, degree: int, generators):
        self.degree = degree
        self.levels: list[_Level] = []
        self._identity = _identity_images(degree)
        build: list[tuple[list, set]] = []
        for g in generators:
            if not g.is_identity():
                self._add_generator(0, g, build)

    @property
    def base(self):
        return [lvl.point for lvl in self.levels]

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(
                f"element degree {p.degree} vs group degree {self.degree}")
        return self._sift_from(0, p.images) == self._identity

    def _add_generator(self, i: int, g: Permutation, build: list):
        """Adjoin g (not the identity) to level i and complete the chain
        from level i down.  While the chain is built, build[i] holds level
        i's generators as (images, inverse images) and the Schreier tuples
        of level i already known to lie in the group of level i + 1."""
        if i == len(self.levels):
            self.levels.append(_Level(min(g.moved_points()), self.degree))
            build.append(([], set()))
        lvl = self.levels[i]
        lvl.gens.append(g)
        gens, seen = build[i]
        gens.append((g.images, g.inverse().images))
        # deterministic breadth-first orbit of the base point
        identity = self._identity
        images = {lvl.point: identity}
        inverses = {lvl.point: identity}
        queue = deque([lvl.point])
        while queue:
            p = queue.popleft()
            u, u_inv = images[p], inverses[p]
            for s, s_inv in gens:
                q = s[p]
                if q not in images:
                    images[q] = tuple(map(s.__getitem__, u))
                    inverses[q] = tuple(map(u_inv.__getitem__, s_inv))
                    queue.append(q)
        lvl.transversal = {q: Permutation._trusted(u)
                           for q, u in images.items()}
        lvl.inverses = inverses
        # every Schreier generator lies in the stabilizer; those that do not
        # sift through the deeper chain become generators one level down
        for p in sorted(images):
            u = images[p]
            for s, _ in gens:
                schreier = tuple(map(inverses[s[p]].__getitem__,
                                     map(s.__getitem__, u)))
                if schreier == identity or schreier in seen:
                    continue
                residue = self._sift_from(i + 1, schreier)
                if residue != identity:
                    self._add_generator(i + 1, Permutation._trusted(residue),
                                        build)
                seen.add(schreier)

    def _sift_from(self, start: int, p: tuple[int, ...]) -> tuple[int, ...]:
        """The residue of the image tuple p sifted from level start down."""
        for lvl in self.levels[start:]:
            x = p[lvl.point]
            if x == lvl.point:
                continue
            u_inv = lvl.inverses.get(x)
            if u_inv is None:
                return p
            p = tuple(map(u_inv.__getitem__, p))
        return p

    def iter_elements(self):
        """Yield all elements (unsorted, but in a deterministic order)."""

        def rec(i):
            if i == len(self.levels):
                yield Permutation.identity(self.degree)
                return
            lvl = self.levels[i]
            cosets = [lvl.transversal[p] for p in sorted(lvl.transversal)]
            for h in rec(i + 1):
                for u in cosets:
                    yield h * u

        return rec(0)


class PermutationGroup:
    """A finite permutation group given by generators.

    Values are immutable once constructed; the stabilizer chain, the element
    list and the per-group memo are transparent caches (results are
    identical with or without them), so instances are safe to share across
    threads: two threads that fill the same entry store equal values.

    ``memo(key, compute)`` is the cache for queries that depend on the group
    alone: ``indexed`` (shared by the lattice, the hom search and the
    regular wreath), the conjugation columns, ``solvable_radical``,
    ``derived_series``, ``is_solvable``, ``class_representatives`` and
    ``exponent``, a source's Cayley walk, its ``all_homomorphisms`` lists
    (``"homs"``, one per codomain object), a codomain's element orders, its
    verbal subgroups (``"q_verbal"``, by descriptor and budgets) and, for
    the group generating a ``var:`` variety, the membership screen
    (``"screen_families"``).  Each checks its budgets before the lookup, so
    a tighter budget still raises after an earlier looser call, as
    ``elements`` does.

    Memo keys: cayley_walk class_representatives conj derived_series
    element_orders exponent homs indexed is_solvable members q_verbal
    screen_families solvable_radical

    A group made by ``subgroup()`` keeps its root ambient in ``_ambient``.
    Exactly while that root is listed (``root._elements is not None``),
    ``order``, ``contains`` and ``elements`` read the ``"members"`` memo
    entry: the positions of the group's elements in the root's list, at
    most |root| of them, or None (decided once) when a generator lies
    outside the root and the chain answers.  ``subgroup_at`` fills the
    entry from positions its caller already walked.  Any other listed group
    answers ``contains`` from its own index.

    A listed group keeps a conjugation column ``conj(g)`` per g, built on
    first use: ``conj(g)[x]`` is the position of ``elements[x] ** g``.
    ``conjugacy_classes`` takes orbits of positions under G's own columns,
    and ``is_normalized_by`` (behind ``is_normal``) reads the root's
    columns when the group has members in a listed root that contains
    the conjugating elements.
    """

    def __init__(self, degree: int, generators, name: str | None = None):
        gens = []
        seen = set()
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} != group degree {degree}")
            if g.images in seen:
                continue
            seen.add(g.images)
            gens.append(g)
        if not any(not g.is_identity() for g in gens):
            gens = [Permutation.identity(degree)]
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self.name = name
        self._chain: StabilizerChain | None = None
        self._elements: tuple[Permutation, ...] | None = None
        self._order: int | None = None
        self._memo: dict = {}
        self._ambient: PermutationGroup | None = None

    # -- queries: member positions in a listed root, else the chain ----------

    def _members(self) -> frozenset[int] | None:
        """Positions of the elements in the listed root ambient, or None
        when the chain answers."""
        root = self._ambient
        if root is None or root._elements is None:
            return None

        def compute():
            _, index, col = root._indexed()
            positions = [index.get(g.images) for g in self.generators]
            if None in positions:
                return None
            return frozenset(walk({0}, [0], [col(j) for j in positions if j]))

        return self.memo("members", compute)

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        if self._order is None:
            members = self._members()
            self._order = (self.chain().order() if members is None
                           else len(members))
        return self._order

    def contains(self, p: Permutation) -> bool:
        members = self._members()
        if members is None and self._elements is None:
            return self.chain().contains(p)
        if p.degree != self.degree:
            raise DegreeMismatch(
                f"element degree {p.degree} vs group degree {self.degree}")
        if members is None:
            return p.images in self._indexed()[1]
        return self._ambient._indexed()[1].get(p.images) in members

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def __len__(self) -> int:
        return self.order()

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a
                   for i, a in enumerate(gens) for b in gens[i + 1:])

    def elements(self, max_enumerate: int = 100_000):
        """All elements in canonical (image tuple) order; budgeted per call."""
        check_budget("max_enumerate", max_enumerate, self.order())
        if self._elements is None:
            members = self._members()
            if members is None:
                self._elements = tuple(sorted(self.chain().iter_elements()))
            else:
                listed = self._ambient._elements
                self._elements = tuple(listed[i] for i in sorted(members))
        return self._elements

    def indexed(self, max_enumerate: int = 100_000):
        """(elements, index, col) on the canonical list, memoised: index maps
        image tuples to positions, col(j)[x] is the position of elements[x] *
        elements[j] and is built on first use."""
        self.elements(max_enumerate)
        return self._indexed()

    def _indexed(self):
        """indexed() of a group already listed, with no budget check."""
        elements = self._elements

        def compute():
            index = {g.images: i for i, g in enumerate(elements)}
            columns: dict[int, list[int]] = {}

            def col(j: int) -> list[int]:
                if j not in columns:
                    e = elements[j].images
                    columns[j] = [index[tuple(map(e.__getitem__, x.images))]
                                  for x in elements]
                return columns[j]
            return elements, index, col

        return self.memo("indexed", compute)

    def conj(self, g: Permutation) -> list[int]:
        """conj(g)[x] is the position of elements[x] ** g, for g in this
        listed group; one column per g, built on first use."""
        columns = self.memo("conj", dict)
        if g.images not in columns:
            elements, index, _ = self._indexed()
            h, h_inv = g.images, g.inverse().images
            # (p ** g)[y] = g(p(g^-1(y)))
            columns[g.images] = [
                index[tuple(map(h.__getitem__,
                                map(e.images.__getitem__, h_inv)))]
                for e in elements]
        return columns[g.images]

    def is_normalized_by(self, gens) -> bool:
        """Whether conjugation by each of gens maps this group into itself.

        Reads the root's conjugation columns when this group has members
        in a listed root that contains gens, else tests n ** g directly.
        """
        members = self._members()
        if members is not None:
            root = self._ambient
            _, index, _ = root._indexed()
            if all(g.images in index for g in gens):
                positions = [index[n.images] for n in self.generators]
                return all(c[x] in members
                           for c in map(root.conj, gens) for x in positions)
        return all(self.contains(n ** g)
                   for g in gens for n in self.generators)

    def memo(self, key, compute):
        """The cached value for key, computed by compute() on a miss."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def subgroup(self, generators, name: str | None = None) -> PermutationGroup:
        """The group the generators generate, of the same degree, with this
        group's root ambient as its own; callers keep containment."""
        H = PermutationGroup(self.degree, generators, name=name)
        H._ambient = self if self._ambient is None else self._ambient
        return H

    def subgroup_at(self, generators, positions: frozenset[int]
                    ) -> PermutationGroup:
        """subgroup(generators), whose elements the caller knows to sit at
        positions of this listed group's elements.  A root stores them as
        the member set, so the subgroup's order, contains and elements do
        no walk; under another root they are not the root's positions and
        the subgroup walks its own on first use."""
        H = self.subgroup(generators)
        if self._ambient is None:
            H.memo("members", lambda: positions)
        return H

    def is_subgroup_of(self, other: PermutationGroup) -> bool:
        if self.degree != other.degree:
            return False
        return all(other.contains(g) for g in self.generators)

    def same_group_as(self, other: PermutationGroup) -> bool:
        """Equality as subgroups of Sym(degree): same degree, same elements."""
        return (self.degree == other.degree
                and self.order() == other.order()
                and self.is_subgroup_of(other))

    def random_element(self, rng) -> Permutation:
        """Uniform random element via the chain transversals."""
        g = Permutation.identity(self.degree)
        for lvl in self.chain().levels:
            points = sorted(lvl.transversal)
            g = g * lvl.transversal[rng.choice(points)]
        return g

    def __repr__(self) -> str:
        label = self.name or f"degree {self.degree}"
        return (f"<PermutationGroup {label}, "
                f"{len(self.generators)} generators>")


def walk(seen: set, stack: list, cols) -> set:
    """seen plus every position reached from stack along the columns."""
    seen.update(stack)
    while stack:
        x = stack.pop()
        for c in cols:
            if c[x] not in seen:
                seen.add(c[x])
                stack.append(c[x])
    return seen


def walk_capped(seen: set, stack: list, cols, cap: int) -> set:
    """walk(), stopped as soon as seen holds more than cap positions; it
    then returns what it has seen.  A function of its own, so that the
    other walks do not pay for the check."""
    seen.update(stack)
    while stack and len(seen) <= cap:
        x = stack.pop()
        for c in cols:
            if c[x] not in seen:
                seen.add(c[x])
                stack.append(c[x])
    return seen


# -- named constructors ------------------------------------------------------


def trivial_group(degree: int = 1) -> PermutationGroup:
    return PermutationGroup(degree, [Permutation.identity(degree)],
                            name=f"V{degree}" if degree > 1 else "1")


def cyclic_group(n: int) -> PermutationGroup:
    if n < 1:
        raise GroupError("cyclic_group needs n >= 1")
    if n == 1:
        return trivial_group(1)
    rot = Permutation.from_cycles(n, [list(range(n))])
    return PermutationGroup(n, [rot], name=f"C{n}")


def symmetric_group(n: int) -> PermutationGroup:
    if n < 1:
        raise GroupError("symmetric_group needs n >= 1")
    if n == 1:
        return trivial_group(1)
    gens = [Permutation.from_cycles(n, [list(range(n))])]
    if n >= 2:
        gens.append(Permutation.from_cycles(n, [[0, 1]]))
    return PermutationGroup(n, gens, name=f"S{n}")


def alternating_group(n: int) -> PermutationGroup:
    if n < 1:
        raise GroupError("alternating_group needs n >= 1")
    if n <= 2:
        return trivial_group(max(n, 1))
    gens = [Permutation.from_cycles(n, [[0, 1, 2]])]
    if n > 3:
        if n % 2:
            gens.append(Permutation.from_cycles(n, [list(range(n))]))
        else:
            gens.append(Permutation.from_cycles(n, [list(range(1, n))]))
    return PermutationGroup(n, gens, name=f"A{n}")


def dihedral_group(n: int) -> PermutationGroup:
    """Dihedral group of order 2n.  D1 = C2; D2 is realized on 4 points."""
    if n < 1:
        raise GroupError("dihedral_group needs n >= 1")
    if n == 1:
        return PermutationGroup(2, [Permutation.from_cycles(2, [[0, 1]])],
                                name="D1")
    if n == 2:
        return PermutationGroup(
            4,
            [Permutation.from_cycles(4, [[0, 1]]),
             Permutation.from_cycles(4, [[2, 3]])],
            name="D2")
    rot = Permutation.from_cycles(n, [list(range(n))])
    refl = Permutation(tuple((n - i) % n for i in range(n)))
    return PermutationGroup(n, [rot, refl], name=f"D{n}")


_NAME_RE = re.compile(r"^([ACDSV])(\d+)$")


def named_group(name: str) -> PermutationGroup:
    """Cn / Sn / An / Dn constructors; Vn is the trivial group on n points."""
    match = _NAME_RE.match(name.strip())
    if not match:
        raise ParseError(f"unknown group name {name!r}")
    kind, n = match.group(1), int(match.group(2))
    if kind == "C":
        return cyclic_group(n)
    if kind == "S":
        return symmetric_group(n)
    if kind == "A":
        return alternating_group(n)
    if kind == "D":
        return dihedral_group(n)
    return trivial_group(max(n, 1))


def pad_permutation(p: Permutation, degree: int, offset: int = 0) -> Permutation:
    """Embed p into a larger point set, acting on [offset, offset+p.degree)."""
    if offset + p.degree > degree:
        raise DegreeMismatch("padded permutation does not fit")
    images = list(range(degree))
    for i, j in enumerate(p.images):
        images[offset + i] = offset + j
    return Permutation(tuple(images))


def all_tuples(elements, arity: int, max_tuples: int):
    """Deterministic tuple stream with an explicit budget."""
    check_budget("max_tuples", max_tuples, len(elements) ** arity)
    return itertools.product(elements, repeat=arity)
