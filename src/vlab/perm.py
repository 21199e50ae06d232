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
what makes certificates reproducible.  The chain holds image tuples only,
and its rebuilds skip only what cannot change a sift (see
``StabilizerChain``); the elements and random draws are composed as tuples
and wrapped once.

A subgroup made by ``G.subgroup(gens)`` remembers its root ambient (G's own
root, or G).  Once the root has listed its elements, the subgroup answers
``order``, ``contains`` and ``elements`` from the set of its members'
positions in the root's ``indexed()`` list, the closure of the identity
along the root's multiplication columns of its generators; position order
is canonical order, so no chain and no sort is needed.  The path lists
nothing that was not listed already, and its closure is bounded by the
root's order, which passed the root's ``max_enumerate`` check when it was
listed.  A normal closure under a listed root is one such walk, extended
as each generator is accepted.  A group with no member set (a query made
before the root is listed, a subgroup with a generator outside its root, a
group not made by ``subgroup()``) answers ``contains`` from its own index
once it is listed itself, and from its stabilizer chain before;
``random_element`` and ``chain()`` always use the chain.

A listed group's multiplication columns are made along a breadth-first
tree of its generators from the identity: only the generators' columns
are built from image tuples, and every other column is composed from the
nearest built column above it in the tree, one pass over a list of ints
per tree edge, unless that path is longer than the degree (see
``_Columns``).

Validation happens only at the boundaries: ``Permutation(...)``,
``from_cycles``, ``parse_permutation`` and everything built on them (the
catalog, certificate JSON) check that the images form a permutation.
Products, inverses and identities are permutations by construction, so
they go through the unchecked ``Permutation._trusted``, which no other
module may call.  A permutation computes its cycle string on the first
``str()`` and keeps it; equality, hash and order read only ``images``.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd

from .config import DEFAULT_BUDGETS, MAX_CHAIN_WORK, MAX_DEGREE
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
        return Permutation._trusted(_inverse_images(self.images))

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
        if g < 0:
            return self.inverse() ** (-g)
        return power(self, g, Permutation.identity(len(self.images)))

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
        return self._cycle_string

    @cached_property
    def _cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation.parse({str(self)!r}, degree={self.degree})"

    @staticmethod
    def parse(text: str, degree: int) -> Permutation:
        return parse_permutation(text, degree)


@cache
def _identity_images(degree: int) -> tuple[int, ...]:
    """The identity's image tuple, one shared tuple per degree."""
    return tuple(range(degree))


def _inverse_images(images: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of the inverse permutation."""
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return tuple(inv)


def power(x, n: int, one):
    """x ** n for n >= 0 by repeated squaring, with one as x ** 0: about
    2 log2(n) products, and no squaring after the last bit."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse cycle notation like ``(0 1 2 3 4)(5 6)`` on degree points;
    ``()`` is the identity.

    Points are 0-based and separated by whitespace (commas tolerated).
    """
    stripped = text.strip()
    if stripped in ("", "()"):
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
    if needed > degree:
        raise ParseError(f"cycle uses point {needed - 1} >= degree {degree}")
    return Permutation.from_cycles(degree, cycles)


class _Level:
    __slots__ = ("point", "gens", "transversal", "inverses")

    def __init__(self, point: int):
        self.point = point
        # (images, inverse images) of the generators of this level's full
        # stabilizer group (not a partition: every element of the deeper
        # group that surfaces here is appended)
        self.gens: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        # image tuple of the transversal value at each orbit point, and of
        # its inverse
        self.transversal: dict[int, tuple[int, ...]] = {}
        self.inverses: dict[int, tuple[int, ...]] = {}


class StabilizerChain:
    """Base and strong generating set for a finite permutation group.

    Textbook deterministic Schreier-Sims: level i holds a generating set of
    the pointwise stabilizer of the first i base points, its orbit is
    explored breadth-first with generators in list order, and every Schreier
    generator that fails to sift is adjoined to the next level.

    The chain holds image tuples only: each level keeps its generators
    with their inverses, and the transversal with the inverse of every
    value, built in the same breadth-first pass (u_q = u_p s gives
    u_q^-1 = s^-1 u_p^-1), so a sift step and a Schreier generator
    u_p s u_q^-1 are one tuple each.  While the chain is built, each level
    remembers the Schreier generators already known to lie in the deeper
    chain's group (they sifted to the identity, or their residue was
    adjoined) and does not sift them again when it is rebuilt.  That group
    only grows and a sift has no side effect, so such a sift could only
    give the identity: the same generators are adjoined in the same order,
    and the chain is the one the plain algorithm builds.

    A rebuild of a level (a generator was adjoined to it) redoes only what
    changed since the level's last rebuild.  Each rule is exact:

    (a) a point the breadth-first pass reaches from a kept parent by the
        same generator index as last time keeps its tuple and its inverse,
        as u_q = u_p s is then the same product; the base point is kept;
    (b) the Schreier tuple of (p, s) is skipped when s is older than this
        rebuild and u_p and u_s(p) are both kept: it is the tuple of the
        last rebuild, which was the identity or already known to lie in
        the deeper group (by induction, as every rebuild leaves every
        tuple of its orbit one or the other);
    (c) the Schreier tuple of a breadth-first tree edge is skipped: u_p s
        is u_s(p) by construction, so the tuple is the identity.

    None of them changes a sift or its order, so the same generators are
    adjoined in the same order and the same transversals are built.

    ``work`` sums orbit size x level generators x degree over the level
    rebuilds; past ``MAX_CHAIN_WORK`` the build raises BudgetExceeded.
    """

    def __init__(self, degree: int, generators):
        self.degree = degree
        self.levels: list[_Level] = []
        self.work = 0
        self._identity = _identity_images(degree)
        build: list[tuple[set, dict]] = []
        for g in generators:
            if not g.is_identity():
                self._add_generator(0, g.images, build)

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

    def _add_generator(self, i: int, g: tuple[int, ...], build: list):
        """Adjoin the image tuple g (not the identity) to level i and
        complete the chain from level i down.  While the chain is built,
        build[i] holds the Schreier tuples of level i already known to lie
        in the group of level i + 1 and the last rebuild's generator index
        into each orbit point (-1 at the base point)."""
        if i == len(self.levels):
            self.levels.append(_Level(next(
                x for x, y in enumerate(g) if x != y)))
            build.append((set(), {}))
        lvl = self.levels[i]
        gens = lvl.gens
        gens.append((g, _inverse_images(g)))
        new = len(gens) - 1
        seen, last_via = build[i]
        last_images, last_inverses = lvl.transversal, lvl.inverses
        # deterministic breadth-first orbit of the base point
        identity = self._identity
        images = {lvl.point: identity}
        inverses = {lvl.point: identity}
        via = {lvl.point: -1}
        kept = {lvl.point}
        queue = deque([lvl.point])
        while queue:
            p = queue.popleft()
            u, u_inv = images[p], inverses[p]
            for k, (s, s_inv) in enumerate(gens):
                q = s[p]
                if q in images:
                    continue
                via[q] = k
                if p in kept and last_via.get(q) == k:  # rule (a)
                    kept.add(q)
                    images[q], inverses[q] = last_images[q], last_inverses[q]
                else:
                    images[q] = tuple(map(s.__getitem__, u))
                    inverses[q] = tuple(map(u_inv.__getitem__, s_inv))
                queue.append(q)
        lvl.transversal, lvl.inverses = images, inverses
        build[i] = (seen, via)
        self.work += len(images) * len(gens) * self.degree
        check_budget("max_chain_work", MAX_CHAIN_WORK, self.work)
        # every Schreier generator lies in the stabilizer; those that do not
        # sift through the deeper chain become generators one level down
        for p in sorted(images):
            u = images[p]
            for k, (s, _) in enumerate(gens):
                q = s[p]
                if via[q] == k or (k < new and p in kept and q in kept):
                    continue  # rules (c) and (b)
                schreier = tuple(map(inverses[q].__getitem__,
                                     map(s.__getitem__, u)))
                if schreier == identity or schreier in seen:
                    continue
                residue = self._sift_from(i + 1, schreier)
                if residue != identity:
                    self._add_generator(i + 1, residue, build)
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

    def iter_elements(self) -> list[tuple[int, ...]]:
        """The image tuples of all elements (unsorted, but in a
        deterministic order): each product h u, for h over the deeper
        levels' elements and u over this level's transversal in point
        order."""
        products = [self._identity]
        for lvl in reversed(self.levels):
            cosets = [lvl.transversal[p] for p in sorted(lvl.transversal)]
            products = [tuple(map(u.__getitem__, h))
                        for h in products for u in cosets]
        return products


class _Columns(dict):
    """The multiplication columns of a listed group by multiplier position,
    each built on its first lookup: ``indexed()``'s col is this dict's
    ``__getitem__``, and col(j)[x] is the position of elements[x] *
    elements[j].

    The first lookup builds the generators' columns from image tuples,
    and with them the breadth-first tree from the identity (queue order,
    generators in list order, first visit wins), so a tree edge x -k-> y
    has elements[y] = elements[x] * generators[k].  Every other column is
    composed down the tree from the nearest built column above it: z * e_y
    = (z * e_x) * g_k, so col(y) is gen_col[k] read at col(x), one pass
    over a list of ints per edge.  A path of more than ``degree`` steps
    would cost more passes than one build from image tuples (a
    degree-length tuple and a hash per entry), so that column is built
    from tuples instead.  Only the requested column is kept, not the
    path's, so one lookup adds at most one column.
    """

    __slots__ = ("elements", "index", "generators", "_tree")

    def __init__(self, elements, index, generators):
        super().__init__()
        self.elements, self.index, self.generators = elements, index, generators
        self._tree = None

    def __missing__(self, j: int) -> list[int]:
        column = self[j] = self._compose(j)
        return column

    def tree(self):
        """(queue, parent, via, gen_cols): the breadth-first queue from the
        identity, each position's tree parent and generator index (the
        identity is its own parent), and the generators' columns."""
        if self._tree is None:
            n = len(self.elements)
            positions = [self.index[g.images] for g in self.generators]
            gen_cols = [self._from_tuples(j) for j in positions]
            self.update(zip(positions, gen_cols))
            parent, via = [-1] * n, [0] * n
            parent[0] = 0
            queue = [0]
            for x in queue:  # queue grows as the walk runs
                for k, c in enumerate(gen_cols):
                    y = c[x]
                    if parent[y] < 0:
                        parent[y], via[y] = x, k
                        queue.append(y)
            self._tree = queue, parent, via, gen_cols
        return self._tree

    def _compose(self, j: int) -> list[int]:
        """Column j, composed down the tree or built from image tuples."""
        _, parent, via, gen_cols = self.tree()
        if j in self:  # a generator's, built with the tree
            return self[j]
        degree = len(self.elements[0].images)
        path, x = [], j
        while x not in self and x and len(path) <= degree:
            path.append(via[x])
            x = parent[x]
        if len(path) > degree:
            return self._from_tuples(j)
        column = self[x] if x in self else list(range(len(self.elements)))
        for k in reversed(path):
            column = list(map(gen_cols[k].__getitem__, column))
        return column

    def _from_tuples(self, j: int) -> list[int]:
        e, index = self.elements[j].images, self.index
        return [index[tuple(map(e.__getitem__, x.images))]
                for x in self.elements]


class PermutationGroup:
    """A finite permutation group given by generators.

    Values are immutable once constructed; the stabilizer chain, the element
    list and the per-group memo are transparent caches (results are
    identical with or without them), so instances are safe to share across
    threads: two threads that fill the same entry store equal values.

    ``memo(key, compute)`` is the cache for queries that depend on the group
    alone: ``indexed`` (shared by the lattice, the hom search and the
    regular wreath), the conjugation columns, ``solvable_radical``,
    ``derived_series`` (which ``is_solvable`` reads),
    ``class_representatives`` and ``exponent``, a source's Cayley walk,
    its generator and pair-product orders (``"generator_orders"``), its
    ``all_homomorphisms`` lists (``"homs"``, one per codomain object), a
    codomain's element orders and the elements the verifier read by their
    cycle strings (``"cycle_strings"``, at most one entry per element), a
    group's verbal subgroups (``"q_verbal"``, by descriptor and budgets)
    and, for the group generating a ``var:`` variety, the membership screen
    (``"screen_families"``).  Each checks its budgets before the lookup, so
    a tighter budget still raises after an earlier looser call, as
    ``elements`` does.

    Memo keys: cayley_walk class_representatives conj cycle_strings
    derived_series element_orders exponent generator_orders homs indexed
    members q_verbal screen_families solvable_radical

    A group made by ``subgroup()`` keeps its root ambient in ``_ambient``.
    Exactly while that root is listed (``root._elements is not None``),
    ``order``, ``contains`` and ``elements`` read the ``"members"`` memo
    entry: the positions of the group's elements in the root's list, at
    most |root| of them, or None (decided once) when a generator lies
    outside the root and the chain answers.  ``subgroup_at`` fills the
    entry from positions its caller already walked, and builds the group
    with ``_trusted``, which skips the constructor's degree check, dedupe
    and identity scan: its generators must already be distinct
    permutations of the group's degree, none the identity unless it is the
    only one.  Any other listed group answers ``contains`` from its own
    index.  ``listed_normal_closure`` walks a normal closure on the listed
    root's positions, member set and all, and makes its one group with
    ``subgroup_at``.

    A listed group's ``indexed()`` columns are built on first use: the
    generators' from image tuples, with the breadth-first tree from the
    identity that ``homs`` also reads as the Cayley walk, and every other
    column composed down that tree from the nearest built column (see
    ``_Columns``).

    A listed group keeps a conjugation column ``conj(g)`` per g, built on
    first use: ``conj(g)[x]`` is the position of ``elements[x] ** g``.
    ``conjugacy_classes`` takes orbits of positions under G's own columns,
    ``is_normalized_by`` (behind ``is_normal``) reads the root's columns
    when the group has members in a listed root that contains the
    conjugating elements, and ``listed_normal_closure`` reads the root's
    columns that are already built.
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
        self._init(degree, tuple(gens), name, None)

    def _init(self, degree, generators, name, ambient):
        self.degree = degree
        self.generators: tuple[Permutation, ...] = generators
        self.name = name
        self._chain: StabilizerChain | None = None
        self._elements: tuple[Permutation, ...] | None = None
        self._order: int | None = None
        self._memo: dict = {}
        self._ambient: PermutationGroup | None = ambient

    @staticmethod
    def _trusted(degree: int, generators, ambient: PermutationGroup | None
                 ) -> PermutationGroup:
        """The group on generators already known to be distinct
        permutations of this degree, none the identity unless it is the
        only one; unchecked, like ``Permutation._trusted``."""
        G = object.__new__(PermutationGroup)
        G._init(degree, tuple(generators), None, ambient)
        return G

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

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a
                   for i, a in enumerate(gens) for b in gens[i + 1:])

    def elements(self, max_enumerate: int = DEFAULT_BUDGETS.max_enumerate):
        """All elements in canonical (image tuple) order; budgeted per call."""
        check_budget("max_enumerate", max_enumerate, self.order())
        if self._elements is None:
            members = self._members()
            if members is None:
                self._elements = tuple(map(
                    Permutation._trusted, sorted(self.chain().iter_elements())))
            else:
                listed = self._ambient._elements
                self._elements = tuple(listed[i] for i in sorted(members))
        return self._elements

    def indexed(self, max_enumerate: int = DEFAULT_BUDGETS.max_enumerate):
        """(elements, index, col) on the canonical list, memoised: index maps
        image tuples to positions, col(j)[x] is the position of elements[x] *
        elements[j] and is built on first use (see ``_Columns``)."""
        self.elements(max_enumerate)
        return self._indexed()

    def _indexed(self):
        """indexed() of a group already listed, with no budget check."""
        elements = self._elements

        def compute():
            index = {g.images: i for i, g in enumerate(elements)}
            return elements, index, _Columns(
                elements, index, self.generators).__getitem__

        return self.memo("indexed", compute)

    def cayley_tree(self):
        """(queue, parent, via, gen_cols) of the breadth-first tree that this
        listed group's columns are composed along (see ``_Columns``)."""
        return self._indexed()[2].__self__.tree()

    def conj(self, g: Permutation) -> list[int]:
        """conj(g)[x] is the position of elements[x] ** g, for g in this
        listed group; one column per g, built on first use."""
        columns = self.memo("conj", dict)
        if g.images not in columns:
            elements, index, _ = self._indexed()
            h, h_inv = g.images, _inverse_images(g.images)
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

    def listed_normal_closure(self, seed) -> PermutationGroup | None:
        """``structure.normal_closure(self, seed)`` as one walk on the
        listed root's positions, accepting the chain loop's generators in
        its order; None when the root is not listed or this group has a
        generator outside it.  Accepting c walks on from the members along
        the accepted generators' columns, starting from the coset of the
        members times c, the only way out of a subgroup.  A conjugate is
        read from the root's ``conj`` column of the generator when that
        column is built, and is otherwise the element conjugated and
        looked up: a closure builds no column, which costs |root|
        conjugations."""
        root = self if self._ambient is None else self._ambient
        if root._elements is None or (root is not self
                                      and self._members() is None):
            return None
        elements, index, col = root._indexed()
        built = root.memo("conj", dict)

        def conjugates(x):
            return [c[x] if (c := built.get(g.images)) is not None
                    else index[(elements[x] ** g).images]
                    for g in self.generators]

        members, accepted, cols = {0}, [], []
        queue = deque(index[s.images] for s in seed)
        while queue:
            x = queue.popleft()
            if x in members:
                continue
            accepted.append(x)
            cols.append(c := col(x))
            walk(members, [c[m] for m in members], cols)
            queue.extend(conjugates(x))
        return root.subgroup_at([elements[x] for x in accepted or [0]],
                                frozenset(members))

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
        the subgroup walks its own on first use.  The generators must be
        distinct elements of this group, none the identity unless it is
        the only one: they go through ``_trusted`` unchecked."""
        root = self._ambient
        H = PermutationGroup._trusted(self.degree, generators,
                                      self if root is None else root)
        if root is None:
            H._memo["members"] = positions
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
        g = _identity_images(self.degree)
        for lvl in self.chain().levels:
            u = lvl.transversal[rng.choice(sorted(lvl.transversal))]
            g = tuple(map(u.__getitem__, g))
        return Permutation._trusted(g)

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
    gens = [Permutation.from_cycles(n, [list(range(n))]),
            Permutation.from_cycles(n, [[0, 1]])]
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
    kind, digits = match.groups()
    try:
        n = int(digits)
    except ValueError:  # past int()'s limit on decimal digits
        raise ParseError(f"group size too long in {name[:8]!r}...") from None
    check_budget("max_degree", MAX_DEGREE, n)
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
    """Deterministic tuple stream with an explicit budget.  A tuple longer
    than MAX_DEGREE stops before the count |elements| ** arity is formed."""
    check_budget("max_degree", MAX_DEGREE, arity)
    check_budget("max_tuples", max_tuples, len(elements) ** arity)
    return itertools.product(elements, repeat=arity)
