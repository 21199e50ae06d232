"""Direct powers, regular wreath products, and the Kaloujnine-Krasner embedding.

Wreath convention.  A wr B acts on degree(A) * |B| points arranged in blocks
indexed by the elements of B (sorted canonically, so the identity block is
block 0).  An element is a pair (b, f) with b in B and f: B -> A, and it sends
the point (c, i) to (c*b, i^{f(c)}).  Under left-to-right composition this
realizes the product rule

    (b1, f1) * (b2, f2) = (b1*b2, c |-> f1(c) * f2(c*b1)),

and conjugating a base function by the top element b replaces f by
c |-> f(c*b^-1), i.e. the top group shifts base coordinates by right
translation of the index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_BUDGETS, Budgets
from .errors import DegreeMismatch, GroupError, check_budget
from .perm import Permutation, PermutationGroup, pad_permutation
from .structure import is_normal, quotient
from .homs import GroupHomomorphism

# Fixed cap on the degree of a constructed power or wreath product.  It is
# not a Budgets field: reports echo every field, and this cap never varies.
MAX_DEGREE = 10_000


# -- direct products and powers -------------------------------------------------


@dataclass
class DirectPowerContext:
    base: PermutationGroup
    copies: int
    product: PermutationGroup

    def embed(self, index: int, p: Permutation) -> Permutation:
        """p acting on the index-th block of points, identity elsewhere."""
        if not 0 <= index < self.copies:
            raise GroupError(f"no component {index} in a {self.copies}-th power")
        return pad_permutation(p, self.product.degree,
                               offset=index * self.base.degree)

    def power_subgroup(self, H: PermutationGroup) -> PermutationGroup:
        """H^k inside the power (H must be a subgroup of the base)."""
        if H.degree != self.base.degree:
            raise DegreeMismatch("subgroup degree differs from base degree")
        gens = [self.embed(i, h)
                for i in range(self.copies) for h in H.generators]
        return self.product.subgroup(gens)

    def component(self, w: Permutation, index: int) -> Permutation:
        lo = index * self.base.degree
        images = tuple(w.images[lo + i] - lo for i in range(self.base.degree))
        return Permutation(images)


def direct_power(G: PermutationGroup, k: int) -> DirectPowerContext:
    """k disjoint copies of G acting on k * degree points."""
    if k < 1:
        raise GroupError("direct_power needs k >= 1")
    degree = G.degree * k
    check_budget("max_degree", MAX_DEGREE, degree)
    gens = []
    for i in range(k):
        for g in G.generators:
            gens.append(pad_permutation(g, degree, offset=i * G.degree))
    name = f"{G.name}^{k}" if G.name else None
    product = PermutationGroup(degree, gens, name=name)
    return DirectPowerContext(base=G, copies=k, product=product)


def direct_product(A: PermutationGroup, B: PermutationGroup,
                   name: str | None = None) -> PermutationGroup:
    degree = A.degree + B.degree
    gens = [pad_permutation(a, degree, 0) for a in A.generators]
    gens += [pad_permutation(b, degree, A.degree) for b in B.generators]
    if name is None and A.name and B.name:
        name = f"{A.name}x{B.name}"
    return PermutationGroup(degree, gens, name=name)


# -- regular wreath products ------------------------------------------------------


@dataclass
class WreathContext:
    """A wr B with its block data and the canonical embeddings."""

    bottom: PermutationGroup
    top_original: PermutationGroup   # B as given
    product: PermutationGroup
    top_elements: tuple[Permutation, ...]  # sorted elements of B
    regular_of: dict[tuple[int, ...], Permutation]  # element of B -> regular

    @property
    def block_count(self) -> int:
        return len(self.top_elements)

    def block_range(self, block: int):
        m = self.bottom.degree
        return range(block * m, (block + 1) * m)

    def element(self, b: Permutation, base_fn) -> Permutation:
        """The wreath element (b, f) for b in B; base_fn maps block index ->
        bottom element."""
        m = self.bottom.degree
        shift = self.regular_of.get(b.images)
        if shift is None:
            raise GroupError("top part is not an element of the top group")
        images = []
        for c in range(self.block_count):
            f_c = base_fn(c).images
            if len(f_c) != m:
                raise DegreeMismatch("base value degree differs from bottom")
            dest = shift.images[c] * m
            images += [dest + x for x in f_c]
        return Permutation(tuple(images))

    def base_element(self, block: int, a: Permutation) -> Permutation:
        identity = self.bottom.identity()
        return self.element(
            self.top_original.identity(),
            lambda c: a if c == block else identity)

    def top_element(self, b: Permutation) -> Permutation:
        identity = self.bottom.identity()
        return self.element(b, lambda c: identity)

    def base_subgroup(self) -> PermutationGroup:
        """The normal base A^B (one copy of A per block)."""
        return self.base_power_subgroup(self.bottom)

    def base_power_subgroup(self, H: PermutationGroup) -> PermutationGroup:
        """H^B inside the base, for H <= A."""
        if H.degree != self.bottom.degree:
            raise DegreeMismatch("H must act on the bottom group's points")
        gens = [self.base_element(c, h)
                for c in range(self.block_count)
                for h in H.generators]
        return self.product.subgroup(gens)

    def wreath_subgroup(self, H: PermutationGroup) -> PermutationGroup:
        """H wr B inside A wr B, for H <= A (base functions valued in H)."""
        gens = list(self.base_power_subgroup(H).generators)
        gens += [self.top_element(b) for b in self.top_original.generators]
        return self.product.subgroup(gens)

    def decompose(self, w: Permutation):
        """Split a wreath element into (regular top part, base values)."""
        m = self.bottom.degree
        shift_images = []
        base_values = []
        for c in range(self.block_count):
            dest, rem = divmod(w.images[c * m], m)
            shift_images.append(dest)
            values = tuple(w.images[c * m + i] - dest * m for i in range(m))
            if sorted(values) != list(range(m)):
                raise GroupError("element does not preserve the block system")
            base_values.append(Permutation(values))
        return Permutation(tuple(shift_images)), base_values


def regular_wreath(A: PermutationGroup, B: PermutationGroup,
                   budgets: Budgets = DEFAULT_BUDGETS) -> WreathContext:
    """The regular wreath product A wr B as an imprimitive permutation group."""
    order_b = B.order()
    check_budget("max_wreath_top", budgets.max_wreath_top, order_b)
    top_elements, _, col = B.indexed(budgets.max_enumerate)
    # right translation x |-> x*b on the sorted element list is b's column
    regular_of = {b.images: Permutation(tuple(col(j)))
                  for j, b in enumerate(top_elements)}
    degree = A.degree * order_b
    check_budget("max_degree", MAX_DEGREE, degree)
    # the embeddings read only the block data, so they build the generators
    ctx = WreathContext(bottom=A, top_original=B, product=None,
                        top_elements=top_elements, regular_of=regular_of)
    gens = [ctx.base_element(0, a) for a in A.generators]  # identity block
    gens += [ctx.top_element(b) for b in B.generators]
    name = f"{A.name}wr{B.name}" if A.name and B.name else None
    ctx.product = PermutationGroup(degree, gens, name=name)
    return ctx


# -- Kaloujnine-Krasner ------------------------------------------------------------


def kaloujnine_krasner(E: PermutationGroup, A: PermutationGroup,
                       budgets: Budgets = DEFAULT_BUDGETS):
    """Embed an extension E of A into A wr (E/A).

    With projection pi and the minimal-representative transversal t, the map
    sends e to the pair (pi(e), f_e) with f_e(b) = t(b) * e * t(b*pi(e))^-1,
    which lands in A and is a homomorphism for the wreath convention above.
    Returns (hom, wreath context, quotient result).
    """
    if not A.is_subgroup_of(E):
        raise GroupError("A must be a subgroup of E")
    if not is_normal(E, A):
        raise GroupError("Kaloujnine-Krasner needs A normal in E")
    q = quotient(E, A, budgets)
    ctx = regular_wreath(A, q.group, budgets)
    proj = q.projection
    reps = q.coset_reps
    # Q acts regularly on the cosets, so Q-element q corresponds to the coset
    # point q(0); blocks are indexed by sorted Q-elements, cosets by points.
    block_to_coset = [qelt.images[0] for qelt in ctx.top_elements]

    def embed(e: Permutation) -> Permutation:
        pe = proj.apply(e, budgets)

        def base_fn(block: int) -> Permutation:
            c = block_to_coset[block]
            return reps[c] * e * reps[pe.images[c]].inverse()

        return ctx.element(pe, base_fn)

    images = tuple(embed(g) for g in E.generators)
    # the embedding is a theorem: building its table now would only check it
    hom = GroupHomomorphism(E, ctx.product, images, check=False)
    return hom, ctx, q
