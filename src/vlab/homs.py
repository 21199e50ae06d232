"""Group homomorphisms between permutation groups.

Arbitrary elements are mapped through a factorization table, built by a
breadth-first walk of the source's Cayley graph.  The same walk checks
well-definedness by a relator (edge) check along the Cayley BFS tree: by von
Dyck's theorem the images define a homomorphism exactly when every edge
x -> x*g gives table[x] * image(g) == table[x*g].  So no presentation of the
source is ever needed.
"""

from __future__ import annotations

from .config import DEFAULT_BUDGETS, Budgets
from .errors import DegreeMismatch, GroupError, check_budget
from .perm import Permutation, PermutationGroup


class GroupHomomorphism:
    """A map source -> target determined by images of the source generators."""

    def __init__(self, source: PermutationGroup, target: PermutationGroup,
                 generator_images, check: bool = True,
                 budgets: Budgets = DEFAULT_BUDGETS):
        """check=True builds the factorization table now, under budgets."""
        generator_images = tuple(generator_images)
        if len(generator_images) != len(source.generators):
            raise GroupError("need one image per source generator")
        for img in generator_images:
            if img.degree != target.degree:
                raise DegreeMismatch("image degree differs from target degree")
        self.source = source
        self.target = target
        self.generator_images = generator_images
        self._table: dict[tuple[int, ...], Permutation] | None = None
        if check:
            self._factorization_table(budgets)

    def is_well_defined(self, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
        """Whether the images define a homomorphism, by the edge check.

        A walk that passes leaves the factorization table in place.
        """
        check_budget("max_enumerate", budgets.max_enumerate,
                     self.source.order())
        if self._table is None:
            identity = self.source.identity()
            table = {identity.images: self.target.identity()}
            frontier = [identity]
            while frontier:
                new = []
                for x in frontier:
                    fx = table[x.images]
                    for g, img in zip(self.source.generators,
                                      self.generator_images):
                        y = x * g
                        fy = fx * img
                        known = table.get(y.images)
                        if known is None:
                            table[y.images] = fy
                            new.append(y)
                        elif known != fy:
                            return False
                frontier = new
            self._table = table
        return True

    def _factorization_table(self, budgets: Budgets = DEFAULT_BUDGETS):
        if not self.is_well_defined(budgets):
            raise GroupError("generator images do not define a homomorphism "
                             "(Cayley-graph edge check failed)")
        return self._table

    def apply(self, p: Permutation,
              budgets: Budgets = DEFAULT_BUDGETS) -> Permutation:
        table = self._factorization_table(budgets)
        try:
            return table[p.images]
        except KeyError:
            raise GroupError("element is not in the source group") from None

    def image(self) -> PermutationGroup:
        return self.target.subgroup(self.generator_images)

    def is_injective(self) -> bool:
        return self.image().order() == self.source.order()

    def kernel(self, budgets: Budgets = DEFAULT_BUDGETS) -> PermutationGroup:
        table = self._factorization_table(budgets)
        members = [Permutation(images) for images, img in table.items()
                   if img.is_identity()]
        return self.source.subgroup(members)

    def agrees_on(self, other: GroupHomomorphism, subgroup: PermutationGroup,
                  budgets: Budgets = DEFAULT_BUDGETS) -> bool:
        return all(self.apply(h, budgets) == other.apply(h, budgets)
                   for h in subgroup.generators)

    def first_difference(self, other: GroupHomomorphism,
                         budgets: Budgets = DEFAULT_BUDGETS):
        """Least element where the maps differ, or None if they agree."""
        for x in self.source.elements(budgets.max_enumerate):
            if self.apply(x, budgets) != other.apply(x, budgets):
                return x
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupHomomorphism):
            return NotImplemented
        return (self.source is other.source
                and self.target is other.target
                and self.generator_images == other.generator_images)

    def __hash__(self):
        return hash(self.generator_images)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{g} -> {img}"
                          for g, img in zip(self.source.generators,
                                            self.generator_images))
        return f"<GroupHomomorphism {pairs}>"


def identity_endomorphism(G: PermutationGroup) -> GroupHomomorphism:
    return GroupHomomorphism(G, G, G.generators, check=False)


def inclusion_hom(H: PermutationGroup,
                  G: PermutationGroup) -> GroupHomomorphism:
    if not H.is_subgroup_of(G):
        raise GroupError("inclusion needs H <= G")
    return GroupHomomorphism(H, G, H.generators, check=False)


def all_homomorphisms(G: PermutationGroup, C: PermutationGroup,
                      budgets: Budgets = DEFAULT_BUDGETS):
    """Every homomorphism G -> C, by backtracking over generator images.

    Candidate images are pruned by order divisibility (the image order must
    divide the generator order, and likewise for pairwise products), then
    validated by the relator (edge) check along the Cayley BFS tree, which
    leaves each accepted hom with its factorization table.  Enumeration order
    is the canonical element order, except that when C contains G the
    inclusion map is listed first: it is the natural reference morphism for
    certificates.
    """
    check_budget("max_hom_product", budgets.max_hom_product,
                 G.order() * C.order())
    gens = G.generators
    gen_orders = [g.order() for g in gens]
    targets = C.elements(budgets.max_enumerate)
    candidates = [[c for c in targets if gen_orders[i] % c.order() == 0]
                  for i in range(len(gens))]

    found: list[GroupHomomorphism] = []

    def backtrack(i: int, chosen: list[Permutation]):
        if i == len(gens):
            hom = GroupHomomorphism(G, C, tuple(chosen), check=False)
            if hom.is_well_defined(budgets):
                found.append(hom)
            return
        for c in candidates[i]:
            ok = True
            for j in range(i):
                # image order of a product must divide the preimage order
                if (gens[j] * gens[i]).order() % (chosen[j] * c).order() != 0:
                    ok = False
                    break
            if ok:
                chosen.append(c)
                backtrack(i + 1, chosen)
                chosen.pop()

    backtrack(0, [])

    inclusion_images = None
    if G.degree == C.degree and all(C.contains(g) for g in gens):
        inclusion_images = gens
    if inclusion_images is not None:
        front = [h for h in found if h.generator_images == inclusion_images]
        rest = [h for h in found if h.generator_images != inclusion_images]
        found = front + rest
    return found
