"""Group homomorphisms between permutation groups.

Each source group G keeps one breadth-first walk of its Cayley graph in
``G.memo``: the edges (x, k, y) with y = x * generators[k], as positions
in G's canonical element list (``G.indexed()``).  A factorization table
lists the image of each position.  By von Dyck's theorem the generator
images define a homomorphism exactly when every edge gives table[x] *
image(k) == table[y], so no presentation of the source is ever needed.

G also keeps ``all_homomorphisms`` in ``G.memo("homs")``, one list per
codomain object; the budgets are checked before the lookup.
"""

from __future__ import annotations

from .config import DEFAULT_BUDGETS, Budgets
from .errors import DegreeMismatch, GroupError, check_budget
from .perm import Permutation, PermutationGroup


def _cayley_walk(G: PermutationGroup, budgets: Budgets):
    """G's indexed elements and index, and its Cayley BFS walk's edges.

    The walk starts at the identity, position 0; each edge (x, k, y) has
    elements[y] = elements[x] * generators[k].  max_enumerate is checked
    on every call.
    """
    check_budget("max_enumerate", budgets.max_enumerate, G.order())

    def compute():
        elements, index, col = G.indexed(budgets.max_enumerate)
        cols = [col(index[g.images]) for g in G.generators]
        queue, seen, edges = [0], {0}, []
        for x in queue:  # queue grows as the walk runs
            for k, c in enumerate(cols):
                y = c[x]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
                edges.append((x, k, y))
        return elements, index, edges

    return G.memo("cayley_walk", compute)


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
        self._table: list[Permutation] | None = None
        if check:
            self._factorization_table(budgets)

    def is_well_defined(self, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
        """Whether the images lie in the target and define a homomorphism,
        by the edge check."""
        return self._defect(budgets) is None

    def _defect(self, budgets: Budgets) -> str | None:
        """Why the images define no homomorphism into the target, or None.

        A walk that passes leaves the factorization table in place; a table
        already in place (an enumerated hom's) is not checked again.
        """
        elements, _, edges = _cayley_walk(self.source, budgets)
        if self._table is None:
            images = self.generator_images
            if not all(self.target.contains(img) for img in images):
                return "generator images must lie in the target"
            table: list = [None] * len(elements)
            table[0] = self.target.identity()
            for x, k, y in edges:
                fy = table[x] * images[k]
                if table[y] is None:
                    table[y] = fy
                elif table[y] != fy:
                    return ("generator images do not define a homomorphism "
                            "(Cayley-graph edge check failed)")
            self._table = table
        return None

    def _factorization_table(self, budgets: Budgets = DEFAULT_BUDGETS):
        """The source walk and the table indexed by its positions."""
        defect = self._defect(budgets)
        if defect is not None:
            raise GroupError(defect)
        return _cayley_walk(self.source, budgets), self._table

    def apply(self, p: Permutation,
              budgets: Budgets = DEFAULT_BUDGETS) -> Permutation:
        (_, index, _), table = self._factorization_table(budgets)
        i = index.get(p.images)
        if i is None:
            raise GroupError("element is not in the source group")
        return table[i]

    def image(self) -> PermutationGroup:
        return self.target.subgroup(self.generator_images)

    def is_injective(self) -> bool:
        return self.image().order() == self.source.order()

    def kernel(self, budgets: Budgets = DEFAULT_BUDGETS) -> PermutationGroup:
        """ker f on the members that enlarge it, in canonical order: each
        at least doubles the order, so at most log2 |ker f| generators."""
        (elements, _, _), table = self._factorization_table(budgets)
        gens: list[Permutation] = []
        kernel = self.source.subgroup([self.source.identity()])
        for x, img in zip(elements, table):
            if img.is_identity() and not kernel.contains(x):
                gens.append(x)
                kernel = self.source.subgroup(gens)
        return kernel

    def table_at(self, positions,
                 budgets: Budgets = DEFAULT_BUDGETS) -> tuple:
        """The images of the source elements at these positions of
        ``source.indexed()``, in the order given."""
        _, table = self._factorization_table(budgets)
        return tuple(table[i] for i in positions)

    def agrees_on(self, other: GroupHomomorphism, subgroup: PermutationGroup,
                  budgets: Budgets = DEFAULT_BUDGETS) -> bool:
        return all(self.apply(h, budgets) == other.apply(h, budgets)
                   for h in subgroup.generators)

    def first_difference(self, other: GroupHomomorphism,
                         budgets: Budgets = DEFAULT_BUDGETS):
        """Least element of the shared source where the maps differ, or None
        if they agree."""
        (elements, _, _), mine = self._factorization_table(budgets)
        _, theirs = other._factorization_table(budgets)
        return next((x for x, a, b in zip(elements, mine, theirs) if a != b),
                    None)

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

    Images are indices c into C's canonical element list, pruned by order
    divisibility (the image order must divide the generator order, and
    likewise for pairwise products), then validated by the edge check along
    G's Cayley walk with int lookups only, over the columns of C.indexed()
    (C.memo also keeps the element orders).  An accepted hom keeps its
    factorization table.  Enumeration order is the canonical element
    order, except that when C contains G the inclusion map is listed
    first: it is the natural reference morphism for certificates.

    The homs are memoised in ``G.memo("homs")``, keyed by the codomain
    object, after max_hom_product and max_enumerate (on |C| and |G|) are
    checked; each call returns a new list of the same hom objects.
    """
    check_budget("max_hom_product", budgets.max_hom_product,
                 G.order() * C.order())
    check_budget("max_enumerate", budgets.max_enumerate, C.order())
    check_budget("max_enumerate", budgets.max_enumerate, G.order())
    memo = G.memo("homs", dict)
    if C not in memo:
        memo[C] = _enumerate_homs(G, C, budgets)
    return list(memo[C])


def _enumerate_homs(G: PermutationGroup, C: PermutationGroup,
                    budgets: Budgets) -> list[GroupHomomorphism]:
    """all_homomorphisms(G, C), computed."""
    gens = G.generators
    targets, _, col = C.indexed(budgets.max_enumerate)
    orders = C.memo("element_orders", lambda: [t.order() for t in targets])
    elements, _, edges = _cayley_walk(G, budgets)

    candidates = [[c for c, m in enumerate(orders) if n % m == 0]
                  for n in (g.order() for g in gens)]
    pair_orders = [[(gens[j] * g).order() for j in range(i)]
                   for i, g in enumerate(gens)]

    def edge_table(chosen: list[int]):
        """The table as indices into targets, or None if an edge fails."""
        cols = [col(c) for c in chosen]
        table = [-1] * len(elements)
        table[0] = 0  # the identity comes first in both lists
        for x, k, y in edges:
            fy = cols[k][table[x]]
            if table[y] < 0:
                table[y] = fy
            elif table[y] != fy:
                return None
        return table

    found: list[GroupHomomorphism] = []

    def backtrack(i: int, chosen: list[int]):
        if i == len(gens):
            table = edge_table(chosen)
            if table is not None:
                hom = GroupHomomorphism(G, C, [targets[c] for c in chosen],
                                        check=False)
                hom._table = [targets[t] for t in table]
                found.append(hom)
            return
        for c in candidates[i]:
            # image order of a product must divide the preimage order
            column = col(c)
            if all(pair_orders[i][j] % orders[column[chosen[j]]] == 0
                   for j in range(i)):
                chosen.append(c)
                backtrack(i + 1, chosen)
                chosen.pop()

    backtrack(0, [])

    if G.degree == C.degree and all(C.contains(g) for g in gens):
        found.sort(key=lambda h: h.generator_images != gens)  # stable
    return found
