"""Group homomorphisms between permutation groups.

Each source group G keeps one breadth-first walk of its Cayley graph in
``G.memo``: the edges (x, k, y) with y = x * generators[k], as positions
in G's canonical element list (``G.indexed()``), in the queue order of
the tree that G's columns are composed along.  A hom's table lists
each image's position in the target's list.  By von Dyck's theorem the
images define a homomorphism exactly when every edge gives table[y] ==
col(image k)[table[x]] over the target's columns: ``_edge_table`` makes
that one check, with no product, for checked and enumerated homs alike.

G also keeps ``all_homomorphisms`` in ``G.memo("homs")``, one list per
codomain object; ``check_hom_budgets`` runs before the lookup.  The orders
of G's generators and of their pairwise products, which prune every
enumeration from G, are kept in ``G.memo("generator_orders")``.
"""

from __future__ import annotations

from .config import DEFAULT_BUDGETS, Budgets
from .errors import DegreeMismatch, GroupError, check_budget
from .perm import Permutation, PermutationGroup


def _cayley_walk(G: PermutationGroup, budgets: Budgets):
    """G's indexed elements and index, and its Cayley BFS walk's edges.

    The walk is the queue of the columns' breadth-first tree from the
    identity, position 0; each edge (x, k, y) has elements[y] =
    elements[x] * generators[k].  max_enumerate is checked on every call.
    """
    check_budget("max_enumerate", budgets.max_enumerate, G.order())

    def compute():
        elements, index, _ = G.indexed(budgets.max_enumerate)
        queue, _, _, cols = G.cayley_tree()
        return elements, index, [(x, k, c[x]) for x in queue
                                 for k, c in enumerate(cols)]

    return G.memo("cayley_walk", compute)


def _edge_table(G: PermutationGroup, C: PermutationGroup, chosen,
                budgets: Budgets) -> list[int] | None:
    """The table, as positions in ``C.indexed()``, of the map sending G's
    generator k to position chosen[k]; None if an edge fails."""
    elements, _, edges = _cayley_walk(G, budgets)
    _, _, col = C.indexed(budgets.max_enumerate)
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


class GroupHomomorphism:
    """A map source -> target determined by images of the source generators."""

    def __init__(self, source: PermutationGroup, target: PermutationGroup,
                 generator_images, check: bool = True,
                 budgets: Budgets = DEFAULT_BUDGETS):
        """check=True builds the table (listing the target) under budgets."""
        generator_images = tuple(generator_images)
        if len(generator_images) != len(source.generators):
            raise GroupError("need one image per source generator")
        for img in generator_images:
            if img.degree != target.degree:
                raise DegreeMismatch("image degree differs from target degree")
        self.source = source
        self.target = target
        self.generator_images = generator_images
        self._table: list[int] | None = None
        if check:
            self._factorization_table(budgets)

    def _factorization_table(self, budgets: Budgets = DEFAULT_BUDGETS):
        """The source walk and the table indexed by its positions; raises
        GroupError when the images define no homomorphism into the target.
        A table in place (an enumerated hom's) is not checked again."""
        cayley = _cayley_walk(self.source, budgets)  # checks |source| always
        if self._table is None:
            _, index, _ = self.target.indexed(budgets.max_enumerate)
            chosen = [index.get(img.images) for img in self.generator_images]
            if None in chosen:
                raise GroupError("generator images must lie in the target")
            table = _edge_table(self.source, self.target, chosen, budgets)
            if table is None:
                raise GroupError("generator images do not define a "
                                 "homomorphism (Cayley-graph edge check "
                                 "failed)")
            self._table = table
        return cayley, self._table

    def apply(self, p: Permutation,
              budgets: Budgets = DEFAULT_BUDGETS) -> Permutation:
        (_, index, _), table = self._factorization_table(budgets)
        i = index.get(p.images)
        if i is None:
            raise GroupError("element is not in the source group")
        return self.target.indexed(budgets.max_enumerate)[0][table[i]]

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
            if img == 0 and not kernel.contains(x):
                gens.append(x)
                kernel = self.source.subgroup(gens)
        return kernel

    def table_at(self, positions,
                 budgets: Budgets = DEFAULT_BUDGETS) -> tuple:
        """Target positions of the images of the elements at these
        positions of ``source.indexed()``, in the order given."""
        _, table = self._factorization_table(budgets)
        return tuple(table[i] for i in positions)

    def agrees_on(self, other: GroupHomomorphism, subgroup: PermutationGroup,
                  budgets: Budgets = DEFAULT_BUDGETS) -> bool:
        return all(self.apply(h, budgets) == other.apply(h, budgets)
                   for h in subgroup.generators)

    def first_difference(self, other: GroupHomomorphism,
                         budgets: Budgets = DEFAULT_BUDGETS):
        """Least element of the shared source where the images differ as
        elements (the targets may differ), or None if the maps agree."""
        (elements, _, _), mine = self._factorization_table(budgets)
        _, theirs = other._factorization_table(budgets)
        ours, others = (h.target.indexed(budgets.max_enumerate)[0]
                        for h in (self, other))
        return next((x for x, a, b in zip(elements, mine, theirs)
                     if ours[a] != others[b]), None)

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


def check_hom_budgets(G: PermutationGroup, C: PermutationGroup,
                      budgets: Budgets = DEFAULT_BUDGETS) -> None:
    """Raise BudgetExceeded if all_homomorphisms(G, C) may not run:
    max_hom_product on |G||C|, then max_enumerate on |C| and on |G|."""
    check_budget("max_hom_product", budgets.max_hom_product,
                 G.order() * C.order())
    check_budget("max_enumerate", budgets.max_enumerate, C.order())
    check_budget("max_enumerate", budgets.max_enumerate, G.order())


def all_homomorphisms(G: PermutationGroup, C: PermutationGroup,
                      budgets: Budgets = DEFAULT_BUDGETS):
    """Every homomorphism G -> C, by backtracking over generator images.

    Images are indices c into C's canonical element list, pruned by order
    divisibility (the image order must divide the generator order, and
    likewise for pairwise products), then validated by ``_edge_table``
    (C.memo also keeps the element orders).  An accepted hom keeps its
    table.  Enumeration order is the canonical element order, except that
    when C contains G the inclusion map is listed first: it is the natural
    reference morphism for certificates.

    The homs are memoised in ``G.memo("homs")``, keyed by the codomain
    object, after max_hom_product and max_enumerate (on |C| and |G|) are
    checked; each call returns a new list of the same hom objects.
    """
    check_hom_budgets(G, C, budgets)
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

    gen_orders, pair_orders = G.memo("generator_orders", lambda: (
        [g.order() for g in gens],
        [[(gens[j] * g).order() for j in range(i)]
         for i, g in enumerate(gens)]))
    candidates = [[c for c, m in enumerate(orders) if n % m == 0]
                  for n in gen_orders]
    found: list[GroupHomomorphism] = []

    def backtrack(i: int, chosen: list[int]):
        if i == len(gens):
            table = _edge_table(G, C, chosen, budgets)
            if table is not None:
                hom = GroupHomomorphism(G, C, [targets[c] for c in chosen],
                                        check=False)
                hom._table = table
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
