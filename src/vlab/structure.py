"""Structural queries on finite permutation groups.

Everything here treats subgroups as plain PermutationGroup values of the same
degree; ambient containment is the caller's precondition and is only asserted
where it is cheap to do so.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .config import DEFAULT_BUDGETS, Budgets
from .errors import GroupError, check_budget
from .homs import GroupHomomorphism
from .perm import Permutation, PermutationGroup, walk, walk_capped


def commutator(a: Permutation, b: Permutation) -> Permutation:
    return a.inverse() * b.inverse() * a * b


def generated_subgroup(G: PermutationGroup, elems) -> PermutationGroup:
    """Subgroup of G's symmetric group generated by elems (maybe empty)."""
    return G.subgroup([e for e in elems if not e.is_identity()])


def normal_closure(G: PermutationGroup, seed) -> PermutationGroup:
    """Smallest subgroup containing seed and closed under conjugation by G.

    Standard orbit algorithm: keep a growing generating set, push conjugates
    of every accepted generator by G's generators, filter by membership.
    When G's root is listed, ``G.listed_normal_closure`` runs this loop as
    one walk on the root's positions; otherwise
    ``G.chain_normal_closure`` adjoins each accepted generator to one
    stabilizer chain, which the closure keeps.  Both accept the same
    generators in the same order.
    """
    for s in seed:
        if not G.contains(s):
            raise GroupError("normal_closure seed element lies outside G")
    closure = G.listed_normal_closure(seed)
    return G.chain_normal_closure(seed) if closure is None else closure


def derived_subgroup(G: PermutationGroup) -> PermutationGroup:
    """Commutator subgroup: normal closure of generator-pair commutators."""
    seed = []
    gens = G.generators
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            c = commutator(a, b)
            if not c.is_identity():
                seed.append(c)
    return normal_closure(G, seed)


def derived_series(G: PermutationGroup) -> list[PermutationGroup]:
    """[G, G', G'', ...] until the series stabilizes (no duplicated tail).

    Memoised on G; the memo holds only the terms below G, and every call
    returns a fresh list.
    """

    def below():
        series = [G]
        while True:
            nxt = derived_subgroup(series[-1])
            if nxt.order() == series[-1].order():
                return tuple(series[1:])
            series.append(nxt)

    return [G, *G.memo("derived_series", below)]


def is_solvable(G: PermutationGroup) -> bool:
    """Whether the derived series, memoised on G, reaches 1."""
    return derived_series(G)[-1].order() == 1


def derived_length(G: PermutationGroup) -> int | None:
    """Length of the derived series down to 1; None if G is not solvable."""
    series = derived_series(G)
    if series[-1].order() != 1:
        return None
    return len(series) - 1


def lower_central_series(G: PermutationGroup, c: int) -> list[PermutationGroup]:
    """gamma_1 .. gamma_{c+1}, where gamma_{k+1} = [gamma_k, G].

    Once gamma_{k+1} = gamma_k the series is stationary, so the remaining
    terms are that subgroup.  Each strict step at least halves the order,
    so gamma_{c+1} with c = G.order().bit_length() is already stationary.
    """
    if c < 1:
        raise GroupError("lower_central_series needs c >= 1")
    series = [G]
    while len(series) <= c and series[-1].order() > 1:
        current = series[-1]
        seed = []
        for a in current.generators:
            for b in G.generators:
                cm = commutator(a, b)
                if not cm.is_identity():
                    seed.append(cm)
        nxt = normal_closure(G, seed)
        if nxt.order() == current.order():
            break
        series.append(nxt)
    return series + [series[-1]] * (c + 1 - len(series))


def nilpotency_class(G: PermutationGroup) -> int | None:
    """Least c with gamma_{c+1} = 1, or None if the series stalls above 1."""
    series = lower_central_series(G, G.order().bit_length())
    return next((c for c, term in enumerate(series) if term.order() == 1),
                None)


def is_normal(G: PermutationGroup, N: PermutationGroup) -> bool:
    """Whether N is invariant under conjugation by G's generators."""
    return N.is_normalized_by(G.generators)


def subgroup_intersection(G: PermutationGroup, A: PermutationGroup,
                          B: PermutationGroup,
                          budgets: Budgets = DEFAULT_BUDGETS) -> PermutationGroup:
    """A intersect B, by filtering the smaller group's elements.

    Quick containment outs avoid enumeration entirely; otherwise the smaller
    factor must fit the enumeration budget.
    """
    if A.degree != B.degree:
        raise GroupError("intersection operands have different degrees")
    if A.is_subgroup_of(B):
        return A
    if B.is_subgroup_of(A):
        return B
    small, large = (A, B) if A.order() <= B.order() else (B, A)
    members = [g for g in small.elements(budgets.max_enumerate)
               if large.contains(g)]
    return generated_subgroup(G, members)


def product_covers(G: PermutationGroup, H: PermutationGroup,
                   N: PermutationGroup,
                   budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """|H| * |N| / |H intersect N| == |G|, without materializing cosets."""
    meet = subgroup_intersection(G, H, N, budgets)
    return H.order() * N.order() == G.order() * meet.order()


def product_subgroup(G: PermutationGroup, A: PermutationGroup,
                     B: PermutationGroup) -> PermutationGroup:
    """The subgroup generated by A and B (equals the setwise product AB
    whenever one factor normalizes the other)."""
    return generated_subgroup(G, list(A.generators) + list(B.generators))


def conjugacy_classes(G: PermutationGroup,
                      budgets: Budgets = DEFAULT_BUDGETS):
    """Conjugacy classes as lists of elements; reps are the class minima.

    Each class is an orbit of positions under G's conjugation columns of
    its generators; position order is canonical order.
    """
    elements, _, _ = G.indexed(budgets.max_enumerate)
    cols = [G.conj(g) for g in G.generators]
    seen: set[int] = set()
    classes = []
    for i in range(len(elements)):
        if i not in seen:
            orbit = walk(set(), [i], cols)
            seen |= orbit
            classes.append([elements[x] for x in sorted(orbit)])
    return classes


def class_representatives(G: PermutationGroup,
                          budgets: Budgets = DEFAULT_BUDGETS):
    """The class minima in canonical order; memoised on G, budget first."""
    check_budget("max_enumerate", budgets.max_enumerate, G.order())
    return list(G.memo("class_representatives", lambda: tuple(
        cls[0] for cls in conjugacy_classes(G, budgets))))


def exponent(G: PermutationGroup, budgets: Budgets = DEFAULT_BUDGETS) -> int:
    """The lcm of the element orders; memoised on G, budget first."""
    reps = class_representatives(G, budgets)
    return G.memo("exponent", lambda: lcm(*(r.order() for r in reps)))


def normalizer(G: PermutationGroup, D: PermutationGroup,
               budgets: Budgets = DEFAULT_BUDGETS) -> PermutationGroup:
    """N_G(D) by scanning G for elements outside the part found so far.

    D itself always lies in the normalizer, so the scan starts from D and
    tests at most one representative per coset of each part found; it is
    plain brute force, bounded by the documented budget.
    """
    n = G.order()
    check_budget("max_normalizer", budgets.max_normalizer, n)
    if D.order() == 1 or D.order() == n:
        return G
    d_elements = frozenset(g.images for g in D.elements(budgets.max_enumerate))

    def normalizes(g: Permutation) -> bool:
        return all((d ** g).images in d_elements for d in D.generators)

    result_gens = list(D.generators)
    result = G.subgroup(result_gens)
    for g in G.elements(budgets.max_enumerate):
        if result.contains(g):
            continue
        if normalizes(g):
            result_gens.append(g)
            result = G.subgroup(result_gens)
            if result.order() == n:
                break
    return result


@dataclass
class QuotientResult:
    group: PermutationGroup
    projection: GroupHomomorphism
    coset_reps: list[Permutation]  # minimal representatives, identity first


def quotient(G: PermutationGroup, N: PermutationGroup,
             budgets: Budgets = DEFAULT_BUDGETS) -> QuotientResult:
    """Permutation action of G on the right cosets of N, plus the projection.

    Checks that N is a subgroup of G and normal in it.  The coset Ng = gN is
    the orbit of g's position in G's list under the columns of N's
    generators; one pass in position order numbers the cosets by their least
    element, so the identity coset is point 0.
    """
    elements, index, col = G.indexed(budgets.max_enumerate)
    positions = [index.get(n.images) for n in N.generators]
    if None in positions:
        raise GroupError("quotient requires a subgroup of G")
    if not is_normal(G, N):
        raise GroupError("quotient requires a normal subgroup")
    cols = [col(j) for j in positions if j]
    label: list[int | None] = [None] * len(elements)
    reps: list[int] = []
    for x in range(len(elements)):
        if label[x] is None:
            for y in walk(set(), [x], cols):
                label[y] = len(reps)
            reps.append(x)
    gen_images = [Permutation(tuple(label[c[r]] for r in reps))
                  for c in (col(index[g.images]) for g in G.generators)]
    Q = PermutationGroup(len(reps), gen_images,
                         name=f"{G.name}/{N.name}" if G.name and N.name else None)
    proj = GroupHomomorphism(G, Q, tuple(gen_images), budgets=budgets)
    return QuotientResult(group=Q, projection=proj,
                          coset_reps=[elements[x] for x in reps])


def element_normal_closures(G: PermutationGroup,
                            budgets: Budgets = DEFAULT_BUDGETS):
    """Normal closure of one representative per conjugacy class."""
    closures = []
    seen_orders: dict[tuple, PermutationGroup] = {}
    for rep in class_representatives(G, budgets):
        if rep.is_identity():
            continue
        closure = normal_closure(G, [rep])
        key = _subgroup_key(closure, budgets)
        if key not in seen_orders:
            seen_orders[key] = closure
            closures.append(closure)
    return closures


def _subgroup_key(H: PermutationGroup, budgets: Budgets):
    return frozenset(g.images for g in H.elements(budgets.max_enumerate))


def normal_subgroups(G: PermutationGroup,
                     budgets: Budgets = DEFAULT_BUDGETS):
    """All normal subgroups of G (including 1 and G).

    Every normal subgroup is a join of normal closures of single elements, so
    the lattice is the join-closure of the class-representative closures.
    Budgeted by max_normal_enumeration on |G|.
    """
    check_budget("max_normal_enumeration", budgets.max_normal_enumeration,
                 G.order())
    atoms = element_normal_closures(G, budgets)
    found: dict[frozenset, PermutationGroup] = {}
    trivial = G.subgroup([G.identity()])
    found[_subgroup_key(trivial, budgets)] = trivial
    for a in atoms:
        found[_subgroup_key(a, budgets)] = a
    changed = True
    while changed:
        changed = False
        current = list(found.values())
        for i, a in enumerate(current):
            for b in current[i + 1:]:
                join = product_subgroup(G, a, b)
                key = _subgroup_key(join, budgets)
                if key not in found:
                    found[key] = join
                    changed = True
    return sorted(found.values(), key=lambda H: (H.order(), _min_key(H)))


def _min_key(H: PermutationGroup):
    return min(g.images for g in H.generators)


def solvable_radical(G: PermutationGroup,
                     budgets: Budgets = DEFAULT_BUDGETS) -> PermutationGroup:
    """Largest solvable normal subgroup: the join of the solvable closures.

    Any solvable normal N is the join of the (solvable) normal closures of
    its elements, and a join of solvable normals is solvable normal, so
    joining every solvable class-representative closure reaches the radical.
    The partial join R is normal, so a representative already in R has its
    closure inside R and is skipped before its closure is computed.
    When G itself is solvable (read once from its memoised derived series)
    so is every closure, and each joins without its own check; the joins,
    and so the radical's generators, are the same.
    Memoised on G.  The two budget checks come first and cover the whole
    computation, since every group it enumerates is G or a subgroup of G.
    """
    check_budget("max_normal_enumeration", budgets.max_normal_enumeration,
                 G.order())
    check_budget("max_enumerate", budgets.max_enumerate, G.order())

    def compute():
        reps = class_representatives(G, budgets)  # lists G first
        solvable = is_solvable(G)
        radical = G.subgroup([G.identity()])
        for rep in reps:
            if radical.contains(rep):
                continue
            closure = normal_closure(G, [rep])
            if solvable or is_solvable(closure):
                radical = product_subgroup(G, radical, closure)
        return radical

    return G.memo("solvable_radical", compute)


def prime_divisors(n: int) -> set[int]:
    primes = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            primes.add(d)
            n //= d
        d += 1
    if n > 1:
        primes.add(n)
    return primes


def all_subgroups(G: PermutationGroup, budgets: Budgets = DEFAULT_BUDGETS):
    """Every subgroup of G, for desk-scale groups.

    Layered closure: cyclic subgroups first, then repeatedly extend each
    known subgroup H by one outside element e until no new subgroup appears.
    Once <e> is added, every e^k with k prime to ord(e) is skipped, since
    it generates the same subgroup.
    Extension skips a try (H, e) only when an earlier try formed <H, e>,
    so the least e giving each subgroup is always tried, and the result
    (the subgroups, their generator tuples and their order) is that of
    extending by every e outside H.  Five rules:
    - The trivial subgroup is not extended: <1, e> = <e>, which the cyclic
      phase listed.
    - One e per cyclic subgroup and per double coset: only the least
      generator r of each <r> is a candidate, since <H, e> = <H, r> for
      every generator e of <r>; and a tried e marks HeH, since
      <H, h1 e h2> = <H, e> for h1, h2 in H.  A marked element's <H, e>
      is one an earlier try formed, so marked candidates are skipped.
    - Prime index: if p = |<H, e> : H| is prime, the try marks all of
      K = <H, e>.  For e' in K outside H, |<H, e'> : H| divides p and is
      not 1, so <H, e'> = K.
    - Prime-index overgroups: by the same argument, every K already found
      with H < K and |K : H| prime is marked before H's first try.  A try
      of e in K would form K again and mark only positions inside K, so
      the tries left run in the same order and form the same subgroups.
    - Lagrange cap: |<H, e>| is a multiple of |H| dividing |G|, so once the
      closure walk holds more positions than the largest such proper
      divisor of |G|, <H, e> = G and the walk stops.
    Every index |K : H| divides |G|, so the prime tests look it up among
    the prime divisors of |G|, found once per call.
    The walks run on G.indexed() positions: a subgroup is the set of its
    members' positions, closed along the multiplication columns.  Only G
    builds a stabilizer chain.  Each subgroup is one G.subgroup_at, which
    keeps the walked positions as its member set when G is a root, so its
    order, contains and elements do no second walk.
    Budgeted by max_normal_enumeration and max_enumerate on |G|.
    """
    check_budget("max_normal_enumeration", budgets.max_normal_enumeration,
                 G.order())
    elements, index, col = G.indexed(budgets.max_enumerate)
    n = len(elements)
    everything = frozenset(range(n))
    primes = prime_divisors(n)
    found = {}
    by_order = {}  # found's keys by subgroup order

    def add(key, generators):
        found[key] = H = G.subgroup_at(generators, key)
        by_order.setdefault(len(key), []).append(key)
        return H

    add(frozenset([0]), [G.identity()])
    cyclic_generators = {0}
    firsts = []  # the least generator of each cyclic subgroup but 1
    for i, e in enumerate(elements):
        if i in cyclic_generators:
            continue
        powers = [0, i]
        while powers[-1]:
            powers.append(col(i)[powers[-1]])
        k = len(powers) - 1
        cyclic_generators.update(powers[j] for j in range(k)
                                 if gcd(j, k) == 1)
        firsts.append(i)
        add(frozenset(powers), [e])
    frontier = list(found.items())[1:]  # <1, e> = <e> is listed already
    while frontier:
        new = []
        for members, H in frontier:
            h = len(members)
            h_cols = [col(index[g.images]) for g in H.generators]
            cap = max((d for d in range(h, n, h) if n % d == 0), default=h)
            marked = set(members)
            for p in primes:
                for K in by_order.get(h * p, ()):
                    if members <= K:
                        marked |= K
            for i in firsts:
                if i in marked:
                    continue
                c = col(i)
                coset = [c[x] for x in members]
                walk(marked, list(coset), h_cols)
                # a walk from H's members leaves H only through He
                closure = walk_capped(set(members), coset, h_cols + [c], cap)
                key = frozenset(closure) if len(closure) <= cap else everything
                if len(key) // h in primes:
                    marked |= key
                if key not in found:
                    new.append((key, add(
                        key, list(H.generators) + [elements[i]])))
        frontier = new
    ordered = sorted(found.items(),
                     key=lambda kv: (len(kv[0]), _min_key(kv[1])))
    return [H for _, H in ordered]
