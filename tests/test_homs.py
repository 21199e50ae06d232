import itertools

import pytest

from vlab.catalog import bundled_catalog
from vlab.config import Budgets
from vlab.constructions import direct_product
from vlab.errors import BudgetExceeded, GroupError
from vlab.homs import (GroupHomomorphism, all_homomorphisms,
                       identity_endomorphism, inclusion_hom)
from vlab.perm import (Permutation, PermutationGroup, alternating_group,
                       cyclic_group, dihedral_group, parse_permutation,
                       symmetric_group)

# Keeps the oracle sweep over catalog pairs at a few seconds.
ORACLE_MAX_PRODUCT = 48


def brute_hom_count(G, C):
    """Oracle: try every assignment of generator images, validate pointwise."""
    elements = G.elements()
    count = 0
    for images in itertools.product(C.elements(),
                                    repeat=len(G.generators)):
        try:
            hom = GroupHomomorphism(G, C, images)
        except GroupError:
            continue
        # pointwise multiplicativity over all pairs
        if all(hom.apply(x * y) == hom.apply(x) * hom.apply(y)
               for x in elements for y in elements):
            count += 1
    return count


def graph_of_map_homs(G, C):
    """Oracle: every image tuple passing the graph-of-map criterion.

    The images define a homomorphism exactly when the subgroup of G x C
    generated by the pairs (g, image of g) has order |G|.  Tuples come in
    canonical order, with the inclusion map (when C contains G) moved first.
    """
    n = G.degree

    def paired(g, c):
        return Permutation(g.images + tuple(n + i for i in c.images))

    found = []
    for images in itertools.product(C.elements(), repeat=len(G.generators)):
        graph = PermutationGroup(n + C.degree, [
            paired(g, c) for g, c in zip(G.generators, images)])
        if graph.order() == G.order():
            found.append(images)
    inclusion = tuple(G.generators)
    if inclusion in found:
        found.remove(inclusion)
        found.insert(0, inclusion)
    return found


def graph_of_map_values(hom):
    """Oracle: hom as a dict from source image tuples to target elements.

    Closes the pairs (g, image of g) in G x C under multiplication; each
    element of that graph subgroup is a pair (x, hom(x)).  Shares no code
    with the factorization table.
    """
    pairs = list(zip(hom.source.generators, hom.generator_images))
    values = {hom.source.identity().images: hom.target.identity()}
    frontier = [(hom.source.identity(), hom.target.identity())]
    while frontier:
        x, fx = frontier.pop()
        for g, c in pairs:
            if (x * g).images not in values:
                values[(x * g).images] = fx * c
                frontier.append((x * g, fx * c))
    return values


def commuting_to_noncommuting():
    """C4 x C2 -> D4 sending a to a rotation and b to a reflection.

    Every image order divides its generator's order, and so does the order
    of the product image, so both order prunes pass; but a and b commute
    while their images do not.
    """
    G = direct_product(cyclic_group(4), cyclic_group(2))
    D4 = dihedral_group(4)
    images = (parse_permutation("(0 1 2 3)", 4), parse_permutation("(1 3)", 4))
    return G, D4, images


class TestGroupHomomorphism:
    def test_graph_criterion_rejects_bad_map(self):
        s3 = symmetric_group(3)
        c2 = cyclic_group(2)
        flip = c2.generators[0]
        with pytest.raises(GroupError):
            # sending a 3-cycle to an involution is not a homomorphism
            GroupHomomorphism(s3.subgroup([parse_permutation("(0 1 2)", 3)]),
                              c2, (flip,))

    def test_rejects_map_that_passes_the_order_prunes(self):
        G, D4, images = commuting_to_noncommuting()
        a, b = G.generators
        for g, img in zip((a, b, a * b), (images[0], images[1],
                                          images[0] * images[1])):
            assert g.order() % img.order() == 0
        with pytest.raises(GroupError):
            GroupHomomorphism(G, D4, images)
        unchecked = GroupHomomorphism(G, D4, images, check=False)
        assert not unchecked.is_well_defined()
        with pytest.raises(GroupError):
            unchecked.apply(a)

    def test_rejects_images_outside_the_target(self):
        # the edge check passes (the identity map of S3), but S3's
        # generators are not in C3
        S3, C3 = symmetric_group(3), cyclic_group(3)
        with pytest.raises(GroupError, match="lie in the target"):
            GroupHomomorphism(S3, C3, S3.generators)
        unchecked = GroupHomomorphism(S3, C3, S3.generators, check=False)
        assert unchecked.is_well_defined() is False

    def test_check_takes_the_callers_budget(self):
        S4, C2 = symmetric_group(4), cyclic_group(2)
        sign = (C2.generators[0], C2.generators[0])
        with pytest.raises(BudgetExceeded) as info:
            GroupHomomorphism(S4, C2, sign, budgets=Budgets(max_enumerate=10))
        assert (info.value.budget_name, info.value.limit,
                info.value.requested) == ("max_enumerate", 10, 24)
        hom = GroupHomomorphism(S4, C2, sign)
        assert hom.kernel().order() == 12

    def test_sign_map(self):
        s3 = symmetric_group(3)
        c2 = cyclic_group(2)
        sign = GroupHomomorphism(
            s3, c2, (c2.identity(), c2.generators[0]))
        assert sign.apply(parse_permutation("(0 1 2)", 3)).is_identity()
        assert not sign.apply(parse_permutation("(0 1)", 3)).is_identity()
        assert sign.kernel().order() == 3

    def test_apply_is_multiplicative(self):
        s3 = symmetric_group(3)
        c2 = cyclic_group(2)
        sign = GroupHomomorphism(s3, c2,
                                 (c2.identity(), c2.generators[0]))
        for x in s3.elements():
            for y in s3.elements():
                assert sign.apply(x * y) == sign.apply(x) * sign.apply(y)

    def test_apply_outside_source(self):
        a4 = alternating_group(4)
        inc = inclusion_hom(a4, symmetric_group(4))
        with pytest.raises(GroupError):
            inc.apply(parse_permutation("(0 1)", 4))

    def test_identity_endomorphism(self, a5):
        ident = identity_endomorphism(a5)
        assert ident.is_injective()
        g = parse_permutation("(0 1 2)", 5)
        assert ident.apply(g) == g

    def test_agrees_on_and_first_difference(self, c4, c2_in_c4):
        ident = identity_endomorphism(c4)
        inv = GroupHomomorphism(c4, c4, (c4.generators[0].inverse(),))
        assert ident.agrees_on(inv, c2_in_c4)
        diff = ident.first_difference(inv)
        assert diff is not None and ident.apply(diff) != inv.apply(diff)


class TestAllHomomorphisms:
    @pytest.mark.parametrize("source,target,count", [
        (cyclic_group(4), cyclic_group(4), 4),
        (alternating_group(5), cyclic_group(2), 1),
        (cyclic_group(2), symmetric_group(3), 4),
        (symmetric_group(3), cyclic_group(4), 2),
    ])
    def test_counts_match_brute_force(self, source, target, count):
        homs = all_homomorphisms(source, target)
        assert len(homs) == count
        assert brute_hom_count(source, target) == count

    def test_every_found_hom_is_multiplicative(self):
        s3 = symmetric_group(3)
        for hom in all_homomorphisms(s3, symmetric_group(3)):
            for x in s3.elements():
                for y in s3.generators:
                    assert hom.apply(x * y) == hom.apply(x) * hom.apply(y)

    def test_inclusion_listed_first_when_present(self, c4):
        homs = all_homomorphisms(c4, c4)
        assert homs[0].generator_images == c4.generators

    def test_deterministic_order(self, c4):
        first = [h.generator_images for h in all_homomorphisms(c4, c4)]
        second = [h.generator_images for h in all_homomorphisms(c4, c4)]
        assert first == second

    def test_matches_graph_of_map_oracle_on_catalog_pairs(self):
        pairs = 0
        for G in bundled_catalog():
            for C in bundled_catalog():
                if G.order() * C.order() > ORACLE_MAX_PRODUCT:
                    continue
                got = [h.generator_images for h in all_homomorphisms(G, C)]
                assert got == graph_of_map_homs(G, C), (G.name, C.name)
                pairs += 1
        assert pairs > 500

    def test_leaves_out_map_that_passes_the_order_prunes(self):
        G, D4, images = commuting_to_noncommuting()
        homs = [h.generator_images for h in all_homomorphisms(G, D4)]
        assert images not in homs
        assert homs == graph_of_map_homs(G, D4)

    def test_accepted_homs_keep_their_table(self, c4):
        for hom in all_homomorphisms(c4, c4):
            assert hom._table is not None

    def test_check_budget_stops_the_search(self):
        # |C| = 2 fits the limit, so only the check can stop
        with pytest.raises(BudgetExceeded) as info:
            all_homomorphisms(symmetric_group(4), cyclic_group(2),
                              Budgets(max_enumerate=10))
        assert (info.value.budget_name, info.value.limit,
                info.value.requested) == ("max_enumerate", 10, 24)

    def test_budget(self, a5):
        with pytest.raises(BudgetExceeded):
            all_homomorphisms(a5, a5, Budgets(max_hom_product=100))


class TestIndexedSearch:
    def test_one_walk_per_source_across_codomains(self, monkeypatch):
        G = symmetric_group(4)
        walks = []
        memo = G.memo

        def counting_memo(key, compute):
            def counted():
                walks.append(key)
                return compute()
            return memo(key, counted)

        monkeypatch.setattr(G, "memo", counting_memo)
        counts = [len(all_homomorphisms(G, C)) for C in (
            cyclic_group(2), cyclic_group(3), symmetric_group(3),
            cyclic_group(2))]
        assert counts == [2, 1, 10, 2]
        identity_endomorphism(G).kernel()
        assert walks.count("cayley_walk") == 1

    def test_second_search_makes_no_source_product(self, monkeypatch):
        # one generator, so the pair prune has no source products either
        G = cyclic_group(6)
        first = [h.generator_images
                 for h in all_homomorphisms(G, cyclic_group(2))]
        products = []
        mul = Permutation.__mul__

        def counting_mul(p, q):
            if p.degree == G.degree:
                products.append((p, q))
            return mul(p, q)

        monkeypatch.setattr(Permutation, "__mul__", counting_mul)
        again = all_homomorphisms(G, cyclic_group(2))
        assert [h.generator_images for h in again] == first
        all_homomorphisms(G, cyclic_group(3))
        assert products == []

    def test_kernel_and_first_difference_match_brute_force(self):
        pairs = 0
        # many homs share a kernel; list each kernel's elements once
        kernel_elements = {}
        for G in bundled_catalog():
            for C in bundled_catalog():
                if G.order() * C.order() > ORACLE_MAX_PRODUCT:
                    continue
                homs = all_homomorphisms(G, C)
                values = [graph_of_map_values(f) for f in homs]
                for f, fv in zip(homs, values):
                    kernel = f.kernel()
                    key = (id(G), kernel.generators)
                    if key not in kernel_elements:
                        kernel_elements[key] = {
                            x.images for x in kernel.elements()}
                    assert kernel_elements[key] == {
                        x for x, y in fv.items() if y.is_identity()
                    }, (G.name, C.name)
                    for g, gv in zip(homs, values):
                        expected = next((x for x in G.elements()
                                         if fv[x.images] != gv[x.images]),
                                        None)
                        assert f.first_difference(g) == expected
                pairs += 1
        assert pairs > 500


def test_kernel_has_at_most_log2_order_generators():
    kernels = 0
    for G in bundled_catalog():
        for C in bundled_catalog():
            if G.order() * C.order() > ORACLE_MAX_PRODUCT:
                continue
            for f in all_homomorphisms(G, C):
                K = f.kernel()
                if K.order() == 1:
                    assert [g.is_identity() for g in K.generators] == [True]
                else:
                    assert 2 ** len(K.generators) <= K.order(), (G.name,
                                                                 C.name)
                kernels += 1
    assert kernels > 1000
