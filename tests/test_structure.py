import random

import pytest

from tests.conftest import chain_shape, mulclose
from vlab import perm, structure
from vlab.catalog import bundled_catalog, resolve_group_name
from vlab.constructions import direct_product, regular_wreath
from vlab.engine import epi_decide
from vlab.errors import BudgetExceeded, DegreeMismatch, GroupError
from vlab.perm import (Permutation, PermutationGroup, alternating_group,
                       cyclic_group, dihedral_group, parse_permutation,
                       pad_permutation, symmetric_group)
from vlab.structure import (all_subgroups, class_representatives,
                            conjugacy_classes, derived_series,
                            derived_subgroup, element_normal_closures,
                            is_normal, is_solvable, lower_central_series,
                            nilpotency_class, normal_closure,
                            normal_subgroups, normalizer, product_covers,
                            product_subgroup, quotient, solvable_radical,
                            subgroup_intersection)
from vlab.config import Budgets
from vlab.varieties import parse_descriptor


def brute_subgroup_elements(G, seed):
    """Independent closure oracle for the subgroup generated by seed."""
    if not seed:
        return {G.identity()}
    return set(mulclose(list(seed)))


def brute_coset_action(G, N):
    """Independent oracle for quotient: the cosets Ng labelled by their least
    image tuples in sorted order, and each generator's action on them."""
    def compose(a, b):  # a, then b
        return tuple(b[x] for x in a)

    n_elements = [n.images for n in mulclose(list(N.generators))]
    coset = {g.images: min(compose(n, g.images) for n in n_elements)
             for g in mulclose(list(G.generators))}
    reps = sorted(set(coset.values()))
    label = {r: i for i, r in enumerate(reps)}
    images = [tuple(label[coset[compose(r, g.images)]] for r in reps)
              for g in G.generators]
    return reps, images


class TestNormalClosure:
    def test_s3_three_cycle(self):
        s3 = symmetric_group(3)
        n = normal_closure(s3, [parse_permutation("(0 1 2)", 3)])
        assert n.order() == 3

    def test_empty_seed(self):
        assert normal_closure(symmetric_group(3), []).order() == 1

    def test_a5_three_cycle_generates_everything(self, a5):
        n = normal_closure(a5, [parse_permutation("(0 1 2)", 5)])
        assert n.order() == 60
        # cross-check by exhaustive closure of the conjugates
        conj = {parse_permutation("(0 1 2)", 5) ** g for g in a5.elements()}
        assert len(mulclose(sorted(conj))) == 60

    def test_closure_is_normal_and_contains_seed(self):
        for G in (symmetric_group(4), dihedral_group(6)):
            seed = [G.generators[0] ** 2]
            n = normal_closure(G, seed)
            assert is_normal(G, n)
            assert all(n.contains(s) for s in seed)

    def test_seed_outside_group_rejected(self):
        with pytest.raises(GroupError):
            normal_closure(alternating_group(4),
                           [parse_permutation("(0 1)", 4)])


class TestDerivedAndCentralSeries:
    def test_derived_a5_is_a5(self, a5):
        assert derived_subgroup(a5).order() == 60

    def test_derived_abelian_trivial(self):
        assert derived_subgroup(cyclic_group(6)).order() == 1

    def test_derived_series_s4(self):
        orders = [g.order() for g in derived_series(symmetric_group(4))]
        assert orders == [24, 12, 4, 1]

    def test_derived_series_entries_normal_and_decreasing(self):
        G = symmetric_group(4)
        series = derived_series(G)
        for a, b in zip(series, series[1:]):
            assert b.order() < a.order()
            assert is_normal(G, b)

    def test_derived_matches_commutator_enumeration(self):
        # oracle: subgroup generated by all elementwise commutators
        for G in (symmetric_group(4), dihedral_group(4),
                  alternating_group(4)):
            elems = G.elements()
            comms = {a.inverse() * b.inverse() * a * b
                     for a in elems for b in elems}
            expected = brute_subgroup_elements(G, sorted(comms))
            assert derived_subgroup(G).order() == len(expected)

    def test_lower_central_series_d4(self):
        series = lower_central_series(dihedral_group(4), 3)
        assert [g.order() for g in series] == [8, 2, 1, 1]

    def test_nilpotency_class(self):
        assert nilpotency_class(dihedral_group(4)) == 2
        assert nilpotency_class(cyclic_group(6)) == 1
        assert nilpotency_class(symmetric_group(3)) is None

    def test_lower_central_series_stalls_above_trivial(self):
        # D4 x S3: gamma_2 = C2 x C3, then gamma_3 = C3 = gamma_4 = ...
        G = direct_product(dihedral_group(4), symmetric_group(3))
        series = lower_central_series(G, 4)
        assert [g.order() for g in series] == [48, 6, 3, 3, 3]
        assert nilpotency_class(G) is None

    def test_solvability(self):
        assert is_solvable(symmetric_group(4))
        assert not is_solvable(alternating_group(5))


class TestSubgroupQueries:
    def test_is_normal(self):
        s4 = symmetric_group(4)
        assert not is_normal(s4, s4.subgroup([parse_permutation("(0 1)", 4)]))
        v4 = s4.subgroup([parse_permutation("(0 1)(2 3)", 4),
                          parse_permutation("(0 2)(1 3)", 4)])
        assert is_normal(s4, v4)

    def test_intersection_filter(self):
        s4 = symmetric_group(4)
        a4 = s4.subgroup([parse_permutation("(0 1 2)", 4),
                          parse_permutation("(1 2 3)", 4)])
        s3 = s4.subgroup([pad_permutation(g, 4)
                          for g in symmetric_group(3).generators])
        meet = subgroup_intersection(s4, a4, s3)
        assert meet.order() == 3

    def test_intersection_containment_shortcut(self):
        s4 = symmetric_group(4)
        a4 = s4.subgroup([parse_permutation("(0 1 2)", 4),
                          parse_permutation("(1 2 3)", 4)])
        assert subgroup_intersection(s4, a4, s4).order() == 12

    def test_product_covers(self):
        s4 = symmetric_group(4)
        s3 = s4.subgroup([pad_permutation(g, 4)
                          for g in symmetric_group(3).generators])
        a4 = s4.subgroup([parse_permutation("(0 1 2)", 4),
                          parse_permutation("(1 2 3)", 4)])
        assert product_covers(s4, s3, a4)
        assert product_covers(s4, s4, s4.subgroup([s4.identity()]))
        assert not product_covers(s4, s3, s3)


class TestNormalizer:
    def test_normalizer_of_c4_in_s4(self):
        s4 = symmetric_group(4)
        c4 = s4.subgroup([parse_permutation("(0 1 2 3)", 4)])
        n = normalizer(s4, c4)
        assert n.order() == 8
        # brute-force oracle
        d_els = set(c4.elements())
        brute = [g for g in s4.elements()
                 if all(d ** g in d_els for d in d_els)]
        assert len(brute) == 8

    def test_normalizer_of_whole_group(self, a5):
        assert normalizer(a5, a5).order() == 60

    def test_normalizer_of_sylow5_in_a5(self, a5):
        syl = a5.subgroup([parse_permutation("(0 1 2 3 4)", 5)])
        assert normalizer(a5, syl).order() == 10

    def test_budget(self, a5):
        with pytest.raises(BudgetExceeded):
            normalizer(a5, a5.subgroup([parse_permutation("(0 1 2)", 5)]),
                       Budgets(max_normalizer=10))


class TestQuotient:
    def test_s4_mod_v4(self):
        s4 = symmetric_group(4)
        v4 = s4.subgroup([parse_permutation("(0 1)(2 3)", 4),
                          parse_permutation("(0 2)(1 3)", 4)])
        q = quotient(s4, v4)
        assert q.group.order() == 6
        assert not q.group.is_abelian()
        assert q.projection.kernel().order() == 4
        assert q.coset_reps[0].is_identity()

    def test_regular_image(self):
        d4 = dihedral_group(4)
        q = quotient(d4, d4.subgroup([d4.identity()]))
        assert q.group.order() == 8
        assert q.group.degree == 8

    def test_wreath_mod_base(self, a5):
        from vlab.constructions import regular_wreath
        w = regular_wreath(a5, cyclic_group(2))
        q = quotient(w.product, w.base_subgroup())
        assert q.group.order() == 2

    def test_non_normal_rejected(self):
        s4 = symmetric_group(4)
        with pytest.raises(GroupError):
            quotient(s4, s4.subgroup([parse_permutation("(0 1)", 4)]))

    def test_rejects_a_non_subgroup(self):
        # <(2 3)> is normalised by (0 1), but it is not a subgroup of <(0 1)>
        s4 = symmetric_group(4)
        with pytest.raises(GroupError, match="subgroup of G"):
            quotient(s4.subgroup([parse_permutation("(0 1)", 4)]),
                     s4.subgroup([parse_permutation("(2 3)", 4)]))

    def test_makes_no_product_and_validates_one_image_per_generator(
            self, monkeypatch):
        s4 = symmetric_group(4)
        v4 = s4.subgroup([parse_permutation("(0 1)(2 3)", 4),
                          parse_permutation("(0 2)(1 3)", 4)])
        counts = {"products": 0, "validated": 0}
        mul, post_init = Permutation.__mul__, Permutation.__post_init__

        def counting_mul(a, b):
            counts["products"] += 1
            return mul(a, b)

        def counting_post_init(p):
            counts["validated"] += 1
            post_init(p)

        monkeypatch.setattr(Permutation, "__mul__", counting_mul)
        monkeypatch.setattr(Permutation, "__post_init__", counting_post_init)
        quotient(s4, v4)
        assert counts == {"products": 0, "validated": len(s4.generators)}

    def test_matches_the_brute_force_coset_action(self):
        # every catalog group of order <= 24 and one seeded relabelling of
        # each, over every normal subgroup
        pairs = 0
        for G in bundled_catalog():
            if G.order() > 24:
                continue
            rng = random.Random(G.name)
            sigma = Permutation(tuple(rng.sample(range(G.degree), G.degree)))
            moved = PermutationGroup(G.degree,
                                     [g ** sigma for g in G.generators])
            for group in (G, moved):
                for N in normal_subgroups(group):
                    q = quotient(group, N)
                    reps, images = brute_coset_action(group, N)
                    assert [r.images for r in q.coset_reps] == reps, G.name
                    assert [p.images for p in
                            q.projection.generator_images] == images, G.name
                    pairs += 1
        assert pairs == 1272

    def test_projection_is_verified_homomorphism(self):
        # pointwise multiplicativity oracle on a small instance
        s4 = symmetric_group(4)
        a4 = s4.subgroup([parse_permutation("(0 1 2)", 4),
                          parse_permutation("(1 2 3)", 4)])
        q = quotient(s4, a4)
        for x in s4.elements():
            for y in s4.generators:
                assert q.projection.apply(x * y) == \
                    q.projection.apply(x) * q.projection.apply(y)


class TestRadicalAndLattices:
    def test_radical_of_solvable_group_is_whole(self):
        # the join of all solvable normal subgroups of a solvable group is
        # the group itself
        assert solvable_radical(symmetric_group(4)).order() == 24
        assert solvable_radical(cyclic_group(6)).order() == 6

    def test_radical_of_a5_trivial(self, a5):
        assert solvable_radical(a5).order() == 1

    def test_radical_of_wreath(self, a5):
        from vlab.constructions import regular_wreath
        w = regular_wreath(cyclic_group(2), cyclic_group(3))
        assert solvable_radical(w.product).order() == 24

    @pytest.mark.parametrize("G", bundled_catalog(),
                             ids=lambda G: G.name or str(G.degree))
    def test_radical_joins_the_same_closures_as_the_full_join(self, G):
        # the join over every class representative's closure, deduplicated
        # by element set, as solvable_radical computed it before it skipped
        # representatives already in the partial join
        radical = G.subgroup([G.identity()])
        for closure in element_normal_closures(G):
            if closure.order() == 1 or closure.is_subgroup_of(radical):
                continue
            if is_solvable(closure):
                radical = product_subgroup(G, radical, closure)
        fast = solvable_radical(G)
        assert fast.order() == radical.order()
        assert fast.generators == radical.generators

    def test_radical_is_the_largest_solvable_normal_subgroup(self):
        # the join is solvable and normal, and holds every solvable normal
        # subgroup, which normal_subgroups lists independently
        groups = [G for G in bundled_catalog() if G.order() <= 24]
        assert len(groups) == 77
        for G in groups:
            radical = solvable_radical(G)
            assert is_solvable(radical) and is_normal(G, radical), G.name
            for N in normal_subgroups(G):
                assert not is_solvable(N) or N.is_subgroup_of(radical), \
                    G.name

    def test_normal_subgroups_s4(self):
        orders = sorted(n.order() for n in normal_subgroups(symmetric_group(4)))
        assert orders == [1, 4, 12, 24]

    def test_normal_subgroups_a5(self, a5):
        assert sorted(n.order() for n in normal_subgroups(a5)) == [1, 60]

    def test_normal_subgroups_q8(self):
        q8 = resolve_group_name("Q8")
        orders = sorted(n.order() for n in normal_subgroups(q8))
        assert orders == [1, 2, 4, 4, 4, 8]

    def test_all_subgroups_counts(self):
        assert len(all_subgroups(symmetric_group(4))) == 30
        assert len(all_subgroups(dihedral_group(4))) == 10
        assert len(all_subgroups(resolve_group_name("C2^3"))) == 16

    def test_conjugacy_class_count(self, a5):
        assert len(conjugacy_classes(a5)) == 5
        assert len(conjugacy_classes(symmetric_group(4))) == 5


# -- subgroups of a listed group answer from its element positions -----------


def outside_permutations(G, rng, count=4):
    """A few seeded permutations of G's degree that lie outside G."""
    n = G.degree
    candidates = [Permutation(tuple(rng.sample(range(n), n)))
                  for _ in range(20)]
    return [p for p in candidates if not G.contains(p)][:count]


def assert_same_as_chain(G, H, probes):
    """H answers order, elements and contains as a chain-only copy does,
    and answered them without a chain of its own."""
    reference = PermutationGroup(G.degree, H.generators)
    assert [H.contains(p) for p in probes] == [reference.contains(p)
                                               for p in probes]
    assert H.order() == reference.order()
    assert H.elements() == reference.elements()
    assert H._chain is None


@pytest.mark.parametrize("catalog_group", bundled_catalog(),
                         ids=lambda G: G.name)
def test_position_path_matches_the_chain(catalog_group):
    """Subgroups and normal closures on the position path answer as the
    chain does, and the closures, derived-series terms included, keep the
    chain loop's generator tuples, which certificates print."""
    G = PermutationGroup(catalog_group.degree, catalog_group.generators,
                         name=catalog_group.name)
    G.elements()
    chain_only = PermutationGroup(G.degree, G.generators)  # never listed
    probes = [*G.elements(), *outside_permutations(G, random.Random(11))]
    for H in all_subgroups(G):
        assert_same_as_chain(G, H, probes)
    for rep in class_representatives(G):
        closure = normal_closure(G, [rep])
        assert_same_as_chain(G, closure, probes)
        assert (closure.generators
                == normal_closure(chain_only, [rep]).generators)
    # each term below G is a proper subgroup of the listed root
    for term, reference in zip(derived_series(G), derived_series(chain_only),
                               strict=True):
        assert term.generators == reference.generators
    assert chain_only._elements is None


def _never():
    raise AssertionError("the members memo was computed twice")


class TestPositionPath:
    def test_generator_outside_the_root_falls_back_to_the_chain(self, ctx):
        G = alternating_group(4)
        G.elements()
        H = G.subgroup([parse_permutation("(0 1 2)", 4),
                        parse_permutation("(0 1)", 4)])
        assert H.order() == 6  # Sym({0, 1, 2}), not a subgroup of A4
        assert H.contains(parse_permutation("(1 2)", 4))
        assert len(H.elements()) == 6
        assert H._chain is not None
        assert H.memo("members", _never) is None
        with pytest.raises(GroupError):
            epi_decide(G, H, parse_descriptor("Sl:3"), ctx)

    def test_listed_root_builds_no_chain(self, monkeypatch):
        G = symmetric_group(4)
        G.elements()
        builds = []
        init = perm.StabilizerChain.__init__

        def counting_init(self, *args):
            builds.append(args)
            init(self, *args)

        monkeypatch.setattr(perm.StabilizerChain, "__init__", counting_init)
        H = G.subgroup([parse_permutation("(0 1 2 3)", 4)])
        K = H.subgroup([parse_permutation("(0 2)(1 3)", 4)])
        assert K._ambient is G
        assert (H.order(), K.order()) == (4, 2)
        assert K.contains(parse_permutation("(0 2)(1 3)", 4))
        assert builds == []

    def test_listed_normal_closure_builds_one_group(self, monkeypatch):
        G = symmetric_group(4)
        G.elements()
        built = []
        init = PermutationGroup._init

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(PermutationGroup, "_init", counting_init)
        N = normal_closure(G, [parse_permutation("(0 1)(2 3)", 4)])
        assert len(N.generators) == 2  # two accepted generators
        assert N.order() == 4 and len(built) == 1

    def test_listed_normal_closure_reads_only_built_conj_columns(self):
        G = symmetric_group(4)
        G.elements()
        seed = [parse_permutation("(0 1)(2 3)", 4)]
        cold = normal_closure(G, seed)
        assert G.memo("conj", dict) == {}  # a column costs |G| conjugations
        conjugacy_classes(G)  # builds the columns of G's generators
        assert set(G.memo("conj", dict)) == {g.images for g in G.generators}
        warm = normal_closure(G, seed)
        assert warm.generators == cold.generators and warm.order() == 4

    def test_an_unlisted_normal_closure_builds_one_chain(self, monkeypatch):
        G = regular_wreath(resolve_group_name("A5"),
                           resolve_group_name("C2")).product
        G.chain()  # the seed check reads G's own chain
        builds = []
        init = perm.StabilizerChain.__init__

        def counting_init(self, *args):
            builds.append(args)
            init(self, *args)

        monkeypatch.setattr(perm.StabilizerChain, "__init__", counting_init)
        D = derived_subgroup(G)  # A5 x A5
        assert D.order() == 3600 and len(builds) == 1
        assert G._elements is None and D._elements is None
        monkeypatch.undo()
        assert chain_shape(D.chain()) == chain_shape(
            perm.StabilizerChain(D.degree, D.generators))

    def test_radical_of_a_solvable_group_checks_no_closure(self,
                                                           monkeypatch):
        S4 = resolve_group_name("S4")
        G = PermutationGroup(S4.degree, S4.generators)
        checked = []
        check = structure.is_solvable

        def counting_check(H):
            checked.append(H)
            return check(H)

        monkeypatch.setattr(structure, "is_solvable", counting_check)
        assert solvable_radical(G).order() == 24
        assert len(checked) == 1 and checked[0] is G

    def test_queries_before_the_root_is_listed_use_the_chain(self,
                                                             monkeypatch):
        G = symmetric_group(4)
        builds = []
        init = perm.StabilizerChain.__init__

        def counting_init(self, *args):
            builds.append(args)
            init(self, *args)

        monkeypatch.setattr(perm.StabilizerChain, "__init__", counting_init)
        H = G.subgroup([parse_permutation("(0 1 2 3)", 4)])
        assert H.order() == 4 and len(builds) == 1  # H's own chain
        G.elements()
        assert len(builds) == 2  # G's chain lists G
        assert H.contains(parse_permutation("(0 2)(1 3)", 4))
        assert not H.contains(parse_permutation("(0 1)", 4))
        assert len(builds) == 2

    def test_contains_checks_the_degree(self):
        G = symmetric_group(3)
        G.elements()
        H = G.subgroup([parse_permutation("(0 1 2)", 3)])
        with pytest.raises(DegreeMismatch):
            H.contains(parse_permutation("(0 1 2)", 4))
