import pytest

from vlab.config import Budgets
from vlab.errors import BudgetExceeded, GroupError
from vlab.perm import (alternating_group, cyclic_group, dihedral_group,
                       parse_permutation, symmetric_group, trivial_group)
from vlab.constructions import (direct_power, direct_product,
                                kaloujnine_krasner, regular_wreath)
from vlab.structure import is_normal, normal_subgroups, subgroup_intersection
from vlab.catalog import bundled_catalog, resolve_group_name

from tests.conftest import element_order_profile


class TestDirectPower:
    def test_orders(self):
        assert direct_power(alternating_group(4), 2).product.order() == 144
        assert direct_power(cyclic_group(5), 1).product.order() == 5

    def test_elementary_abelian(self):
        cube = direct_power(cyclic_group(2), 3).product
        assert cube.order() == 8
        assert all(g.order() <= 2 for g in cube.elements())

    def test_embeddings_commute_pointwise(self):
        ctx = direct_power(symmetric_group(3), 2)
        a = ctx.embed(0, parse_permutation("(0 1)", 3))
        b = ctx.embed(1, parse_permutation("(0 1 2)", 3))
        assert a * b == b * a
        assert ctx.component(a * b, 0) == parse_permutation("(0 1)", 3)
        assert ctx.component(a * b, 1) == parse_permutation("(0 1 2)", 3)

    def test_power_subgroup(self):
        s3 = symmetric_group(3)
        ctx = direct_power(s3, 3)
        a3 = s3.subgroup([parse_permutation("(0 1 2)", 3)])
        power = ctx.power_subgroup(a3)
        assert power.order() == 27

    def test_direct_product(self):
        g = direct_product(symmetric_group(3), cyclic_group(4))
        assert g.order() == 24
        assert g.degree == 7


class TestRegularWreath:
    @pytest.mark.parametrize("a,b,order,degree", [
        ("C2", "C2", 8, 4),
        ("C2", "C3", 24, 6),
        ("C3", "C2", 18, 6),
        ("A5", "C2", 7200, 10),
        ("C2", "C4", 64, 8),
    ])
    def test_order_formula(self, a, b, order, degree):
        A, B = resolve_group_name(a), resolve_group_name(b)
        w = regular_wreath(A, B)
        assert w.product.order() == A.order() ** B.order() * B.order() == order
        assert w.product.degree == degree

    def test_trivial_top_is_bottom(self):
        a4 = alternating_group(4)
        w = regular_wreath(a4, trivial_group(1))
        assert w.product.order() == 12
        assert w.product.degree == 4

    def test_c2_wr_c2_is_dihedral(self):
        w = regular_wreath(cyclic_group(2), cyclic_group(2)).product
        assert w.order() == 8
        assert not w.is_abelian()
        assert element_order_profile(w) == \
            element_order_profile(dihedral_group(4))

    def test_base_is_normal_top_complements(self):
        for a, b in (("C2", "C2"), ("C3", "C2"), ("S3", "C2"), ("C2", "C4")):
            w = regular_wreath(resolve_group_name(a), resolve_group_name(b))
            base = w.base_subgroup()
            top = w.product.subgroup(
                [w.top_element(b) for b in w.top_original.generators])
            assert is_normal(w.product, base)
            assert base.order() == w.bottom.order() ** w.block_count
            assert subgroup_intersection(w.product, base, top).order() == 1
            # together they generate the product
            joint = w.product.subgroup(
                list(base.generators) + list(top.generators))
            assert joint.order() == w.product.order()

    def test_element_and_decompose_roundtrip(self):
        w = regular_wreath(symmetric_group(3), cyclic_group(3))
        b = cyclic_group(3).generators[0]
        values = {0: parse_permutation("(0 1)", 3),
                  2: parse_permutation("(0 1 2)", 3)}
        ident = symmetric_group(3).identity()
        elem = w.element(b, lambda c: values.get(c, ident))
        shift, base_values = w.decompose(elem)
        assert shift == w.regular_of[b.images]
        assert base_values[0] == values[0]
        assert base_values[1] == ident
        assert base_values[2] == values[2]

    def test_wreath_subgroup_order(self, a5, a4_in_a5):
        w = regular_wreath(a5, cyclic_group(2))
        inner = a5.subgroup([parse_permutation("(0 1 2)", 5),
                             parse_permutation("(0 1)(2 3)", 5)])
        sub = w.wreath_subgroup(inner)
        assert sub.order() == 12 ** 2 * 2
        power = w.base_power_subgroup(inner)
        assert power.order() == 144

    def test_top_budget(self):
        with pytest.raises(BudgetExceeded):
            regular_wreath(cyclic_group(2), symmetric_group(4),
                           Budgets(max_wreath_top=12))

    def test_product_rule_matches_composition(self):
        # the elementwise constructor is a homomorphism for the documented
        # multiplication rule
        w = regular_wreath(symmetric_group(3), cyclic_group(3))
        import random
        rng = random.Random(3)
        s3 = symmetric_group(3)
        c3 = cyclic_group(3)
        for _ in range(25):
            b1, b2 = c3.random_element(rng), c3.random_element(rng)
            f1 = [s3.random_element(rng) for _ in range(3)]
            f2 = [s3.random_element(rng) for _ in range(3)]
            e1 = w.element(b1, lambda c: f1[c])
            e2 = w.element(b2, lambda c: f2[c])
            r1 = w.regular_of[b1.images]
            product_fn = [f1[c] * f2[r1.images[c]] for c in range(3)]
            expected = w.element(b1 * b2, lambda c: product_fn[c])
            assert e1 * e2 == expected


class TestKaloujnineKrasner:
    def test_c4_over_c2(self, c4, c2_in_c4):
        hom, w, q = kaloujnine_krasner(c4, c2_in_c4)
        assert w.product.order() == 8
        assert hom.image().order() == 4
        assert hom.is_injective()
        # image is cyclic: generated by one element of order 4
        assert len(hom.generator_images) == 1
        assert hom.generator_images[0].order() == 4

    def test_whole_group_over_itself(self):
        s3 = symmetric_group(3)
        hom, w, q = kaloujnine_krasner(s3, s3)
        assert q.group.order() == 1
        assert hom.image().order() == 6

    def test_s3_over_a3(self):
        s3 = symmetric_group(3)
        a3 = s3.subgroup([parse_permutation("(0 1 2)", 3)])
        hom, w, q = kaloujnine_krasner(s3, a3)
        assert w.product.order() == 18
        assert hom.image().order() == 6
        assert hom.is_injective()

    def test_rejects_non_normal(self):
        s3 = symmetric_group(3)
        with pytest.raises(GroupError):
            kaloujnine_krasner(s3, s3.subgroup([parse_permutation("(0 1)", 3)]))

    def test_oracle_on_the_small_catalog(self):
        # every catalog E of order <= 16 over every normal A of index <= 12:
        # each generator image has all its base values in A, the map is a
        # homomorphism into the wreath product and injective, and the
        # quotient has order |E|/|A|
        pairs = 0
        for E in bundled_catalog():
            if E.order() > 16:
                continue
            for A in normal_subgroups(E):
                if E.order() // A.order() > 12:
                    continue
                hom, w, q = kaloujnine_krasner(E, A)
                for image in hom.generator_images:
                    _, values = w.decompose(image)
                    assert all(A.contains(v) for v in values), E.name
                assert hom.is_well_defined(), E.name
                assert hom.is_injective(), E.name
                assert q.group.order() * A.order() == E.order(), E.name
                pairs += 1
        assert pairs == 346

    def test_transversal_choice_gives_conjugate_image(self):
        # perturbing the transversal by kernel elements yields an embedding
        # with the same order and order profile
        s3 = symmetric_group(3)
        a3 = s3.subgroup([parse_permutation("(0 1 2)", 3)])
        hom, w, q = kaloujnine_krasner(s3, a3)
        reps = list(q.coset_reps)
        twist = parse_permutation("(0 1 2)", 3)
        reps2 = [reps[0]] + [r * twist for r in reps[1:]]
        block_to_coset = [qe.images[0] for qe in w.top_elements]

        def embed(e):
            pe = q.projection.apply(e)

            def base_fn(block):
                c = block_to_coset[block]
                return reps2[c] * e * reps2[pe.images[c]].inverse()

            return w.element(pe, base_fn)

        images = [embed(g) for g in s3.generators]
        other = w.product.subgroup(images)
        assert other.order() == 6
        assert element_order_profile(other) == \
            element_order_profile(hom.image())
