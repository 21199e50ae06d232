import random

import pytest

from vlab.errors import GroupError
from vlab.perm import alternating_group, parse_permutation, symmetric_group
from vlab.wreath_z import (TailConstantFn, WreathZElement, depth2_witness,
                           solve_commutator, verify_commutator_solution,
                           wz_commutator, wz_inverse, wz_multiply)

S3 = symmetric_group(3)


def random_fn(rng, G, spread=4, entries=3):
    support = {rng.randint(-spread, spread): G.random_element(rng)
               for _ in range(rng.randint(0, entries))}
    if not support:
        return TailConstantFn.constant(G, G.random_element(rng))
    return TailConstantFn.make(G, support)


def random_element(rng, G):
    return WreathZElement(rng.randint(-3, 3), random_fn(rng, G))


class TestTailConstantFn:
    def test_point_mass_values(self):
        g = parse_permutation("(0 1 2)", 3)
        fn = TailConstantFn.make(S3, {2: g})
        assert fn.value(2) == g
        assert fn.value(1).is_identity()
        assert fn.value(100).is_identity()
        assert fn.value(-50).is_identity()

    def test_canonical_window_is_tight(self):
        g = parse_permutation("(0 1)", 3)
        e = S3.identity()
        fn = TailConstantFn.make(S3, {0: e, 1: g, 2: e, 3: e})
        assert (fn.lo, fn.hi) == (1, 1)

    def test_constant_normalizes_to_empty_window(self):
        g = parse_permutation("(0 1)", 3)
        fn = TailConstantFn.make(S3, {5: g}, left_tail=g, right_tail=g)
        assert (fn.lo, fn.hi) == (0, -1)
        assert fn == TailConstantFn.constant(S3, g)

    def test_step_function_keeps_position(self):
        g = parse_permutation("(0 1)", 3)
        e = S3.identity()
        fn = TailConstantFn.make(S3, {3: g}, left_tail=e, right_tail=g)
        assert fn.value(2).is_identity()
        assert fn.value(3) == g
        assert fn.value(99) == g
        # canonical: the empty window is positioned at the step
        assert (fn.lo, fn.hi) == (3, 2)

    def test_no_values_needs_equal_tails(self):
        g = parse_permutation("(0 1)", 3)
        fn = TailConstantFn.make(S3, {}, left_tail=g, right_tail=g)
        assert fn == TailConstantFn.constant(S3, g)
        assert TailConstantFn.make(S3, {}) == \
            TailConstantFn.constant(S3, S3.identity())
        with pytest.raises(GroupError, match="a two-tail step needs at "
                                             "least one window value"):
            TailConstantFn.make(S3, {}, left_tail=g)

    def test_pointwise_and_inverse_closure(self):
        rng = random.Random(11)
        for _ in range(200):
            f = random_fn(rng, S3)
            g = random_fn(rng, S3)
            prod = f.pointwise(g, lambda a, b: a * b)
            for n in range(-8, 8):
                assert prod.value(n) == f.value(n) * g.value(n)
            inv = f.inverted()
            for n in range(-8, 8):
                assert inv.value(n) == f.value(n).inverse()

    def test_shift(self):
        g = parse_permutation("(0 1)", 3)
        fn = TailConstantFn.make(S3, {1: g})
        shifted = fn.shift(3)  # n |-> value(n + 3)
        assert shifted.value(-2) == g
        assert shifted.value(1).is_identity()


class TestGroupStructure:
    def test_identity_and_inverses(self):
        rng = random.Random(5)
        for _ in range(300):
            a = random_element(rng, S3)
            assert wz_multiply(a, wz_inverse(a)).is_identity()
            assert wz_multiply(wz_inverse(a), a).is_identity()
            assert wz_multiply(WreathZElement.identity(S3), a) == a

    def test_associativity_on_random_triples(self):
        rng = random.Random(6)
        for _ in range(1000):
            a, b, c = (random_element(rng, S3) for _ in range(3))
            assert wz_multiply(wz_multiply(a, b), c) == \
                wz_multiply(a, wz_multiply(b, c))

    def test_mixed_base_groups_rejected(self):
        a = WreathZElement.identity(S3)
        b = WreathZElement.identity(alternating_group(4))
        with pytest.raises(GroupError):
            wz_multiply(a, b)

    @pytest.mark.parametrize("shift", [0, 2])
    def test_mixed_degrees_keep_their_message(self, shift):
        a = WreathZElement(shift, random_fn(random.Random(shift), S3))
        b = WreathZElement.identity(alternating_group(4))
        for x, y in ((a, b), (b, a)):
            with pytest.raises(GroupError, match="^mixed base groups$"):
                wz_multiply(x, y)
        with pytest.raises(GroupError, match="^mixed base groups$"):
            a.fn.pointwise(b.fn, lambda u, v: u * v)

    def test_shift_map_is_homomorphism_with_base_kernel(self):
        rng = random.Random(7)
        for _ in range(100):
            a, b = random_element(rng, S3), random_element(rng, S3)
            assert wz_multiply(a, b).shift == a.shift + b.shift
        # kernel: shift 0 elements are exactly the base functions
        base = WreathZElement.base(random_fn(rng, S3))
        assert base.shift == 0

    def test_conjugation_by_shift_translates(self):
        # the defining convention: conjugating a base function by the shift
        # generator moves value lookups one step left
        rng = random.Random(8)
        x = WreathZElement.shift_power(S3, 1)
        for _ in range(50):
            fn = random_fn(rng, S3)
            conj = wz_multiply(wz_multiply(wz_inverse(x),
                                           WreathZElement.base(fn)), x)
            assert conj.shift == 0
            for n in range(-8, 8):
                assert conj.fn.value(n) == fn.value(n - 1)

    def test_commutator_identity_with_shift(self):
        # [psi, x](n) = psi(n)^-1 psi(n-1)
        rng = random.Random(9)
        x = WreathZElement.shift_power(S3, 1)
        for _ in range(100):
            fn = random_fn(rng, S3)
            comm = wz_commutator(WreathZElement.base(fn), x)
            assert comm.shift == 0
            for n in range(-8, 8):
                assert comm.fn.value(n) == \
                    fn.value(n).inverse() * fn.value(n - 1)


class TestSolveCommutator:
    def test_point_mass_trace(self):
        # hand-traced: a point mass g at 0 with identity seed solves to
        # psi = g on all n < 0 and identity on n >= 0
        g = parse_permutation("(0 1 2)", 3)
        phi = TailConstantFn.make(S3, {0: g})
        psi = solve_commutator(phi)
        for n in range(-6, 0):
            assert psi.value(n) == g
        for n in range(0, 6):
            assert psi.value(n).is_identity()
        assert verify_commutator_solution(phi, psi)

    def test_identity_phi_constant_seed(self):
        s = parse_permutation("(0 1)", 3)
        phi = TailConstantFn.constant(S3, S3.identity())
        psi = solve_commutator(phi, seed=s)
        assert psi == TailConstantFn.constant(S3, s)
        assert verify_commutator_solution(phi, psi)

    def test_random_supports_verify(self):
        rng = random.Random(10)
        a4 = alternating_group(4)
        for _ in range(100):
            support = {rng.randint(-5, 5): a4.random_element(rng)
                       for _ in range(rng.randint(1, 5))}
            phi = TailConstantFn.make(a4, support)
            psi = solve_commutator(phi, seed=a4.random_element(rng))
            assert verify_commutator_solution(phi, psi)

    def test_seed_difference_is_constant(self):
        rng = random.Random(12)
        for _ in range(50):
            phi = random_fn(rng, S3)
            if not phi.has_identity_tails():
                phi = TailConstantFn.make(S3, {0: S3.random_element(rng)})
            s1, s2 = S3.random_element(rng), S3.random_element(rng)
            p1 = solve_commutator(phi, s1)
            p2 = solve_commutator(phi, s2)
            deltas = {p1.value(n) * p2.value(n).inverse()
                      for n in range(-9, 9)}
            assert len(deltas) == 1

    def test_rejects_nonidentity_tails(self):
        g = parse_permutation("(0 1)", 3)
        step = TailConstantFn.make(S3, {0: g}, left_tail=g,
                                   right_tail=S3.identity())
        with pytest.raises(GroupError):
            solve_commutator(step)


class TestCommutator:
    def test_three_random_pairs_match_the_defining_product(self):
        # [a, b] = a^-1 b^-1 a b
        rng = random.Random(15)
        for _ in range(3):
            a, b = random_element(rng, S3), random_element(rng, S3)
            manual = wz_multiply(
                wz_multiply(wz_multiply(wz_inverse(a), wz_inverse(b)), a), b)
            assert wz_commutator(a, b) == manual


class TestDepth2Witness:
    def test_point_mass(self):
        g = parse_permutation("(0 1)", 3)
        phi = TailConstantFn.make(S3, {0: g})
        report = depth2_witness(phi)
        assert report.verified
        assert "finite analogs" in report.note

    def test_support_three(self):
        rng = random.Random(16)
        support = {-1: S3.random_element(rng), 0: S3.random_element(rng),
                   2: S3.random_element(rng)}
        phi = TailConstantFn.make(S3, support)
        report = depth2_witness(phi, seed=S3.random_element(rng))
        assert report.verified
