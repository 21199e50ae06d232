import copy
import pickle
import random
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import chain_shape, mulclose
from vlab import homs, perm
from vlab.catalog import bundled_catalog
from vlab.config import DEFAULT_BUDGETS
from vlab.constructions import regular_wreath
from vlab.errors import (BudgetExceeded, DegreeMismatch, GroupError,
                         ParseError)
from vlab.perm import (Permutation, PermutationGroup, StabilizerChain,
                       alternating_group, cyclic_group, dihedral_group,
                       named_group, parse_permutation, symmetric_group,
                       trivial_group)


def perm_strategy(degree):
    return st.permutations(range(degree)).map(
        lambda images: Permutation(tuple(images)))


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(GroupError):
            Permutation((0, 0, 1))

    def test_compose_left_to_right(self):
        p = parse_permutation("(0 1)", 3)
        q = parse_permutation("(1 2)", 3)
        assert (p * q).apply(0) == q.apply(p.apply(0)) == 2

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            parse_permutation("(0 1)", 2) * parse_permutation("(0 1)", 3)

    @given(perm_strategy(6), perm_strategy(6))
    def test_inverse_antihomomorphism(self, p, q):
        assert (p * q).inverse() == q.inverse() * p.inverse()

    @given(perm_strategy(6))
    def test_inverse_cancels(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @given(perm_strategy(5), st.integers(-6, 6))
    def test_power_matches_repeated_product(self, p, n):
        expected = Permutation.identity(5)
        step = p if n >= 0 else p.inverse()
        for _ in range(abs(n)):
            expected = expected * step
        assert p ** n == expected

    @pytest.mark.parametrize("n", range(70))
    def test_power_squares_only_while_bits_remain(self, n):
        # a product that adds: x ** n is n * x, and the products are counted
        products = []

        class Tally:
            def __init__(self, value):
                self.value = value

            def __mul__(self, other):
                products.append(1)
                return Tally(self.value + other.value)

        assert perm.power(Tally(3), n, Tally(0)).value == 3 * n
        squarings = max(n.bit_length() - 1, 0)
        assert len(products) == squarings + bin(n).count("1")

    def test_order_from_cycle_type(self):
        assert parse_permutation("(0 1 2)(3 4)", 5).order() == 6
        assert Permutation.identity(4).order() == 1

    def test_conjugation_notation(self):
        p = parse_permutation("(0 1)", 3)
        g = parse_permutation("(0 1 2)", 3)
        assert p ** g == g.inverse() * p * g

    def test_cycle_roundtrip(self):
        for text in ["(0 1 2 3 4)(5 6)", "(1 4)", "()"]:
            p = parse_permutation(text, 7)
            assert parse_permutation(str(p), 7) == p

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError):
            parse_permutation("(0 1) junk", 3)
        with pytest.raises(ParseError):
            parse_permutation("(0 x)", 3)

    def test_parse_repeated_point_rejected(self):
        with pytest.raises(GroupError):
            parse_permutation("(0 1 0)", 3)


def fresh_cycle_string(p):
    cycles = p.cycles()
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()"


class TestCycleStringKeptOnce:
    @given(perm_strategy(6), perm_strategy(6))
    def test_string_is_the_fresh_cycle_string(self, p, q):
        kinds = [p, Permutation._trusted(q.images), Permutation.identity(6),
                 p * q, p.inverse()]
        for r in kinds:
            for _ in range(2):
                assert str(r) == fresh_cycle_string(r)
                assert parse_permutation(str(r), 6) == r

    @given(perm_strategy(5), perm_strategy(5))
    def test_asking_for_the_string_changes_no_comparison(self, p, q):
        asked = [p, q, p * q]
        for r in asked:
            str(r)
        plain = [Permutation(r.images) for r in asked]
        # compare before anything asks the plain copies for their strings
        for r, v in zip(asked, plain):
            assert r == v and hash(r) == hash(v)
        assert sorted(asked) == sorted(plain)
        assert ([r < s for r in asked for s in plain]
                == [r < s for r in plain for s in plain])
        assert len(set(asked) | set(plain)) == len(set(plain))
        for r, v in zip(asked, plain):
            for clone in (copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
                assert clone == v and hash(clone) == hash(v)
                assert str(clone) == fresh_cycle_string(v)
            assert repr(r) == repr(v)


CATALOG_UP_TO_24 = [G for G in bundled_catalog() if G.order() <= 24]


@pytest.mark.parametrize("G", CATALOG_UP_TO_24, ids=lambda G: G.name)
def test_conjugation_is_inverse_product_product(G):
    elements = G.elements()
    for p in elements:
        for g in elements:
            assert p ** g == g.inverse() * p * g


def test_conjugation_checks_degrees():
    with pytest.raises(DegreeMismatch):
        parse_permutation("(0 1)", 2) ** parse_permutation("(0 1)", 3)


class TestStabilizerChain:
    # the exhaustive closure is the independent order oracle
    @pytest.mark.parametrize("group,expected", [
        (alternating_group(5), 60),
        (symmetric_group(4), 24),
        (symmetric_group(5), 120),
        (dihedral_group(6), 12),
        (cyclic_group(12), 12),
        (trivial_group(3), 1),
    ])
    def test_order_matches_mulclose(self, group, expected):
        assert group.order() == expected
        assert len(mulclose(list(group.generators))) == expected

    def test_order_oracle_on_catalog(self):
        from vlab.catalog import bundled_catalog
        for g in bundled_catalog():
            if g.order() <= 2000:
                assert len(mulclose(list(g.generators))) == g.order(), g.name

    def test_contains(self, a5):
        assert parse_permutation("(0 1)", 5) not in a5
        assert a5.identity() in a5
        assert parse_permutation("(0 1)(2 3)", 5) in a5

    def test_contains_by_enumeration_oracle(self):
        a4 = alternating_group(4)
        elements = set(mulclose(list(a4.generators)))
        for p in mulclose(list(symmetric_group(4).generators)):
            assert a4.contains(p) == (p in elements)

    def test_contains_degree_mismatch(self, a5):
        with pytest.raises(DegreeMismatch):
            a5.contains(parse_permutation("(0 1)", 4))

    def test_contains_degree_mismatch_on_an_unlisted_group(self):
        G = PermutationGroup(3, [parse_permutation("(0 1 2)", 3)])
        with pytest.raises(DegreeMismatch):
            G.contains(parse_permutation("(0 1)", 4))
        assert G._elements is None  # the chain, not a listing, refused it

    def test_elements_sorted_and_complete(self):
        s3 = symmetric_group(3)
        elems = s3.elements()
        assert list(elems) == sorted(elems)
        assert len(elems) == 6
        assert elems[0].is_identity()
        assert set(elems) == set(mulclose(list(s3.generators)))

    def test_chain_is_deterministic(self):
        g1 = alternating_group(5)
        g2 = alternating_group(5)
        assert g1.chain().base == g2.chain().base
        assert [sorted(l.transversal) for l in g1.chain().levels] == \
               [sorted(l.transversal) for l in g2.chain().levels]

    def test_a_build_stops_once_its_work_passes_the_cap(self, monkeypatch):
        # work sums orbit size x level generators x degree over adjoins
        gens = symmetric_group(8).generators
        work = StabilizerChain(8, gens).work
        monkeypatch.setattr(perm, "MAX_CHAIN_WORK", work)
        assert StabilizerChain(8, gens).order() == 40320
        monkeypatch.setattr(perm, "MAX_CHAIN_WORK", work - 1)
        with pytest.raises(BudgetExceeded, match="max_chain_work"):
            StabilizerChain(8, gens)

    def test_random_element_is_member(self, a5):
        import random
        rng = random.Random(7)
        for _ in range(20):
            assert a5.contains(a5.random_element(rng))


def reference_chain(degree, generators):
    """The plain deterministic Schreier-Sims on Permutation objects, which
    sifts every Schreier generator on every rebuild of its level.

    Returns (levels, sifts): each level has the `point`, `gens` and
    `transversal` of a StabilizerChain level, and sifts counts the sifts."""
    levels = []
    sifts = 0

    def sift_from(start, p):
        nonlocal sifts
        sifts += 1
        return reference_sift(levels[start:], p)

    def add_generator(i, g):
        if i == len(levels):
            levels.append(SimpleNamespace(point=min(g.moved_points()),
                                          gens=[], transversal={}))
        lvl = levels[i]
        lvl.gens.append(g)
        transversal = {lvl.point: Permutation.identity(degree)}
        queue = deque([lvl.point])
        while queue:
            p = queue.popleft()
            u = transversal[p]
            for s in lvl.gens:
                q = s.images[p]
                if q not in transversal:
                    transversal[q] = u * s
                    queue.append(q)
        lvl.transversal = transversal
        for p in sorted(transversal):
            u = transversal[p]
            for s in lvl.gens:
                schreier = u * s * transversal[s.images[p]].inverse()
                if schreier.is_identity():
                    continue
                residue = sift_from(i + 1, schreier)
                if not residue.is_identity():
                    add_generator(i + 1, residue)

    for g in generators:
        if not g.is_identity():
            add_generator(0, g)
    return levels, sifts


def reference_sift(levels, p):
    """The residue of the Permutation p sifted through the reference
    levels: the identity iff p lies in their group."""
    for lvl in levels:
        x = p.images[lvl.point]
        if x == lvl.point:
            continue
        u = lvl.transversal.get(x)
        if u is None:
            return p
        p = p * u.inverse()
    return p


def reference_random_elements(levels, degree, rng, count):
    """PermutationGroup.random_element's draws, read off the given levels."""
    draws = []
    for _ in range(count):
        g = Permutation.identity(degree)
        for lvl in levels:
            g = g * lvl.transversal[rng.choice(sorted(lvl.transversal))]
        draws.append(g)
    return draws


def random_subgroup(G, rng):
    """The subgroup generated by one to four random words in G's
    generators, so that drawing it needs no stabilizer chain."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        g = G.identity()
        for _ in range(rng.randint(1, 8)):
            g = g * rng.choice(G.generators)
        gens.append(g)
    return G.subgroup(gens)


def random_group(n, rng):
    return PermutationGroup(n, [Permutation(tuple(rng.sample(range(n), n)))
                                for _ in range(3)])


def oracle_cases():
    """(id, build) for every catalog group and four seeded random subgroups
    of each, S_n and A_n for n <= 10, ten seeded random 3-generator
    subgroups of S_n for each 4 <= n <= 9, and the regular wreaths of small
    catalog pairs.  Random generators make a level's orbit grow over
    several adjoins, which is where a wrong skip of a Schreier pair shows.
    Each group is built inside its test, so a faulty chain fails the test
    rather than the collection."""
    catalog = bundled_catalog()
    cases = []
    for G in catalog:
        cases.append((G.name, lambda G=G: G))
        cases += [(f"{G.name}-sub{k}", lambda G=G, k=k: random_subgroup(
            G, random.Random(f"{G.name}-{k}"))) for k in range(4)]
    for n in range(2, 11):
        cases += [(f"S{n}", lambda n=n: symmetric_group(n)),
                  (f"A{n}", lambda n=n: alternating_group(n))]
    for n in range(4, 10):
        cases += [(f"S{n}-rand{k}", lambda n=n, k=k: random_group(
            n, random.Random(f"S{n}-{k}"))) for k in range(10)]
    small = [G for G in catalog if 1 < G.order() <= 6]
    cases += [(f"{A.name}wr{B.name}", lambda A=A, B=B: regular_wreath(
        A, B).product) for A in small for B in small if B.order() <= 4]
    # the groups whose levels take the most adjoins, on shuffled points so
    # that the base is not 0, 1, 2, ...
    named = {G.name: G for G in catalog}
    large = [(f"S{n}", lambda n=n: symmetric_group(n)) for n in (11, 12)]
    large += [(f"A{n}", lambda n=n: alternating_group(n)) for n in (11, 12)]
    large += [(f"{a}wr{b}", lambda a=a, b=b: regular_wreath(
        named[a], named[b]).product) for a, b in LARGE_WREATHS]
    cases += [(f"{name}-relabelled", lambda name=name, build=build: relabelled(
        build(), random.Random(name))) for name, build in large]
    return cases


# regular wreaths of degree 12 to 24 from the constructions pool, and C2 wr D4
LARGE_WREATHS = [("S3", "C4"), ("S3", "S3"), ("D4", "S3"), ("A4", "S3"),
                 ("C2", "D4"), ("C4", "C4"), ("C2^2", "S3"), ("C5", "C4")]


def relabelled(G, rng):
    """G with its points renamed by a seeded random permutation."""
    sigma = Permutation(tuple(rng.sample(range(G.degree), G.degree)))
    return PermutationGroup(G.degree, [g ** sigma for g in G.generators])


ORACLE_CASES = oracle_cases()


def orbit(point, gens):
    """The orbit of point under the image tuples gens, by a plain
    breadth-first search over points."""
    found, queue = {point}, deque([point])
    while queue:
        x = queue.popleft()
        for s in gens:
            if s[x] not in found:
                found.add(s[x])
                queue.append(s[x])
    return found


def then(a, b):
    """The image tuple of a followed by b."""
    return tuple(b[x] for x in a)


class TestChainMatchesTheReference:
    # the chain need not keep the plain algorithm's transversals, so each
    # level is checked against its definition, and the group it holds
    # against the plain algorithm's order and membership

    @pytest.mark.parametrize("build", [b for _, b in ORACLE_CASES],
                             ids=[name for name, _ in ORACLE_CASES])
    def test_a_valid_chain_of_the_same_group(self, build):
        G = build()
        n = G.degree
        levels, _ = reference_chain(n, G.generators)
        chain = StabilizerChain(n, G.generators)
        order = 1
        for lvl in levels:
            order *= len(lvl.transversal)
        assert chain.order() == order
        identity = tuple(range(n))
        for i, lvl in enumerate(chain.levels):
            gens = [s for s, _ in lvl.gens]
            assert all(s[b] == b for s in gens for b in chain.base[:i])
            assert all(then(s, s_inv) == identity for s, s_inv in lvl.gens)
            assert set(lvl.transversal) == orbit(lvl.point, gens)
            assert set(lvl.inverses) == set(lvl.transversal)
            for q, u in lvl.transversal.items():
                assert u[lvl.point] == q
                assert then(u, lvl.inverses[q]) == identity
        rng = random.Random(7)
        draws = [G.random_element(rng) for _ in range(6)]
        assert all(reference_sift(levels, g).is_identity() for g in draws)
        members = reference_random_elements(levels, n, rng, 6)
        strangers = [Permutation(tuple(rng.sample(range(n), n)))
                     for _ in range(6)]
        probes = [*members, *(m * t for m in members for t in strangers),
                  *strangers]
        assert [chain.contains(p) for p in probes] == [
            reference_sift(levels, p).is_identity() for p in probes]
        assert (chain_shape(StabilizerChain(n, G.generators))
                == chain_shape(chain))

    def test_known_members_are_not_sifted_again(self, monkeypatch):
        S8 = symmetric_group(8)
        _, reference_sifts = reference_chain(8, S8.generators)
        calls = 0
        sift_from = StabilizerChain._sift_from

        def counting(self, start, p):
            nonlocal calls
            calls += 1
            return sift_from(self, start, p)

        monkeypatch.setattr(StabilizerChain, "_sift_from", counting)
        chain = StabilizerChain(8, S8.generators)
        assert chain.order() == 40320
        assert 0 < calls < reference_sifts

    @pytest.mark.parametrize("build,sifts,tuples", [
        (lambda: symmetric_group(8), 28, 147),
        (lambda: regular_wreath(named_group("S3"), named_group("S3")).product,
         66, 342)], ids=["S8", "S3wrS3"])
    def test_an_adjoin_makes_only_the_new_tuples(self, monkeypatch, build,
                                                 sifts, tuples):
        # an adjoin makes each new transversal value and its inverse once
        # and sifts only the new Schreier pairs; the chain holds image
        # tuples only, so its build wraps no Permutation
        G = build()
        counts = {"sift": 0, "tuple": 0, "trusted": 0}
        sift_from = StabilizerChain._sift_from
        trusted = Permutation._trusted

        def counting_sift(self, start, p):
            counts["sift"] += 1
            return sift_from(self, start, p)

        def counting_tuple(*args):
            counts["tuple"] += 1
            return tuple(*args)

        def counting_trusted(images):
            counts["trusted"] += 1
            return trusted(images)

        monkeypatch.setattr(StabilizerChain, "_sift_from", counting_sift)
        monkeypatch.setattr(Permutation, "_trusted",
                            staticmethod(counting_trusted))
        # every image tuple perm.py makes goes through its global `tuple`
        monkeypatch.setattr(perm, "tuple", counting_tuple, raising=False)
        chain = StabilizerChain(G.degree, G.generators)
        monkeypatch.undo()
        assert chain.order() == G.order()
        assert counts["sift"] == sifts and counts["tuple"] == tuples
        assert counts["trusted"] == 0


class TestNamedConstructors:
    @pytest.mark.parametrize("name,order", [
        ("C7", 7), ("S4", 24), ("A4", 12), ("D6", 12), ("D2", 4),
        ("D1", 2), ("V5", 1), ("A2", 1), ("C1", 1),
    ])
    def test_orders(self, name, order):
        assert named_group(name).order() == order

    def test_dihedral_is_nonabelian_for_n_at_least_3(self):
        assert not dihedral_group(4).is_abelian()
        assert dihedral_group(2).is_abelian()

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            named_group("X9")

    def test_group_generator_degree_checked(self):
        with pytest.raises(DegreeMismatch):
            PermutationGroup(3, [parse_permutation("(0 1)", 2)])


class TestValidationAtTheBoundary:
    @pytest.mark.parametrize("images", [(0, 0, 1), (1, 2), (0, 1, 3)])
    def test_constructor_rejects_non_permutations(self, images):
        with pytest.raises(GroupError):
            Permutation(images)

    @pytest.mark.parametrize("cycles", [[[0, 1, 0]], [[2, 2]],
                                        [[0, 1], [1, 2]]])
    def test_from_cycles_rejects_a_repeated_point(self, cycles):
        with pytest.raises(GroupError):
            Permutation.from_cycles(4, cycles)

    @pytest.mark.parametrize("cycles", [[[0, 3]], [[2, -1]], [[4]]])
    def test_from_cycles_rejects_a_point_outside_the_degree(self, cycles):
        with pytest.raises(GroupError):
            Permutation.from_cycles(3, cycles)

    @pytest.mark.parametrize("text", [
        "(0 1", "0 1)", "((0 1))", "(0 1)(2 3", "(0 1.5)", "[0 1]", "(0 -1)",
    ])
    def test_parse_rejects_malformed_text(self, text):
        with pytest.raises(ParseError):
            parse_permutation(text, 4)

    @given(perm_strategy(7), perm_strategy(7))
    @settings(max_examples=200)
    def test_products_and_inverses_match_validated_values(self, p, q):
        results = [p * q, q * p, p.inverse(), (p * q).inverse(),
                   Permutation.identity(7)]
        rebuilt = [Permutation(r.images) for r in results]
        for r, v in zip(results, rebuilt):
            assert type(r) is Permutation
            assert sorted(r.images) == list(range(7))
            assert r == v and hash(r) == hash(v)
        assert sorted(results) == sorted(rebuilt)
        assert sorted(results, reverse=True) == sorted(rebuilt, reverse=True)
        assert (p * q).images == tuple(q.images[i] for i in p.images)


def fresh(G):
    """A copy of G with no listing and no columns yet."""
    return PermutationGroup(G.degree, G.generators, name=G.name)


def column_cases():
    """(id, build) for every catalog group and three seeded relabellings
    of S4, A5 and C2wrC2wrC2, each a fresh copy."""
    named = {G.name: G for G in bundled_catalog()}
    cases = [(name, lambda G=G: fresh(G)) for name, G in named.items()]
    cases += [(f"{name}-relabelled{k}",
               lambda name=name, k=k: relabelled(named[name], random.Random(
                   f"{name}-{k}")))
              for name in ("S4", "A5", "C2wrC2wrC2") for k in range(3)]
    return cases


COLUMN_CASES = column_cases()


class TestMultiplicationColumns:
    # the columns are composed along a breadth-first tree; the oracle
    # multiplies the permutations

    @pytest.mark.parametrize("build", [b for _, b in COLUMN_CASES],
                             ids=[name for name, _ in COLUMN_CASES])
    @pytest.mark.parametrize("ascending", [True, False])
    def test_every_column_is_the_product_column(self, build, ascending):
        G = build()
        elements, index, col = G.indexed()
        n = len(elements)
        for j in (range(n) if ascending else reversed(range(n))):
            assert col(j) == [index[(elements[x] * elements[j]).images]
                              for x in range(n)]

    def test_a_deep_column_is_built_from_tuples(self, monkeypatch):
        # S5's tree on two generators is deeper than its degree 5: a column
        # more than 5 steps below every built one is built from tuples, the
        # others are composed
        built = []
        from_tuples = perm._Columns._from_tuples

        def counting(columns, j):
            built.append(j)
            return from_tuples(columns, j)

        monkeypatch.setattr(perm._Columns, "_from_tuples", counting)
        G = fresh(symmetric_group(5))
        _, _, col = G.indexed()
        for j in reversed(range(120)):
            col(j)
        assert len(G.generators) < len(built) < 120
        assert len(col.__self__) == 120

    def test_a_call_adds_at_most_one_column(self):
        G = fresh(next(G for G in bundled_catalog()
                       if G.name == "C2wrC2wrC2"))  # of order 128
        elements, _, col = G.indexed()
        order = list(range(len(elements)))
        random.Random(3).shuffle(order)
        col(order[0])  # builds the tree and the generators' columns
        assert len(col.__self__) <= len(G.generators) + 1
        for j in order[1:]:
            before = len(col.__self__)
            col(j)
            assert len(col.__self__) - before <= 1

    def test_a_tree_deeper_than_the_recursion_limit_composes_in_a_loop(self):
        # C1500's tree is a path: its last position is 1,499 steps deep
        G = cyclic_group(1500)
        _, _, col = G.indexed()
        assert col(1499) == [(x + 1499) % 1500 for x in range(1500)]
        assert sorted(col.__self__) == [1, 1499]

    @pytest.mark.parametrize("G", bundled_catalog(), ids=lambda G: G.name)
    def test_the_cayley_walk_is_the_breadth_first_walk(self, G):
        G = fresh(G)
        _, index, col = G.indexed()
        cols = [col(index[g.images]) for g in G.generators]
        queue, seen, edges = [0], {0}, []
        for x in queue:
            for k, c in enumerate(cols):
                y = c[x]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
                edges.append((x, k, y))
        assert homs._cayley_walk(G, DEFAULT_BUDGETS)[2] == edges
