import pytest

from vlab.engine import EngineContext
from vlab.errors import BudgetExceeded, GroupError
from vlab.perm import (Permutation, alternating_group, cyclic_group,
                       pad_permutation)
from vlab.words import Word, commutator_word

COMMUTATOR = commutator_word(Word.variable(1), Word.variable(2))  # [x1, x2]


def mulclose(generators, max_size: int = 2_000_000):
    """Exhaustive closure of a generator list; the order oracle for tests."""
    if not generators:
        raise GroupError("mulclose needs at least one permutation")
    elements = {g.images: g for g in generators}
    identity = Permutation.identity(generators[0].degree)
    elements[identity.images] = identity
    frontier = list(elements.values())
    while frontier:
        new = []
        for a in frontier:
            for g in generators:
                c = a * g
                if c.images not in elements:
                    elements[c.images] = c
                    new.append(c)
                    if len(elements) > max_size:
                        raise BudgetExceeded(
                            f"closure exceeded {max_size} elements",
                            budget_name="mulclose", limit=max_size)
        frontier = new
    return sorted(elements.values())


def chain_shape(chain):
    """Each level's base point, generator image tuples and transversal
    image tuples in point order."""
    return [(lvl.point, [s for s, _ in lvl.gens],
             sorted(lvl.transversal.items())) for lvl in chain.levels]


def element_order_profile(group, max_enumerate: int = 100_000):
    """Multiset of element orders: a cheap isomorphism fingerprint."""
    counts: dict[int, int] = {}
    for g in group.elements(max_enumerate):
        o = g.order()
        counts[o] = counts.get(o, 0) + 1
    return tuple(sorted(counts.items()))


@pytest.fixture(scope="session")
def ctx():
    return EngineContext.bundled()


@pytest.fixture(scope="session")
def a5():
    return alternating_group(5)


@pytest.fixture(scope="session")
def a4_in_a5(a5):
    gens = [pad_permutation(g, 5) for g in alternating_group(4).generators]
    return a5.subgroup(gens, name="A4<A5")


@pytest.fixture(scope="session")
def c4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def c2_in_c4(c4):
    return c4.subgroup([c4.generators[0] ** 2], name="C2<C4")
