"""`all_subgroups` against the plain layered closure it replaces.

The oracle extends every known subgroup H by every element e outside H;
`all_subgroups` skips the tries whose answer an earlier try already gave
(one e per double coset HeH and per cyclic subgroup <e>, all of <H, e> at
prime index, all of every found K > H at prime index, no extension of the
trivial subgroup) and stops each closure
at the Lagrange bound.  Both must return the same subgroups with the same
generator tuples in the same order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from vlab.catalog import bundled_catalog, resolve_group_name
from vlab import perm, structure
from vlab.perm import Permutation, PermutationGroup, alternating_group
from vlab.structure import all_subgroups


def layered_closure(G):
    """Cyclic subgroups, then one extension per (H, e) with e outside H."""
    elements = G.elements()
    found = {}

    def add(H):
        key = frozenset(g.images for g in H.elements())
        if key in found:
            return False
        found[key] = H
        return True

    add(G.subgroup([G.identity()]))
    for e in elements:
        add(G.subgroup([e]))
    frontier = list(found.values())
    while frontier:
        new = []
        for H in frontier:
            h_key = frozenset(g.images for g in H.elements())
            for e in elements:
                if e.images in h_key:
                    continue
                extended = G.subgroup(list(H.generators) + [e])
                if add(extended):
                    new.append(extended)
        frontier = new
    return sorted(found.values(),
                  key=lambda H: (H.order(),
                                 min(g.images for g in H.generators)))


def lattice_signature(subgroups):
    return [(H.order(), tuple(g.images for g in H.generators))
            for H in subgroups]


def relabelled(G, sigma):
    return PermutationGroup(G.degree, [g ** sigma for g in G.generators],
                            name=f"{G.name}^sigma")


SMALL = [G for G in bundled_catalog() if G.order() <= 24]
SL23_RELABELLED = relabelled(
    resolve_group_name("SL23"),
    Permutation.from_cycles(8, [[0, 5, 2, 7], [1, 6]]))


@pytest.mark.parametrize(
    "G", SMALL + [alternating_group(5), SL23_RELABELLED]
    + [resolve_group_name(name) for name in ("C2wrC4", "C3wrC3", "S5")],
    ids=lambda G: G.name)
def test_matches_layered_closure(G):
    assert lattice_signature(all_subgroups(G)) == lattice_signature(
        layered_closure(G))


def test_relabelling_moves_the_generators():
    original = resolve_group_name("SL23")
    assert (lattice_signature(all_subgroups(original))
            != lattice_signature(all_subgroups(SL23_RELABELLED)))
    assert ([H.order() for H in all_subgroups(original)]
            == [H.order() for H in all_subgroups(SL23_RELABELLED)])


@pytest.mark.parametrize("G,count", [
    (resolve_group_name("S4"), 30),
    (alternating_group(5), 59),
    (resolve_group_name("C2^4"), 67),
], ids=["S4", "A5", "C2^4"])
def test_pinned_subgroup_counts(G, count):
    assert len(all_subgroups(G)) == count


@pytest.mark.parametrize("G", SMALL + [alternating_group(5)],
                         ids=lambda G: G.name)
def test_builds_no_chain_but_the_groups(G, monkeypatch):
    fresh = PermutationGroup(G.degree, G.generators)
    builds = []
    init = perm.StabilizerChain.__init__

    def counting_init(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(perm.StabilizerChain, "__init__", counting_init)
    subgroups = all_subgroups(fresh)
    assert len(builds) == 1
    monkeypatch.undo()
    assert all(H.order() == len(H.elements()) for H in subgroups)


def test_subgroups_come_with_their_member_sets():
    G = PermutationGroup(4, resolve_group_name("S4").generators)
    for H in all_subgroups(G):
        stored = H.memo("members", lambda: pytest.fail("no member set"))
        walked = G.subgroup(H.generators)
        walked.order()
        assert stored == walked.memo("members", lambda: None)


def test_subgroups_of_a_listed_subgroup_answer_from_the_root():
    # G's positions are not its root's, so no member set is stored from them
    root = PermutationGroup(4, resolve_group_name("S4").generators)
    root.elements()
    G = root.subgroup(alternating_group(4).generators)
    plain = PermutationGroup(4, G.generators)
    subgroups, expected = all_subgroups(G), all_subgroups(plain)
    assert lattice_signature(subgroups) == lattice_signature(expected)
    for H, K in zip(subgroups, expected):
        assert H.elements() == K.elements()
        assert [H.contains(g) for g in root.elements()] == [
            K.contains(g) for g in root.elements()]


@pytest.mark.parametrize("listed_in_root", [False, True],
                         ids=["root", "under-root"])
def test_unvalidated_subgroups_match_validated_ones(listed_in_root):
    root = PermutationGroup(4, resolve_group_name("S4").generators)
    root.elements()
    G = (root.subgroup(alternating_group(4).generators) if listed_in_root
         else root)
    for H in all_subgroups(G):
        K = G.subgroup(H.generators)
        assert (H.degree, H.generators, H.name, H._ambient) == (
            K.degree, K.generators, K.name, K._ambient)
        assert H._ambient is root
        assert H.order() == K.order()
        assert H.elements() == K.elements()
        assert [H.contains(g) for g in root.elements()] == [
            K.contains(g) for g in root.elements()]
    trivial = root.subgroup_at([root.identity()], frozenset([0]))
    assert trivial.generators == (root.identity(),)
    assert trivial.order() == 1 and trivial.elements() == (root.identity(),)


def test_walk_stops_once_past_the_cap():
    G = resolve_group_name("S4")
    _, index, col = G.indexed()
    cols = [col(index[g.images]) for g in G.generators]
    full = perm.walk({0}, [0], cols)
    assert full == set(range(24))
    capped = perm.walk_capped({0}, [0], cols, 12)
    assert capped <= full and 12 < len(capped) <= 12 + len(cols)
    assert perm.walk_capped({0}, [0], cols, 24) == full


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["S4", "C2^4", "D12", "A4xC2"]), data=st.data())
def test_relabelled_groups_match_layered_closure(name, data):
    # the skip rules follow canonical order, which a relabelling reshuffles
    G = resolve_group_name(name)
    sigma = data.draw(st.permutations(range(G.degree)))
    relabelled_G = relabelled(G, Permutation(tuple(sigma)))
    assert lattice_signature(all_subgroups(relabelled_G)) == lattice_signature(
        layered_closure(relabelled_G))


# two walks per try (marking, then the capped closure); the double-coset
# closure alone made 234, 856 and 480, and before the prime-index
# overgroup rule the four rules made 182, 618, 450 and 2,862
@pytest.mark.parametrize("G,walks", [
    (resolve_group_name("S4"), 108),
    (alternating_group(5), 458),
    (resolve_group_name("C2^4"), 102),
    (resolve_group_name("S5"), 2186),
], ids=["S4", "A5", "C2^4", "S5"])
def test_pinned_walk_counts(G, walks, monkeypatch):
    calls = []

    def counting(walk):
        def counted(*args):
            calls.append(args)
            return walk(*args)
        return counted

    for name in ("walk", "walk_capped"):
        monkeypatch.setattr(structure, name,
                            counting(getattr(structure, name)))
    all_subgroups(G)
    assert len(calls) == walks
