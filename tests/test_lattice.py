"""`all_subgroups` against the plain layered closure it replaces.

The oracle extends every known subgroup H by every element e outside H;
`all_subgroups` tries one e per double coset HeH.  Both must return the
same subgroups with the same generator tuples in the same order.
"""

import pytest

from vlab.catalog import bundled_catalog, resolve_group_name
from vlab import perm
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
    "G", SMALL + [alternating_group(5), SL23_RELABELLED],
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
