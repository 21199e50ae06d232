from collections import Counter, defaultdict

import pytest

from vlab.catalog import (bundled_catalog, bundled_fixtures, dicyclic,
                          parse_catalog, parse_fixtures, regular_semidirect,
                          resolve_group_name, serialize_catalog,
                          serialize_fixtures)
from vlab.constructions import MAX_DEGREE
from vlab.errors import GroupError, ParseError
from vlab.structure import derived_subgroup, quotient

from tests.conftest import element_order_profile

WREATH_DUPES = {"C2wrC2", "C2wrC3", "C3wrC2"}  # isomorphic to small entries
# number of groups of each order up to isomorphism
EXPECTED_CLASS_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1,
    12: 5, 13: 1, 14: 2, 15: 1, 16: 14, 17: 1, 18: 5, 19: 1, 20: 5,
    21: 2, 22: 2, 23: 1, 24: 15,
}


def small_entries():
    return [g for g in bundled_catalog()
            if g.order() <= 24 and g.name not in WREATH_DUPES]


def fingerprint(G):
    der = derived_subgroup(G)
    ab = quotient(G, der).group
    elements = G.elements()
    center = sum(1 for z in elements
                 if all(z * g == g * z for g in G.generators))
    return (G.order(), G.is_abelian(), element_order_profile(G), center,
            der.order(), element_order_profile(ab))


class TestBundledCatalog:
    def test_size(self):
        assert len(bundled_catalog()) >= 50

    def test_names_are_unique(self):
        names = [g.name for g in bundled_catalog()]
        assert len(set(names)) == len(names)

    def test_isomorphism_class_counts(self):
        counts = Counter(g.order() for g in small_entries())
        assert dict(counts) == EXPECTED_CLASS_COUNTS

    def test_pairwise_nonisomorphic_within_order(self):
        by_order = defaultdict(list)
        for g in small_entries():
            by_order[g.order()].append(g)
        for order, groups in by_order.items():
            prints = {}
            for g in groups:
                fp = fingerprint(g)
                assert fp not in prints, (order, prints[fp].name, g.name)
                prints[fp] = g

    def test_every_entry_valid(self):
        for g in bundled_catalog():
            assert g.generators
            assert all(p.degree == g.degree for p in g.generators)
            assert g.order() >= 1

    def test_expected_orders_of_specials(self):
        for name, order in (("SL23", 24), ("Q8", 8), ("Q16", 16),
                            ("Dic3", 12), ("Dic6", 24), ("F20", 20),
                            ("C7:C3", 21), ("C3:D4", 24), ("C2^2:C4", 16),
                            ("D4oC4", 16), ("C3^2:C2", 18), ("M16", 16),
                            ("SD16", 16), ("Dic5", 20), ("C4:C4", 16),
                            ("C3:C8", 24), ("A5", 60), ("S5", 120),
                            ("C2wrC2wrC2", 128), ("C3wrC3", 81)):
            assert resolve_group_name(name).order() == order, name

    def test_builders_validate(self):
        with pytest.raises(GroupError):
            regular_semidirect(8, 2, 2, "bad")  # 2 is not invertible mod 8
        assert dicyclic(3, "x").order() == 12


class TestNameResolution:
    def test_patterns(self):
        assert resolve_group_name("C9").order() == 9
        assert resolve_group_name("V4").order() == 1
        assert resolve_group_name("D7").order() == 14

    def test_wreath_names(self):
        assert resolve_group_name("C2wrC3").order() == 24
        assert resolve_group_name("A4wrC2").order() == 288

    def test_catalog_wins_over_pattern(self):
        # the catalog's C24 is the compact degree-11 model
        assert resolve_group_name("C24").degree == 11

    def test_unknown(self):
        with pytest.raises(ParseError):
            resolve_group_name("nonsense")


class TestCatalogFiles:
    def test_roundtrip(self):
        groups = bundled_catalog()
        text = serialize_catalog(groups)
        parsed = parse_catalog(text)
        assert len(parsed) == len(groups)
        for a, b in zip(groups, parsed):
            assert a.name == b.name
            assert a.degree == b.degree
            assert [p.images for p in a.generators] == \
                [p.images for p in b.generators]

    def test_empty_file(self):
        assert parse_catalog("") == []
        assert parse_catalog("# only a comment\n") == []

    def test_non_bijective_record_rejected_with_line_number(self):
        text = "C3 | 3 | 1 2 0\nbad | 3 | 0 0 1\n"
        with pytest.raises(ParseError) as exc:
            parse_catalog(text)
        assert "line 2" in str(exc.value)

    def test_degree_above_the_construction_cap_rejected(self):
        degree = MAX_DEGREE + 1
        images = " ".join(map(str, [1, 0, *range(2, degree)]))
        with pytest.raises(ParseError) as exc:
            parse_catalog(f"big | {degree} | {images}\n")
        assert "line 1" in str(exc.value)

    def test_wrong_length_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_catalog("bad | 4 | 1 0\n")
        assert "line 1" in str(exc.value)

    def test_malformed_tokens(self):
        with pytest.raises(ParseError):
            parse_catalog("bad | x | 0 1\n")
        with pytest.raises(ParseError):
            parse_catalog("just-one-field\n")


class TestFixtureFiles:
    def test_bundled_fixtures_resolve(self):
        fixtures = bundled_fixtures()
        assert any(fx.kind == "known-epi" for fx in fixtures)
        for fx in fixtures:
            assert fx.provenance.strip()
            if fx.subgroup is not None:
                assert fx.subgroup.is_subgroup_of(fx.group)

    def test_roundtrip(self):
        fixtures = bundled_fixtures()
        text = serialize_fixtures(fixtures)
        parsed = parse_fixtures(text)
        assert len(parsed) == len(fixtures)
        for a, b in zip(fixtures, parsed):
            assert a.kind == b.kind
            assert a.descriptor == b.descriptor
            assert a.group.same_group_as(b.group)
            if a.subgroup is not None:
                assert a.subgroup.same_group_as(b.subgroup)

    def test_missing_provenance_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_fixtures("known-member | A5 | - | var:A5 |\n")
        assert "line 1" in str(exc.value)

    def test_subgroup_outside_group_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_fixtures(
                "known-epi | A5 | (0 1) | var:A5 | test provenance\n")
        assert "line 1" in str(exc.value)

    def test_unknown_group_name_rejected(self):
        with pytest.raises(ParseError):
            parse_fixtures("known-member | XX | - | A | prov\n")
