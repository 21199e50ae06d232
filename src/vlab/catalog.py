"""Bundled group catalog, name resolution, and catalog/fixture files.

The bundled catalog carries one representative of every isomorphism class of
order at most 24 (74 groups), plus A5, S5 and a few small wreath products.
Constructions that have no convenient small-degree permutation model use the
right-regular representation of an explicit multiplication rule.

File formats (one record per line, ``#`` comments):

catalog   name | degree | image tuple ; image tuple ; ...
          e.g. ``S3 | 3 | 1 2 0 ; 1 0 2``
fixtures  kind | group name | subgroup (as for resolve_subgroup, or -) |
          descriptor | provenance
"""

from __future__ import annotations

import functools
import itertools
import re

from .config import MAX_DEGREE, MAX_NESTING, Budgets
from .errors import GroupError, ParseError
from .perm import (Permutation, PermutationGroup, alternating_group,
                   cyclic_group, dihedral_group, named_group, pad_permutation,
                   parse_permutation, symmetric_group, trivial_group)
from .constructions import direct_product, regular_wreath
from .structure import quotient
from .varieties import Fixture, parse_descriptor


# -- constructions -----------------------------------------------------------


def regular_semidirect(n: int, m: int, k: int, name: str) -> PermutationGroup:
    """C_n : C_m with the C_m generator acting by a -> a^k, right-regular."""
    if pow(k, m, n) != 1 % n:
        raise GroupError(f"k={k} has no order dividing {m} mod {n}")
    degree = n * m
    a_images = [0] * degree
    b_images = [0] * degree
    for j in range(m):
        twist = pow(k, j, n)
        for i in range(n):
            point = i + n * j
            a_images[point] = (i + twist) % n + n * j
            b_images[point] = i + n * ((j + 1) % m)
    return PermutationGroup(degree, [Permutation(tuple(a_images)),
                                     Permutation(tuple(b_images))], name=name)


def dicyclic(n: int, name: str) -> PermutationGroup:
    """Dicyclic group of order 4n: a^2n = e, b^2 = a^n, b^-1 a b = a^-1."""
    deg = 4 * n
    two_n = 2 * n
    a_images = [0] * deg
    b_images = [0] * deg
    for i in range(two_n):
        a_images[i] = (i + 1) % two_n
        a_images[two_n + i] = two_n + (i - 1) % two_n
        b_images[i] = two_n + i
        b_images[two_n + i] = (i + n) % two_n
    return PermutationGroup(deg, [Permutation(tuple(a_images)),
                                  Permutation(tuple(b_images))], name=name)


def special_linear_2_3() -> PermutationGroup:
    """SL(2,3) acting on the eight nonzero vectors of F_3^2."""
    vectors = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def act(matrix):
        (a, b), (c, d) = matrix
        images = [0] * 8
        for v, i in index.items():
            w = ((v[0] * a + v[1] * c) % 3, (v[0] * b + v[1] * d) % 3)
            images[i] = index[w]
        return Permutation(tuple(images))

    return PermutationGroup(8, [act(((1, 1), (0, 1))), act(((0, 2), (1, 0)))],
                            name="SL23")


def generalized_dihedral_3x3() -> PermutationGroup:
    """(C3 x C3) : C2 with the involution inverting, on the nine points."""
    def idx(x, y):
        return 3 * x + y

    t1 = Permutation(tuple(idx((x + 1) % 3, y)
                           for x in range(3) for y in range(3)))
    t2 = Permutation(tuple(idx(x, (y + 1) % 3)
                           for x in range(3) for y in range(3)))
    s = Permutation(tuple(idx((-x) % 3, (-y) % 3)
                          for x in range(3) for y in range(3)))
    return PermutationGroup(9, [t1, t2, s], name="C3^2:C2")


def klein_by_c4() -> PermutationGroup:
    """(C2 x C2) : C4, the order-16 group where C4 swaps the two factors.

    Realized inside C2 wr C4: the base pattern supported on blocks {0, 2}
    together with the block rotation generate it.
    """
    ctx = regular_wreath(cyclic_group(2), cyclic_group(4))
    swap = cyclic_group(2).generators[0]
    ident = cyclic_group(2).identity()
    v1 = ctx.element(ctx.top_original.identity(),
                     lambda c: swap if c % 2 == 0 else ident)
    c = ctx.top_element(cyclic_group(4).generators[0])
    return PermutationGroup(8, [v1, c], name="C2^2:C4")


def central_product_d4_c4() -> PermutationGroup:
    """D4 o C4 = Q8 o C4: quotient of Q8 x C4 gluing the central involutions."""
    q8 = dicyclic(2, "Q8")
    c4 = cyclic_group(4)
    big = direct_product(q8, c4, name="Q8xC4")
    a2 = q8.generators[0] ** 2          # the central involution of Q8
    c2 = c4.generators[0] ** 2
    z = pad_permutation(a2, big.degree, 0) * pad_permutation(c2, big.degree,
                                                             q8.degree)
    center = big.subgroup([z])
    result = quotient(big, center).group
    result.name = "D4oC4"
    return result


def c3_by_d4() -> PermutationGroup:
    """C3 : D4 with the order-4 element inverting: the fiber product of
    S3 and D4 over C2 (sign against the quotient-by-(r^2, s) map)."""
    deg = 7
    rot3 = pad_permutation(parse_permutation("(0 1 2)", 3), deg, 0)
    diag = (pad_permutation(parse_permutation("(0 1)", 3), deg, 0)
            * pad_permutation(parse_permutation("(0 1 2 3)", 4), deg, 3))
    refl = pad_permutation(parse_permutation("(1 3)", 4), deg, 3)
    return PermutationGroup(deg, [rot3, diag, refl], name="C3:D4")


def _abelian(name: str, *orders: int) -> PermutationGroup:
    parts = [cyclic_group(n) for n in orders]
    G = parts[0]
    for part in parts[1:]:
        G = direct_product(G, part)
    G.name = name
    return G


def _wreath(name: str, A: PermutationGroup,
            B: PermutationGroup) -> PermutationGroup:
    """A wr B by name; named wreaths may have tops of up to 130 elements."""
    G = regular_wreath(A, B, Budgets(max_wreath_top=130)).product
    G.name = name
    return G


def build_catalog() -> list[PermutationGroup]:
    """All groups of order <= 24 (one per isomorphism class), plus extras."""
    s3 = symmetric_group(3)
    d4 = dihedral_group(4)
    q8 = dicyclic(2, "Q8")
    a4 = alternating_group(4)
    dic3 = dicyclic(3, "Dic3")
    return [
        trivial_group(1),
        cyclic_group(2), cyclic_group(3),
        cyclic_group(4), _abelian("C2^2", 2, 2),
        cyclic_group(5),
        cyclic_group(6), s3,
        cyclic_group(7),
        cyclic_group(8), _abelian("C4xC2", 4, 2), _abelian("C2^3", 2, 2, 2),
        d4, q8,
        cyclic_group(9), _abelian("C3^2", 3, 3),
        cyclic_group(10), dihedral_group(5),
        cyclic_group(11),
        cyclic_group(12), _abelian("C6xC2", 6, 2), dihedral_group(6), a4, dic3,
        cyclic_group(13),
        cyclic_group(14), dihedral_group(7),
        cyclic_group(15),
        # order 16: five abelian, nine nonabelian
        cyclic_group(16), _abelian("C8xC2", 8, 2), _abelian("C4xC4", 4, 4),
        _abelian("C4xC2^2", 4, 2, 2), _abelian("C2^4", 2, 2, 2, 2),
        dihedral_group(8), dicyclic(4, "Q16"),
        regular_semidirect(8, 2, 3, "SD16"),
        regular_semidirect(8, 2, 5, "M16"),
        direct_product(d4, cyclic_group(2), "D4xC2"),
        direct_product(q8, cyclic_group(2), "Q8xC2"),
        regular_semidirect(4, 4, 3, "C4:C4"),
        klein_by_c4(), central_product_d4_c4(),
        cyclic_group(17),
        # order 18
        cyclic_group(18), _abelian("C3xC6", 3, 6), dihedral_group(9),
        direct_product(cyclic_group(3), s3, "C3xS3"),
        generalized_dihedral_3x3(),
        cyclic_group(19),
        # order 20
        cyclic_group(20), _abelian("C10xC2", 10, 2), dihedral_group(10),
        dicyclic(5, "Dic5"), regular_semidirect(5, 4, 2, "F20"),
        cyclic_group(21), regular_semidirect(7, 3, 2, "C7:C3"),
        cyclic_group(22), dihedral_group(11),
        cyclic_group(23),
        # order 24: three abelian, twelve nonabelian
        _abelian("C24", 8, 3), _abelian("C12xC2", 12, 2),
        _abelian("C6xC2^2", 6, 2, 2),
        symmetric_group(4), direct_product(a4, cyclic_group(2), "A4xC2"),
        special_linear_2_3(), dihedral_group(12), dicyclic(6, "Dic6"),
        regular_semidirect(3, 8, 2, "C3:C8"),
        direct_product(cyclic_group(3), d4, "C3xD4"),
        direct_product(cyclic_group(3), q8, "C3xQ8"),
        direct_product(s3, cyclic_group(4), "S3xC4"),
        direct_product(direct_product(s3, cyclic_group(2), "S3xC2"),
                       cyclic_group(2), "S3xC2^2"),
        direct_product(cyclic_group(2), dic3, "C2xDic3"),
        c3_by_d4(),
        # beyond order 24
        alternating_group(5), symmetric_group(5),
        _wreath("C2wrC2", cyclic_group(2), cyclic_group(2)),
        _wreath("C3wrC2", cyclic_group(3), cyclic_group(2)),
        _wreath("C2wrC3", cyclic_group(2), cyclic_group(3)),
        _wreath("C2wrC4", cyclic_group(2), cyclic_group(4)),
        _wreath("C3wrC3", cyclic_group(3), cyclic_group(3)),
        _wreath("C2wrC2wrC2", _wreath("C2wrC2", cyclic_group(2),
                                      cyclic_group(2)), cyclic_group(2)),
    ]


@functools.cache
def bundled_catalog() -> list[PermutationGroup]:
    return build_catalog()


_WREATH_NAME = re.compile(r"^(.*?)wr(C\d+|S\d+|A\d+|D\d+)$")


def resolve_group_name(name: str, catalog=None) -> PermutationGroup:
    """A name in catalog (a loaded catalog file), then in the bundled
    catalog, then ``<name>wr<top>`` with at most MAX_NESTING ``wr``, then a
    Cn/Sn/An/Dn/Vn pattern.  The parts of a wreath name are bundled names
    or patterns."""
    name = name.strip()
    for g in itertools.chain(catalog or (), bundled_catalog()):
        if g.name == name:
            return g
    if name.count("wr") > MAX_NESTING:
        raise ParseError(f"group name nests wr deeper than {MAX_NESTING}")
    match = _WREATH_NAME.match(name)
    if match:
        return _wreath(name, resolve_group_name(match.group(1)),
                       resolve_group_name(match.group(2)))
    return named_group(name)


def resolve_subgroup(spec: str, G: PermutationGroup) -> PermutationGroup:
    """The subgroup of G that ``;``-separated cycle-notation generators
    generate, or a named group on G's first points; a generator outside G
    is a GroupError."""
    spec = spec.strip()
    if "(" in spec:
        sub = G.subgroup([parse_permutation(chunk.strip(), G.degree)
                          for chunk in spec.split(";") if chunk.strip()])
    else:
        named = resolve_group_name(spec)
        if named.degree > G.degree:
            raise GroupError(
                f"{spec} needs degree {named.degree} > ambient {G.degree}")
        sub = G.subgroup([pad_permutation(g, G.degree)
                          for g in named.generators],
                         name=f"{spec}<{G.name or 'G'}")
    for g in sub.generators:
        if not G.contains(g):
            raise GroupError(f"subgroup generator {g} lies outside the group")
    return sub


# -- catalog files -------------------------------------------------------------


def _records(text: str, shape: str):
    """(line number, fields) for each record of a catalog or fixture file,
    skipping blank and ``#`` lines; shape names the ``|``-separated fields."""
    width = shape.count("|") + 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [part.strip() for part in line.split("|")]
        if len(fields) != width:
            raise ParseError(f"line {lineno}: expected '{shape}'")
        yield lineno, fields


def serialize_catalog(groups) -> str:
    lines = ["# name | degree | generator image tuples separated by ';'"]
    for g in groups:
        gens = " ; ".join(" ".join(str(i) for i in p.images)
                          for p in g.generators)
        lines.append(f"{g.name or 'unnamed'} | {g.degree} | {gens}")
    return "\n".join(lines) + "\n"


def parse_catalog(text: str) -> list[PermutationGroup]:
    groups = []
    for lineno, (name, degree_text, gens_text) in _records(
            text, "name | degree | gens"):
        try:
            degree = int(degree_text)
        except ValueError:
            raise ParseError(f"line {lineno}: bad degree {degree_text!r}") from None
        if not 1 <= degree <= MAX_DEGREE:
            raise ParseError(f"line {lineno}: degree {degree} is outside "
                             f"1..{MAX_DEGREE}")
        gens = []
        for chunk in gens_text.split(";"):
            tokens = chunk.split()
            if not tokens:
                continue
            try:
                images = tuple(int(t) for t in tokens)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: bad image value in {chunk!r}") from None
            if len(images) != degree:
                raise ParseError(
                    f"line {lineno}: image tuple has length {len(images)}, "
                    f"degree is {degree}")
            try:
                gens.append(Permutation(images))
            except GroupError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        if not gens:
            raise ParseError(f"line {lineno}: no generators")
        groups.append(PermutationGroup(degree, gens, name=name))
    return groups


def load_catalog(path: str) -> list[PermutationGroup]:
    with open(path, encoding="utf-8") as fh:
        return parse_catalog(fh.read())


# -- fixtures -------------------------------------------------------------------


def bundled_fixtures() -> list[Fixture]:
    a5 = alternating_group(5)
    a4_in_a5 = a5.subgroup([parse_permutation("(0 1 2)", 5),
                            parse_permutation("(0 1)(2 3)", 5)], name="A4<A5")
    var_a5 = parse_descriptor("var:A5")
    return [
        Fixture(kind="known-epi", group=a5, subgroup=a4_in_a5,
                descriptor=var_a5,
                provenance=("B.H. Neumann's example: the point stabilizer "
                            "A4 is epimorphically embedded in A5 within the "
                            "variety generated by A5 (Example A in P.M. "
                            "Neumann, Splitting groups and projectives in "
                            "varieties of groups, Quart. J. Math. Oxford (2) "
                            "18 (1967), 325-332)")),
        Fixture(kind="known-member", group=a5, subgroup=None,
                descriptor=var_a5,
                provenance="A5 generates var:A5 (definition of Var)"),
    ]


def serialize_fixtures(fixtures) -> str:
    lines = ["# kind | group | subgroup gens (cycles, or -) | descriptor | provenance"]
    for fx in fixtures:
        sub = "-"
        if fx.subgroup is not None:
            sub = " ; ".join(str(p) for p in fx.subgroup.generators)
        lines.append(f"{fx.kind} | {fx.group.name} | {sub} | "
                     f"{fx.descriptor} | {fx.provenance}")
    return "\n".join(lines) + "\n"


def parse_fixtures(text: str) -> list[Fixture]:
    fixtures = []
    for lineno, (kind, group_name, sub, desc_text, provenance) in _records(
            text, "kind | group | subgroup | descriptor | provenance"):
        try:
            group = resolve_group_name(group_name)
            subgroup = (None if sub in ("", "-")
                        else resolve_subgroup(sub, group))
            descriptor = parse_descriptor(desc_text)
        except GroupError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if not provenance:
            raise ParseError(f"line {lineno}: fixtures must cite provenance")
        fixtures.append(Fixture(kind=kind, group=group, subgroup=subgroup,
                                descriptor=descriptor, provenance=provenance))
    return fixtures


def load_fixtures(path: str) -> list[Fixture]:
    with open(path, encoding="utf-8") as fh:
        return parse_fixtures(fh.read())
