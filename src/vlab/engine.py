"""The dominion decision engine: bounds, verdicts, certificates, pipelines.

Outcomes are three-valued; ``unknown`` is a first-class answer that absorbs
budget exhaustion and fixture gaps.  Every decided verdict carries a
machine-checkable certificate that ``verify_certificate`` re-runs from
scratch.  For ``prod(N, Q)`` the product step takes the Q-verbal subgroup
V = Q(G), the cover test HV = G and the trace H intersect V; one function
computes it for bounds, decisions, verification and the pipeline.

``epi_decide`` tries the rules as one chain, in this order; a rule that
cannot decide adds a note and hands over to the next, and only the end of
the chain (or a budget or fixture gap) answers ``unknown``:

1. whole group - H = G is epi (an ``epi-derivation`` leaf);
2. product rules, for ``prod(N, Q)`` only - ``verbal-cover-failure`` when
   HV is not G, else the inner question for the trace in V within N, whose
   ``epi`` gives a product-splitting node and whose ``not_epi`` gives
   ``inner-dominion-failure``;
3. fixture - a known-epi fixture for (G, H, descriptor);
4. ``neumann-solvable-complement``, when G lies in the variety;
5. ``separating-pair`` over the catalog members of the variety.  Every
   hom into a member kills the verbal subgroup V(G), so when HV(G) = G no
   member can separate: once the first member with more than one hom fails
   to separate, the search tests that cover, and when it holds checks each
   later member's membership and hom budgets, with the same notes and
   stops, but lists no hom.

For G in prod(N, Q) with N solvable and nontrivial, step 2 decides every
proper H: either HV is not G, or the trace is proper in V, which lies in N,
so the inner step 4 gives ``not_epi``.  Each certificate, with its
hypotheses:

* ``neumann-solvable-complement`` - needs G in the variety; a solvable
  normal N with NH = G and H proper: no proper such subgroup can be
  epimorphically embedded in any variety containing G.  N is the solvable
  radical, which contains every solvable normal subgroup, so the rule
  applies exactly when the radical covers.
* ``separating-pair`` - needs the codomain C in the variety and two
  homomorphisms into C with distinct generator images that agree on the
  subgroup; the witness is the least element of G where they differ.
* ``verbal-cover-failure`` - needs a nontrivial left factor N, which then
  contains some C_p, and C_p wr (G/V) separates the cosets of HV: so the
  dominion lies inside Q(G)H, of order |H||V|/|H intersect V|, which is
  proper.
* ``inner-dominion-failure`` - needs G in prod(N, Q) and HV = G: the
  trace H intersect V is not epimorphically embedded in V within N.
* ``epi-derivation`` - a tree whose internal nodes are product-splitting
  condition checks and whose leaves are fixtures (or the whole-group rule,
  or a componentwise direct-power reduction to a fixture on the consecutive
  point blocks the pipeline builds).

``verify_certificate`` is total: on malformed or tampered JSON it returns
False and never raises.  It requires H <= G, checks the rule's hypotheses
on the recomputed groups, then compares the certificate, as JSON and type
for type (``_same``), with its builder's output, which the decider and the
pipeline emit; an ``inner`` certificate is checked by recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import bundled_catalog, bundled_fixtures, resolve_group_name
from .config import DEFAULT_BUDGETS, MAX_DEGREE, Budgets
from .errors import BudgetExceeded, FixtureGap, GroupError
from .perm import (Permutation, PermutationGroup, parse_permutation,
                   trivial_group)
from .structure import (class_representatives, is_normal, is_solvable,
                        normal_closure, prime_divisors, product_covers,
                        product_subgroup, solvable_radical,
                        subgroup_intersection)
from .homs import GroupHomomorphism, all_homomorphisms, check_hom_budgets
from .varieties import (Descriptor, ProductVariety, find_epi_fixture,
                        is_solvable_variety, is_trivial_variety,
                        member_of_variety, q_verbal)
from .constructions import WreathContext, power_generators, regular_wreath

EPI = "epi"
NOT_EPI = "not_epi"
UNKNOWN = "unknown"


@dataclass
class EngineContext:
    """The rules' fixtures, catalog and budgets.  These fix every catalog
    member C's answer to member_of_variety(C, desc), so ``memberships`` keeps
    it as ``memberships[str(desc)][C]``, by C's identity."""

    fixtures: list = field(default_factory=list)
    catalog: list = field(default_factory=list)
    budgets: Budgets = DEFAULT_BUDGETS
    memberships: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    @staticmethod
    def bundled(budgets: Budgets = DEFAULT_BUDGETS) -> EngineContext:
        return EngineContext(fixtures=bundled_fixtures(),
                             catalog=bundled_catalog(), budgets=budgets)


@dataclass
class EpiVerdict:
    outcome: str
    certificate: dict | None
    derivation: list[str]
    budgets: dict
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"schema": 1, "outcome": self.outcome,
                "certificate": self.certificate,
                "derivation": list(self.derivation),
                "notes": list(self.notes), "budgets": dict(self.budgets)}


def _group_json(G: PermutationGroup) -> dict:
    return {"name": G.name, "degree": G.degree, "order": G.order(),
            "generators": [str(g) for g in G.generators]}


def _verdict(ctx: EngineContext, outcome: str, derivation: list[str],
             notes: list[str], certificate: dict | None = None) -> EpiVerdict:
    return EpiVerdict(outcome=outcome, certificate=certificate,
                      derivation=derivation, budgets=ctx.budgets.as_dict(),
                      notes=notes)


def _string_list(texts) -> list[str]:
    if not (isinstance(texts, list)
            and all(isinstance(text, str) for text in texts)):
        raise GroupError("certificate permutations must be a list of strings")
    return texts


def _group_from_json(data) -> PermutationGroup:
    degree = data.get("degree") if isinstance(data, dict) else None
    # the declared degree sets the parsing cost: bound it first
    if not isinstance(degree, int) or not 1 <= degree <= MAX_DEGREE:
        raise GroupError(f"certificate group needs an int degree in "
                         f"1..{MAX_DEGREE}")
    gens = [parse_permutation(text, degree)
            for text in _string_list(data["generators"])]
    return PermutationGroup(degree, gens, name=data.get("name"))


def _codomain_from_json(data, ctx: EngineContext):
    """(C, True) for the ctx.catalog entry with the codomain's degree and
    generator strings, whose memos then apply, else (the parsed codomain,
    False).  Its name and order are not read."""
    if isinstance(data, dict):
        degree, texts = data.get("degree"), data.get("generators")
        for E in ctx.catalog:
            if E.degree == degree and texts == [str(g) for g in E.generators]:
                return E, True
    return _group_from_json(data), False


def _elements_from_text(texts, C: PermutationGroup,
                        budgets: Budgets) -> tuple[Permutation, ...]:
    """The elements of C whose cycle strings are texts, after listing C
    under max_enumerate.  A text that is not the string of an element of C
    raises GroupError.  C's ``"cycle_strings"`` memo keeps each text that
    is, so it holds at most |C| entries, and a known text is not parsed."""
    texts = _string_list(texts)
    elements, index, _ = C.indexed(budgets.max_enumerate)
    known = C.memo("cycle_strings", dict)
    found = []
    for text in texts:
        if text not in known:
            position = index.get(parse_permutation(text, C.degree).images)
            if position is None or str(elements[position]) != text:
                raise GroupError("certificate image is not the cycle string "
                                 "of a codomain element")
            known[text] = elements[position]
        found.append(known[text])
    return tuple(found)


# -- the rules' shared tests ----------------------------------------------------


def _product_step(G: PermutationGroup, H: PermutationGroup,
                  desc: Descriptor, ctx: EngineContext):
    """(V, H intersect V, HV = G) for V the desc-verbal subgroup of G.

    V is normal, so HV = G exactly when |H||V| = |G||H intersect V|.  V is
    q_verbal's one object per (G, desc), so its hom lists stay warm.  The
    product rules pass the quotient descriptor, the separating-pair search
    its own.
    """
    verbal = q_verbal(G, desc, ctx.budgets)
    trace = subgroup_intersection(G, H, verbal, ctx.budgets)
    covers = H.order() * verbal.order() == G.order() * trace.order()
    return verbal, trace, covers


def _nontrivial_left(desc: ProductVariety) -> bool:
    """The hypothesis of the product upper bound: the dominion lies in Q(G)H."""
    return not is_trivial_variety(desc.left)


# -- one builder per certificate or node: the decider and the pipeline emit
# it, the verifier compares with it -------------------------------------------


def _same(a, b) -> bool:
    """Equal as JSON, type for type: 5.0 is not 5 and true is not 1."""
    # one type test a node, no generator frame: every verification runs this.
    # A builder echoes the certificate's inner, which may nest past the stack
    # limit; the verifier's recursion checks it, and `is` passes it here
    if a is b:
        return True
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is dict:
        if a.keys() != b.keys():
            return False
        pairs = zip(a.values(), map(b.__getitem__, a))
    elif kind is list:
        if len(a) != len(b):
            return False
        pairs = zip(a, b)
    else:
        return a == b
    for x, y in pairs:
        if not _same(x, y):
            return False
    return True


def _cover_failure_cert(G: PermutationGroup, H: PermutationGroup,
                        desc: ProductVariety, verbal: PermutationGroup,
                        trace: PermutationGroup) -> dict:
    return {"kind": "verbal-cover-failure",
            "quotient_descriptor": str(desc.right),
            "verbal_order": verbal.order(),
            "bound_order": H.order() * verbal.order() // trace.order(),
            "group_order": G.order()}


def _neumann_cert(G: PermutationGroup, H: PermutationGroup,
                  radical: PermutationGroup) -> dict:
    return {"kind": "neumann-solvable-complement",
            "normal": _group_json(radical),
            "normal_is_solvable": True, "product_covers": True,
            "subgroup_order": H.order(), "group_order": G.order()}


def _inner_failure_cert(desc: ProductVariety, verbal: PermutationGroup,
                        trace: PermutationGroup, inner: dict) -> dict:
    return {"kind": "inner-dominion-failure",
            "quotient_descriptor": str(desc.right),
            "verbal_order": verbal.order(), "trace_order": trace.order(),
            "inner": inner}


def _pair_cert(G: PermutationGroup, H: PermutationGroup, C: PermutationGroup,
               f: GroupHomomorphism, g: GroupHomomorphism,
               budgets: Budgets) -> dict:
    """f and g into C separate H in G at their first difference in G."""
    witness = f.first_difference(g, budgets)
    return {"kind": "separating-pair", "codomain": _group_json(C),
            "f_images": [str(p) for p in f.generator_images],
            "g_images": [str(p) for p in g.generator_images],
            "subgroup_generators": [str(h) for h in H.generators],
            "witness": str(witness),
            "f_witness": str(f.apply(witness, budgets)),
            "g_witness": str(g.apply(witness, budgets))}


def _splitting_node(desc: ProductVariety, verbal: PermutationGroup,
                    inner: dict) -> dict:
    return {"rule": "product-splitting",
            "quotient_descriptor": str(desc.right),
            "verbal_order": verbal.order(), "cover_ok": True, "inner": inner}


def _whole_group_node() -> dict:
    return {"rule": "whole-group"}


def _fixture_node(fx) -> dict:
    return {"rule": "fixture", "fixture": {
        "kind": fx.kind, "group": _group_json(fx.group),
        "subgroup": _group_json(fx.subgroup),
        "descriptor": str(fx.descriptor), "provenance": fx.provenance}}


def _power_node(fx, copies: int) -> dict:
    """The fixture lifted to its direct power on consecutive point blocks."""
    m = fx.group.degree
    blocks = [list(range(i * m, (i + 1) * m)) for i in range(copies)]
    return {**_fixture_node(fx), "rule": "direct-power-fixture",
            "copies": copies, "blocks": blocks}


# -- bounds ---------------------------------------------------------------------


@dataclass
class DominionBounds:
    lower: PermutationGroup
    upper: PermutationGroup
    derivation: list[str]

    @property
    def exact(self) -> bool:
        """The pinch test: the bounds meet, so both equal the dominion."""
        return self.lower.order() == self.upper.order()


def mckay_bound(G: PermutationGroup, H: PermutationGroup,
                qdesc: Descriptor, ctx: EngineContext) -> PermutationGroup:
    """The product upper bound: the dominion lies inside q_verbal(G, Q) * H.

    The containment is a theorem in prod(N, Q) for a nontrivial variety N;
    the formula itself is computed unconditionally (callers own the
    hypothesis).
    """
    verbal = q_verbal(G, qdesc, ctx.budgets)
    return product_subgroup(G, verbal, H)


def dominion_bounds(G: PermutationGroup, H: PermutationGroup,
                    desc: Descriptor, ctx: EngineContext) -> DominionBounds:
    """Sandwich the dominion of H in G for the descriptor's variety.

    The exact flag is the pinch test (lower equals upper): it is
    self-certifying, since both bounds are valid whatever the inner recursion
    produced.
    """
    if not H.is_subgroup_of(G):
        raise GroupError("H must be a subgroup of G")
    if H.order() == G.order():
        return DominionBounds(lower=H, upper=H,
                              derivation=["subgroup equals group"])
    if isinstance(desc, ProductVariety):
        verbal, trace, _ = _product_step(G, H, desc.right, ctx)
        inner = dominion_bounds(verbal, trace, desc.left, ctx)
        lower = product_subgroup(G, H, inner.lower)
        if _nontrivial_left(desc):
            upper, upper_is = (mckay_bound(G, H, desc.right, ctx),
                               "verbal subgroup times subgroup")
        else:
            upper, upper_is = G, f"the group ({desc.left} may be trivial)"
        steps = [
            f"verbal subgroup for {desc.right} has order {verbal.order()}",
            f"lower bound: subgroup times inner lower bound "
            f"(order {lower.order()})",
            f"upper bound: {upper_is} (order {upper.order()})",
        ] + [f"  inner: {s}" for s in inner.derivation]
        if inner.exact:
            steps.append("inner bounds are exact")
        steps.append("exactness by pinch: lower == upper"
                     if lower.order() == upper.order()
                     else "bounds do not pinch")
        return DominionBounds(lower=lower, upper=upper, derivation=steps)
    # with H normal, G/H lies in the variety and H is the equalizer of
    # G -> G/H and the trivial map
    if (is_solvable_variety(desc) is True
            and member_of_variety(G, desc, ctx.budgets, ctx.fixtures) is True
            and is_normal(G, H)):
        return DominionBounds(
            lower=H, upper=H,
            derivation=[f"solvable class {desc}: dominion pinches to "
                        f"the subgroup"])
    fx = find_epi_fixture(ctx.fixtures, G, H, desc)
    if fx is not None:
        return DominionBounds(lower=G, upper=G,
                              derivation=[f"fixture: {fx.provenance}"])
    return DominionBounds(lower=H, upper=G,
                          derivation=["no rule applies: trivial sandwich"])


# -- NotEpi searches ---------------------------------------------------------------


def neumann_not_epi_test(G: PermutationGroup, H: PermutationGroup,
                         ctx: EngineContext):
    """Solvable-complement test: a solvable normal N with NH = G and H
    proper rules out epimorphic embedding.  None when inconclusive."""
    if H.order() == G.order():
        return None
    radical = solvable_radical(G, ctx.budgets)
    if not product_covers(G, H, radical, ctx.budgets):
        return None
    return _verdict(ctx, NOT_EPI, [
        f"solvable radical has order {radical.order()}",
        "radical times subgroup covers the group; subgroup is proper",
        "solvable-complement rule: the embedding is not epi in any "
        "variety containing the group",
    ], [], _neumann_cert(G, H, radical))


def _catalog_membership(C: PermutationGroup, desc: Descriptor,
                        ctx: EngineContext, answers: dict):
    """member_of_variety(C, desc), kept in answers, by C's identity.  An
    exception leaves no entry."""
    if C not in answers:
        answers[C] = member_of_variety(C, desc, ctx.budgets, ctx.fixtures)
    return answers[C]


def separating_pair_search(G: PermutationGroup, H: PermutationGroup,
                           desc: Descriptor, ctx: EngineContext,
                           notes: list[str] | None = None):
    """Look for two maps into a catalog member agreeing on H, differing on G.

    Homs are bucketed by the target positions of their images of H's
    generators, read from their tables at those generators' positions in
    ``G.indexed()``; all share C, so equal positions are equal images.  The
    pair is the first two homs of the first bucket, in the canonical hom
    order, that holds two, so a pair with the inclusion map comes first when
    it is hom 0.  Each catalog member's membership is kept in
    ``ctx.memberships[str(desc)]``, so it is computed once per context, and
    its hom list on G, so that is computed once per G object.  Exhaustion
    returns None: it proves nothing positive.  Skipped catalog entries are
    reported through the notes sink.

    Every hom into a member of the variety kills the verbal subgroup V(G),
    so when HV(G) = G two homs that agree on H agree on G and no member can
    separate.  That cover test (``_product_step`` with desc) runs once,
    after the first member with more than one hom from G fails to separate:
    a member with one hom cannot separate, and a pair found first rules the
    cover out.  When it holds, each later member's hom budgets are still
    checked, so the notes and stops are the same, but no hom is listed.  A
    budget stop or fixture gap in the test runs the search.
    """
    if notes is None:
        notes = []
    answers = ctx.memberships.setdefault(str(desc), {})
    positions = covered = None
    for C in ctx.catalog:
        membership = _catalog_membership(C, desc, ctx, answers)
        if membership is False:
            continue
        if membership is None:
            notes.append(f"catalog group {C.name or C.degree} skipped: "
                         f"membership in {desc} unknown")
            continue
        try:
            check_hom_budgets(G, C, ctx.budgets)
        except BudgetExceeded as exc:
            if exc.budget_name != "max_hom_product":
                raise
            notes.append(f"catalog group {C.name or C.degree} skipped: "
                         f"hom budget")
            continue
        if covered:
            continue
        homs = all_homomorphisms(G, C, ctx.budgets)
        if positions is None:  # G is listed now
            _, index, _ = G.indexed(ctx.budgets.max_enumerate)
            positions = [index[h.images] for h in H.generators]
        buckets: dict[tuple, list] = {}  # H-image positions -> homs, in order
        for f in homs:
            buckets.setdefault(f.table_at(positions, ctx.budgets),
                               []).append(f)
        for f, g, *_ in (fs for fs in buckets.values() if len(fs) > 1):
            # distinct generator images are distinct maps: a witness exists
            certificate = _pair_cert(G, H, C, f, g, ctx.budgets)
            return _verdict(ctx, NOT_EPI, [
                f"maps into {C.name or 'catalog group'} agree on the "
                f"subgroup generators",
                f"they differ at {certificate['witness']}: the subgroup is "
                f"not epimorphically embedded",
            ], notes, certificate)
        if covered is None and len(homs) > 1:
            try:
                covered = _product_step(G, H, desc, ctx)[2]
            except (BudgetExceeded, FixtureGap):
                covered = False
    return None


# -- the decision procedure ----------------------------------------------------------


def epi_decide(G: PermutationGroup, H: PermutationGroup, desc: Descriptor,
               ctx: EngineContext) -> EpiVerdict:
    """Decide whether H is epimorphically embedded in G in the variety.

    A budget stop answers ``unknown``, also one in the check that H <= G;
    an H outside G raises GroupError."""
    notes: list[str] = []
    try:
        if not H.is_subgroup_of(G):
            raise GroupError("H must be a subgroup of G")
        return _decide(G, H, desc, ctx, notes)
    except (BudgetExceeded, FixtureGap) as exc:
        notes.append(f"stopped: {exc}")
        return _verdict(ctx, UNKNOWN, ["budget or fixture gap"], notes)


def _decide(G, H, desc, ctx, notes) -> EpiVerdict:
    if H.order() == G.order():
        return _verdict(ctx, EPI, ["subgroup equals group: trivially "
                                   "epimorphic"], notes,
                        {"kind": "epi-derivation",
                         "node": _whole_group_node()})

    # G's membership, computed once, and only when a rule reaches it; the
    # Ellipsis marks it not yet computed (None is an answer: unknown)
    membership = ...
    if isinstance(desc, ProductVariety):
        verbal, trace, covers = _product_step(G, H, desc.right, ctx)
        if covers:
            inner = epi_decide(verbal, trace, desc.left, ctx)
            if inner.outcome == EPI:
                node = _splitting_node(desc, verbal, inner.certificate["node"])
                return _verdict(ctx, EPI, [
                    f"subgroup times the {desc.right}-verbal subgroup "
                    f"covers the group",
                    f"the trace of the subgroup is epimorphically embedded "
                    f"in the verbal subgroup within {desc.left}:",
                ] + ["  " + line for line in inner.derivation],
                    notes + inner.notes,
                    {"kind": "epi-derivation", "node": node})
            if inner.outcome == NOT_EPI:
                # the necessity direction of the product characterization
                # assumes the ambient group lies in the product variety
                membership = member_of_variety(G, desc, ctx.budgets,
                                               ctx.fixtures)
                if membership is True:
                    certificate = _inner_failure_cert(desc, verbal, trace,
                                                      inner.certificate)
                    return _verdict(ctx, NOT_EPI, [
                        "subgroup times verbal subgroup covers the group, but",
                        f"the trace is not epimorphically embedded in the "
                        f"verbal subgroup within {desc.left}:",
                    ] + ["  " + line for line in inner.derivation],
                        notes + inner.notes, certificate)
                notes.append(
                    f"inner embedding fails, but membership of the group "
                    f"in {desc} is {membership}: the failure does not "
                    f"transfer")
            else:
                notes.append(f"product rules undecided: the trace's "
                             f"embedding in the verbal subgroup within "
                             f"{desc.left} is unknown")
            notes.extend(f"inner: {note}" for note in inner.notes)
        elif _nontrivial_left(desc):
            certificate = _cover_failure_cert(G, H, desc, verbal, trace)
            return _verdict(ctx, NOT_EPI, [
                f"verbal subgroup for {desc.right} has order "
                f"{verbal.order()}",
                f"the dominion lies inside verbal*subgroup, of order "
                f"{certificate['bound_order']} < {G.order()}",
            ], notes, certificate)
        else:
            notes.append(f"verbal-cover-failure skipped: the left factor "
                         f"{desc.left} is not known to be nontrivial")

    fx = find_epi_fixture(ctx.fixtures, G, H, desc)
    if fx is not None:
        return _verdict(ctx, EPI, [f"fixture: {fx.provenance}"], notes,
                        {"kind": "epi-derivation", "node": _fixture_node(fx)})
    if membership is ...:
        membership = member_of_variety(G, desc, ctx.budgets, ctx.fixtures)
    if membership is True:
        verdict = neumann_not_epi_test(G, H, ctx)
        if verdict is not None:
            verdict.notes.extend(notes)
            return verdict
    else:
        notes.append(f"solvable-complement test skipped: membership of the "
                     f"group in {desc} is {membership}")
    verdict = separating_pair_search(G, H, desc, ctx, notes=notes)
    if verdict is not None:
        return verdict
    notes.append("fixtures, solvable-complement test and separating-pair "
                 "search were all inconclusive")
    return _verdict(ctx, UNKNOWN, ["no decision path concluded"], notes)


# -- certificate re-verification -------------------------------------------------------


def verify_certificate(G: PermutationGroup, H: PermutationGroup,
                       desc: Descriptor, verdict: EpiVerdict,
                       ctx: EngineContext) -> bool:
    """Re-run a verdict's certificate from scratch; True iff it checks out.

    Total: a malformed or tampered certificate gives False, never an error.
    An epi verdict needs an epi-derivation, a not_epi verdict any other kind.
    """
    cert = verdict.certificate
    try:
        if not H.is_subgroup_of(G):
            return False
        if verdict.outcome == UNKNOWN:
            return cert is None
        return (verdict.outcome == _certified_outcome(cert)
                and _verify_cert(G, H, desc, cert, ctx))
    except (GroupError, KeyError, BudgetExceeded):
        return False


def _certified_outcome(cert) -> str:
    """The only outcome a certificate of this kind can support."""
    epi = isinstance(cert, dict) and cert.get("kind") == "epi-derivation"
    return EPI if epi else NOT_EPI


def _verify_cert(G, H, desc, cert, ctx) -> bool:
    if not isinstance(cert, dict):
        return False
    kind = cert.get("kind")
    if kind == "neumann-solvable-complement":
        radical = solvable_radical(G, ctx.budgets)
        return (member_of_variety(G, desc, ctx.budgets, ctx.fixtures) is True
                and is_normal(G, radical) and is_solvable(radical)
                and product_covers(G, H, radical, ctx.budgets)
                and H.order() < G.order()
                and _same(cert, _neumann_cert(G, H, radical)))
    if kind == "separating-pair":
        C, in_catalog = _codomain_from_json(cert["codomain"], ctx)
        # reading the images lists C under max_enumerate, one chain build,
        # before membership runs structure on C
        f_images = _elements_from_text(cert["f_images"], C, ctx.budgets)
        g_images = _elements_from_text(cert["g_images"], C, ctx.budgets)
        f = GroupHomomorphism(G, C, f_images, budgets=ctx.budgets)
        g = GroupHomomorphism(G, C, g_images, budgets=ctx.budgets)
        # a pair separates in the variety only if its codomain lies in it;
        # the context keeps the answers of catalog members only
        answers = (ctx.memberships.setdefault(str(desc), {}) if in_catalog
                   else {})
        if _catalog_membership(C, desc, ctx, answers) is not True:
            return False
        return (f.agrees_on(g, H, ctx.budgets) and f_images != g_images
                and _same(cert, _pair_cert(G, H, C, f, g, ctx.budgets)))
    if kind == "verbal-cover-failure" and isinstance(desc, ProductVariety):
        if not _nontrivial_left(desc):
            return False
        verbal, trace, covers = _product_step(G, H, desc.right, ctx)
        return (not covers and _same(
            cert, _cover_failure_cert(G, H, desc, verbal, trace)))
    if kind == "inner-dominion-failure" and isinstance(desc, ProductVariety):
        verbal, trace, covers = _product_step(G, H, desc.right, ctx)
        inner = cert.get("inner")
        return (covers
                and member_of_variety(verbal, desc.left, ctx.budgets,
                                      ctx.fixtures) is True
                and _same(cert, _inner_failure_cert(desc, verbal, trace,
                                                    inner))
                and _certified_outcome(inner) == NOT_EPI
                and _verify_cert(verbal, trace, desc.left, inner, ctx))
    if kind == "epi-derivation":
        return _verify_epi_node(G, H, desc, cert["node"], ctx)
    return False


def _verify_epi_node(G, H, desc, node, ctx) -> bool:
    if not isinstance(node, dict):
        return False
    rule = node.get("rule")
    if rule == "whole-group":
        return _same(node, _whole_group_node()) and H.order() == G.order()
    if rule == "fixture":
        fx = find_epi_fixture(ctx.fixtures, G, H, desc)
        return fx is not None and _same(node, _fixture_node(fx))
    if rule == "product-splitting" and isinstance(desc, ProductVariety):
        verbal, trace, covers = _product_step(G, H, desc.right, ctx)
        inner = node.get("inner")
        return (covers and _same(node, _splitting_node(desc, verbal, inner))
                and _verify_epi_node(verbal, trace, desc.left, inner, ctx))
    if rule == "direct-power-fixture":
        return _verify_power_node(G, H, desc, node, ctx)
    return False


def _verify_power_node(G, H, desc, node, ctx) -> bool:
    """G must be the product of block copies of the fixture group, on the
    consecutive blocks the pipeline builds, and H the matching power of the
    fixture subgroup; the dominion identity for finite direct powers then
    lifts the fixture to the whole power."""
    copies = node.get("copies")
    if not (type(copies) is int and 1 <= copies <= G.degree):
        return False
    fx = next((fx for fx in ctx.fixtures
               if fx.kind == "known-epi" and fx.descriptor == desc
               and _same(node, _power_node(fx, copies))), None)
    return (fx is not None
            and all(G.contains(g)
                    for g in power_generators(fx.group, copies, G.degree))
            and G.order() == fx.group.order() ** copies
            and G.subgroup(power_generators(fx.subgroup, copies, G.degree))
            .same_group_as(H))


# -- the wreath dichotomy and escape search ----------------------------------------------


def is_simple_nonabelian(S: PermutationGroup, ctx: EngineContext) -> bool:
    if S.is_abelian() or S.order() == 1:
        return False
    return all(normal_closure(S, [r]).order() == S.order()
               for r in class_representatives(S, ctx.budgets)
               if not r.is_identity())


@dataclass
class DichotomyReport:
    branch: str                  # "base" or "trivial"
    verbal_order: int
    base_order: int
    wreath: WreathContext

    def to_json(self) -> dict:
        return {"schema": 1, "branch": self.branch,
                "verbal_order": self.verbal_order,
                "base_order": self.base_order,
                "wreath_order": self.wreath.product.order(),
                "wreath_degree": self.wreath.product.degree}


def verify_qofsimple(S: PermutationGroup, B: PermutationGroup,
                     qdesc: Descriptor, ctx: EngineContext) -> DichotomyReport:
    """Verbal subgroups of S wr B, S simple nonabelian: the value is either
    the full base power or trivial.  Anything else is a hard error."""
    if not is_simple_nonabelian(S, ctx):
        raise GroupError("the bottom group must be simple and nonabelian")
    wreath = regular_wreath(S, B, ctx.budgets)
    verbal = q_verbal(wreath.product, qdesc, ctx.budgets)
    base = wreath.base_subgroup()
    if verbal.same_group_as(base):
        branch = "base"
    elif verbal.order() == 1:
        branch = "trivial"
    else:
        raise GroupError(
            f"dichotomy violated: verbal subgroup of order {verbal.order()} "
            f"is neither the base (order {base.order()}) nor trivial")
    return DichotomyReport(branch=branch, verbal_order=verbal.order(),
                           base_order=base.order(), wreath=wreath)


class EscapeExhausted(BudgetExceeded):
    """The fixed candidate ladder is exhausted: an explicit failure, never a
    claim that no escape exists.  ``skipped`` holds one note per skipped
    rung."""

    def __init__(self, message, skipped=()):
        super().__init__(message)
        self.skipped = tuple(skipped)


@dataclass
class EscapeResult:
    base: PermutationGroup
    top: PermutationGroup
    wreath: WreathContext
    skipped: list[str]

    def to_json(self) -> dict:
        return {"schema": 1, "top": _group_json(self.top),
                "witness_order": self.wreath.product.order(),
                "witness_degree": self.wreath.product.degree,
                "skipped": list(self.skipped)}


def escape_ladder(A: PermutationGroup):
    """The fixed candidate ladder: the trivial group, cyclic groups up to
    C12, then iterated wreath powers - restricted to orders built from the
    primes of |A| (the p-group mechanism behind the escape theorem)."""
    allowed = prime_divisors(A.order())
    names = [f"C{n}" for n in range(2, 13)]
    names += ["C2wrC2", "C2wrC2wrC2", "C3wrC3"]
    ladder = [trivial_group(1)]
    for name in names:
        candidate = resolve_group_name(name)
        if prime_divisors(candidate.order()) <= allowed:
            ladder.append(candidate)
    return ladder


def find_wreath_escape(A: PermutationGroup, desc: Descriptor,
                       ctx: EngineContext) -> EscapeResult:
    """First ladder group G in the variety with A wr G outside it; a rung
    whose membership is not True, or that a budget or fixture stops, is
    skipped with a note."""
    if A.order() == 1:
        raise GroupError("escape search needs a nontrivial base group")
    skipped = []
    for candidate in escape_ladder(A):
        label = candidate.name or f"order-{candidate.order()}"
        stage = "membership: "  # names the step a budget or fixture stops
        try:
            membership = member_of_variety(candidate, desc, ctx.budgets,
                                           ctx.fixtures)
            if membership is not True:
                skipped.append(f"{label}: membership {membership}")
                continue
            stage = ""
            wreath = regular_wreath(A, candidate, ctx.budgets)
            stage = "wreath membership: "
            wreath_member = member_of_variety(wreath.product, desc,
                                              ctx.budgets, ctx.fixtures)
        except (BudgetExceeded, FixtureGap) as exc:
            skipped.append(f"{label}: {stage}{exc}")
            continue
        if wreath_member is False:
            return EscapeResult(base=A, top=candidate, wreath=wreath,
                                skipped=skipped)
        if wreath_member is None:
            skipped.append(f"{label}: wreath membership unknown")
    raise EscapeExhausted(
        "escape ladder exhausted without a witness; this does not claim "
        f"nonexistence (skipped: {'; '.join(skipped) or 'none'})", skipped)


# -- the finite construction pipeline ------------------------------------------------------


@dataclass
class PipelineReport:
    verdict: EpiVerdict
    escape: EscapeResult | None
    details: dict

    def to_json(self) -> dict:
        data = {"schema": 1, "verdict": self.verdict.to_json(),
                "details": dict(self.details)}
        if self.escape is not None:
            data["escape"] = self.escape.to_json()
        return data


def simpletimes_pipeline(S: PermutationGroup, H: PermutationGroup,
                         ndesc: Descriptor, qdesc: Descriptor,
                         ctx: EngineContext) -> PipelineReport:
    """Build a finite nonsurjective epi in prod(N, Q) from one in N.

    Given a fixture asserting H is epimorphically embedded in the simple
    nonabelian S within N, pick a ladder group G in Q whose wreath escapes Q,
    and derive H wr G inside S wr G: the verbal subgroup is the base power
    (dichotomy), the subgroup covers it, and the trace is exactly H^G, whose
    dominion in S^G is everything by the componentwise direct-power identity
    applied to the fixture.  The derivation is checked by the verifier
    before it is returned; a budget stop in that check propagates.
    """
    fx = find_epi_fixture(ctx.fixtures, S, H, ndesc)
    notes: list[str] = []
    if fx is None:
        return PipelineReport(
            verdict=_verdict(ctx, UNKNOWN, [
                "no fixture asserts the base epimorphic embedding; the "
                "pipeline has nothing to lift"], notes),
            escape=None, details={"missing_fixture": True})
    if not is_simple_nonabelian(S, ctx):
        raise GroupError("the pipeline needs a simple nonabelian base group")
    try:
        escape = find_wreath_escape(S, qdesc, ctx)
    except EscapeExhausted as exc:
        notes.append(str(exc))
        return PipelineReport(
            verdict=_verdict(ctx, UNKNOWN, ["escape search exhausted its "
                                            "ladder within budget"], notes),
            escape=None, details={"escape_exhausted": True})

    wreath = escape.wreath
    W = wreath.product
    desc = ProductVariety(ndesc, qdesc)
    embedded_sub = wreath.wreath_subgroup(H)
    base = wreath.base_subgroup()
    node = _splitting_node(desc, base, _power_node(fx, wreath.block_count))
    if not _verify_epi_node(W, embedded_sub, desc, node, ctx):
        raise GroupError("the lifted derivation does not verify "
                         "(internal error)")
    top_name = escape.top.name or f"order-{escape.top.order()}"
    verdict = _verdict(ctx, EPI, [
        f"escape: {top_name} lies in {qdesc} but the wreath product "
        f"does not",
        f"verbal subgroup of the wreath is the full base power "
        f"(order {base.order()})",
        "the embedded wreath subgroup covers it",
        "its trace is the base power of the fixture subgroup; the "
        "componentwise direct-power identity reduces its dominion to "
        "the fixture",
        f"fixture: {fx.provenance}",
    ], notes, {"kind": "epi-derivation", "node": node})
    details = {
        "wreath_order": W.order(),
        "wreath_degree": W.degree,
        "verbal_order": base.order(),
        "embedded_subgroup_order": embedded_sub.order(),
        "trace_order": wreath.base_power_subgroup(H).order(),
    }
    return PipelineReport(verdict=verdict, escape=escape, details=details)
