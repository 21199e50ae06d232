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
5. ``separating-pair`` over the catalog members of the variety.

For G in prod(N, Q) with N solvable and nontrivial, step 2 decides every
proper H: either HV is not G, or the trace is proper in V, which lies in N,
so the inner step 4 gives ``not_epi``.  Each certificate, with its
hypotheses:

* ``neumann-solvable-complement`` - needs G in the variety; a solvable
  normal N with NH = G and H proper: no proper such subgroup can be
  epimorphically embedded in any variety containing G.  N is the solvable
  radical, which contains every solvable normal subgroup, so the rule
  applies exactly when the radical covers.
* ``separating-pair`` - needs the codomain C in the variety and every
  generator image in C; two homomorphisms into C agreeing on the subgroup
  but not on the group.
* ``verbal-cover-failure`` - needs a nontrivial left factor N, which then
  contains some C_p, and C_p wr (G/V) separates the cosets of HV: so the
  dominion lies inside Q(G)H, of order |H||V|/|H intersect V|, which is
  proper.
* ``inner-dominion-failure`` - needs G in prod(N, Q): the trace
  H intersect V is not epimorphically embedded in V within N.
* ``epi-derivation`` - a tree whose internal nodes are product-splitting
  condition checks and whose leaves are fixtures (or the whole-group rule,
  or a componentwise direct-power reduction to a fixture on disjoint point
  blocks).

``verify_certificate`` is total: on malformed or tampered JSON it returns
False and never raises.  Once a rule's hypotheses hold, every certificate
but a separating pair must equal its builder's output on the recomputed
groups, the builder the decider emits it with; an ``inner`` certificate is
checked by recursion.  A separating pair is checked through its witnesses;
the codomain's name and order, ``subgroup_generators``, ``f_witness`` and
``g_witness`` are informational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .config import DEFAULT_BUDGETS, Budgets
from .errors import BudgetExceeded, FixtureGap, GroupError
from .perm import (Permutation, PermutationGroup, parse_permutation,
                   trivial_group)
from .structure import (class_representatives, is_normal, is_solvable,
                        normal_closure, product_covers, product_subgroup,
                        solvable_radical, subgroup_intersection)
from .homs import GroupHomomorphism, all_homomorphisms
from .varieties import (NO, YES, Descriptor, ProductVariety,
                        find_epi_fixture, is_solvable_variety,
                        is_trivial_variety, member_of_variety, q_verbal)
from .constructions import MAX_DEGREE, WreathContext, regular_wreath

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
    def bundled(budgets: Budgets = DEFAULT_BUDGETS) -> "EngineContext":
        from .catalog import bundled_catalog, bundled_fixtures
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


def _perms_from_json(texts, degree: int) -> tuple[Permutation, ...]:
    if not (isinstance(texts, list)
            and all(isinstance(text, str) for text in texts)):
        raise GroupError("certificate permutations must be a list of strings")
    return tuple(parse_permutation(text, degree) for text in texts)


def _group_from_json(data) -> PermutationGroup:
    degree = data.get("degree") if isinstance(data, dict) else None
    # the declared degree sets the parsing cost: bound it first
    if not isinstance(degree, int) or not 1 <= degree <= MAX_DEGREE:
        raise GroupError(f"certificate group needs an int degree in "
                         f"1..{MAX_DEGREE}")
    gens = _perms_from_json(data["generators"], degree)
    return PermutationGroup(degree, gens, name=data.get("name"))


# -- the rules' shared tests ----------------------------------------------------


def _product_step(G: PermutationGroup, H: PermutationGroup,
                  desc: ProductVariety, ctx: EngineContext):
    """(V, H intersect V, HV = G) for V the desc.right-verbal subgroup of G.

    V is normal, so HV = G exactly when |H||V| = |G||H intersect V|.  V is
    q_verbal's one object per (G, desc.right), so its hom lists stay warm.
    """
    verbal = q_verbal(G, desc.right, ctx.budgets, ctx.fixtures)
    trace = subgroup_intersection(G, H, verbal, ctx.budgets)
    covers = H.order() * verbal.order() == G.order() * trace.order()
    return verbal, trace, covers


def _nontrivial_left(desc: ProductVariety, ctx: EngineContext) -> bool:
    """The hypothesis of the product upper bound: the dominion lies in Q(G)H."""
    return is_trivial_variety(desc.left, ctx.fixtures) == NO


# -- one builder per certificate or node without a witness: the decider and the
# pipeline emit it, the verifier compares with it --------------------------------


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


def _power_node(fx, blocks: list) -> dict:
    """The fixture lifted to the direct power on the given point blocks."""
    return {**_fixture_node(fx), "rule": "direct-power-fixture",
            "copies": len(blocks), "blocks": blocks}


# -- bounds ---------------------------------------------------------------------


@dataclass
class DominionBounds:
    lower: PermutationGroup
    upper: PermutationGroup
    exact: bool
    derivation: list[str]

    def sandwich_ok(self, G: PermutationGroup, H: PermutationGroup) -> bool:
        return (H.is_subgroup_of(self.lower)
                and self.lower.is_subgroup_of(self.upper)
                and self.upper.is_subgroup_of(G)
                and (not self.exact
                     or self.lower.order() == self.upper.order()))


def mckay_bound(G: PermutationGroup, H: PermutationGroup,
                ndesc: Descriptor, qdesc: Descriptor,
                ctx: EngineContext) -> PermutationGroup:
    """The product upper bound: the dominion lies inside q_verbal(G, Q) * H.

    The containment is a theorem when ndesc is a nontrivial variety; the
    formula itself is computed unconditionally (callers own the hypothesis).
    """
    verbal = q_verbal(G, qdesc, ctx.budgets, ctx.fixtures)
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
        return DominionBounds(lower=H, upper=H, exact=True,
                              derivation=["subgroup equals group"])
    if isinstance(desc, ProductVariety):
        verbal, trace, _ = _product_step(G, H, desc, ctx)
        inner = dominion_bounds(verbal, trace, desc.left, ctx)
        lower = product_subgroup(G, H, inner.lower)
        if _nontrivial_left(desc, ctx):
            upper, upper_is = (mckay_bound(G, H, desc.left, desc.right, ctx),
                               "verbal subgroup times subgroup")
        else:
            upper, upper_is = G, f"the group ({desc.left} may be trivial)"
        exact = lower.order() == upper.order()
        steps = [
            f"verbal subgroup for {desc.right} has order {verbal.order()}",
            f"lower bound: subgroup times inner lower bound "
            f"(order {lower.order()})",
            f"upper bound: {upper_is} (order {upper.order()})",
        ] + [f"  inner: {s}" for s in inner.derivation]
        if inner.exact:
            steps.append("inner bounds are exact")
        steps.append("exactness by pinch: lower == upper" if exact
                     else "bounds do not pinch")
        return DominionBounds(lower=lower, upper=upper, exact=exact,
                              derivation=steps)
    # with H normal, G/H lies in the variety and H is the equalizer of
    # G -> G/H and the trivial map
    if (is_solvable_variety(desc, ctx.fixtures) == YES
            and member_of_variety(G, desc, ctx.budgets, ctx.fixtures) is True
            and is_normal(G, H)):
        return DominionBounds(
            lower=H, upper=H, exact=True,
            derivation=[f"solvable class {desc}: dominion pinches to "
                        f"the subgroup"])
    fx = find_epi_fixture(ctx.fixtures, G, H, desc)
    if fx is not None:
        return DominionBounds(lower=G, upper=G, exact=True,
                              derivation=[f"fixture: {fx.provenance}"])
    return DominionBounds(lower=H, upper=G, exact=False,
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


def _catalog_entry(C: PermutationGroup, ctx: EngineContext):
    """The ctx.catalog entry with C's degree and generator tuple, else C:
    the same group, whose memos then apply.  Its name and order are not
    read."""
    return next((E for E in ctx.catalog if E.degree == C.degree
                 and E.generators == C.generators), C)


def separating_pair_search(G: PermutationGroup, H: PermutationGroup,
                           catalog, desc: Descriptor, ctx: EngineContext,
                           notes: list[str] | None = None):
    """Look for two maps into a catalog member agreeing on H, differing on G.

    Homs are bucketed by their images of H's generators, read from their
    tables at those generators' positions in ``G.indexed()``; the pair is
    the first two homs of the first bucket, in the canonical hom order, that
    holds two, so a pair with the inclusion map comes first when it is hom
    0.  Each catalog member's membership is kept in
    ``ctx.memberships[str(desc)]``, so it is computed once per context, and
    its hom list on G, so that is computed once per G object.  Exhaustion
    returns None: it proves nothing positive.  Skipped catalog entries are
    reported through the notes sink.
    """
    if notes is None:
        notes = []
    answers = ctx.memberships.setdefault(str(desc), {})
    positions = None
    for C in catalog:
        membership = _catalog_membership(C, desc, ctx, answers)
        if membership is False:
            continue
        if membership is None:
            notes.append(f"catalog group {C.name or C.degree} skipped: "
                         f"membership in {desc} unknown")
            continue
        try:
            homs = all_homomorphisms(G, C, ctx.budgets)
        except BudgetExceeded as exc:
            if exc.budget_name != "max_hom_product":
                raise
            notes.append(f"catalog group {C.name or C.degree} skipped: "
                         f"hom budget")
            continue
        if positions is None:  # G is listed now
            _, index, _ = G.indexed(ctx.budgets.max_enumerate)
            positions = [index[h.images] for h in H.generators]
        buckets: dict[tuple, list] = {}  # H-images -> homs, keyed in hom order
        for f in homs:
            buckets.setdefault(f.table_at(positions, ctx.budgets),
                               []).append(f)
        for f, g, *_ in (fs for fs in buckets.values() if len(fs) > 1):
            # distinct generator images are distinct maps: a witness exists
            witness = f.first_difference(g, ctx.budgets)
            certificate = {
                "kind": "separating-pair",
                "codomain": _group_json(C),
                "f_images": [str(p) for p in f.generator_images],
                "g_images": [str(p) for p in g.generator_images],
                "subgroup_generators": [str(h) for h in H.generators],
                "witness": str(witness),
                "f_witness": str(f.apply(witness, ctx.budgets)),
                "g_witness": str(g.apply(witness, ctx.budgets)),
            }
            return _verdict(ctx, NOT_EPI, [
                f"maps into {C.name or 'catalog group'} agree on the "
                f"subgroup generators",
                f"they differ at {witness}: the subgroup is not "
                f"epimorphically embedded",
            ], notes, certificate)
    return None


# -- the decision procedure ----------------------------------------------------------


def epi_decide(G: PermutationGroup, H: PermutationGroup, desc: Descriptor,
               ctx: EngineContext) -> EpiVerdict:
    """Decide whether H is epimorphically embedded in G in the variety."""
    if not H.is_subgroup_of(G):
        raise GroupError("H must be a subgroup of G")
    notes: list[str] = []
    try:
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

    # G's membership, computed once, and only when a rule reaches it
    member = cache(lambda: member_of_variety(G, desc, ctx.budgets,
                                             ctx.fixtures))
    if isinstance(desc, ProductVariety):
        verbal, trace, covers = _product_step(G, H, desc, ctx)
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
                membership = member()
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
        elif _nontrivial_left(desc, ctx):
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
    membership = member()
    if membership is True:
        verdict = neumann_not_epi_test(G, H, ctx)
        if verdict is not None:
            verdict.notes.extend(notes)
            return verdict
    else:
        notes.append(f"solvable-complement test skipped: membership of the "
                     f"group in {desc} is {membership}")
    verdict = separating_pair_search(G, H, ctx.catalog, desc, ctx,
                                     notes=notes)
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
    if verdict.outcome == UNKNOWN:
        return cert is None
    if verdict.outcome != _certified_outcome(cert):
        return False
    try:
        return _verify_cert(G, H, desc, cert, ctx)
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
                and cert == _neumann_cert(G, H, radical))
    if kind == "separating-pair":
        codomain = _group_from_json(cert["codomain"])
        C = _catalog_entry(codomain, ctx)
        # a pair separates in the variety only if its codomain lies in it;
        # the context keeps the answers of catalog members only
        answers = ({} if C is codomain
                   else ctx.memberships.setdefault(str(desc), {}))
        if _catalog_membership(C, desc, ctx, answers) is not True:
            return False
        f_images = _perms_from_json(cert["f_images"], C.degree)
        g_images = _perms_from_json(cert["g_images"], C.degree)
        f = GroupHomomorphism(G, C, f_images, budgets=ctx.budgets)
        g = GroupHomomorphism(G, C, g_images, budgets=ctx.budgets)
        if not f.agrees_on(g, H, ctx.budgets):
            return False
        witness, = _perms_from_json([cert["witness"]], G.degree)
        if not G.contains(witness):
            return False
        return (f.apply(witness, ctx.budgets)
                != g.apply(witness, ctx.budgets))
    if kind == "verbal-cover-failure" and isinstance(desc, ProductVariety):
        if not _nontrivial_left(desc, ctx):
            return False
        verbal, trace, covers = _product_step(G, H, desc, ctx)
        return (not covers
                and cert == _cover_failure_cert(G, H, desc, verbal, trace))
    if kind == "inner-dominion-failure" and isinstance(desc, ProductVariety):
        verbal, trace, _ = _product_step(G, H, desc, ctx)
        inner = cert.get("inner")
        return (member_of_variety(verbal, desc.left, ctx.budgets,
                                  ctx.fixtures) is True
                and cert == _inner_failure_cert(desc, verbal, trace, inner)
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
        return node == _whole_group_node() and H.order() == G.order()
    if rule == "fixture":
        fx = find_epi_fixture(ctx.fixtures, G, H, desc)
        return fx is not None and node == _fixture_node(fx)
    if rule == "product-splitting" and isinstance(desc, ProductVariety):
        verbal, trace, covers = _product_step(G, H, desc, ctx)
        inner = node.get("inner")
        return (covers and node == _splitting_node(desc, verbal, inner)
                and _verify_epi_node(verbal, trace, desc.left, inner, ctx))
    if rule == "direct-power-fixture":
        return _verify_power_node(G, H, desc, node, ctx)
    return False


def _verify_power_node(G, H, desc, node, ctx) -> bool:
    """G must be the product of block copies of the fixture group, on
    disjoint blocks, and H the matching power of the fixture subgroup; the
    dominion identity for finite direct powers then lifts the fixture to the
    whole power."""
    blocks = node.get("blocks")
    if not (isinstance(blocks, list)
            and all(isinstance(block, list) for block in blocks)):
        return False
    fx = next((fx for fx in ctx.fixtures
               if fx.kind == "known-epi" and fx.descriptor == desc
               and node == _power_node(fx, blocks)), None)
    if fx is None:
        return False
    points = [p for block in blocks for p in block]
    if not (all(len(block) == fx.group.degree for block in blocks)
            and all(type(p) is int and 0 <= p < G.degree for p in points)
            and len(set(points)) == len(points)
            and all(G.contains(_embed_on_points(g, block, G.degree))
                    for block in blocks for g in fx.group.generators)
            and G.order() == fx.group.order() ** len(blocks)):
        return False
    sub_gens = [_embed_on_points(h, block, G.degree)
                for block in blocks for h in fx.subgroup.generators]
    return G.subgroup(sub_gens).same_group_as(H)


def _embed_on_points(p: Permutation, points, degree: int) -> Permutation:
    images = list(range(degree))
    for i, j in enumerate(p.images):
        images[points[i]] = points[j]
    return Permutation(tuple(images))


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
    verbal = q_verbal(wreath.product, qdesc, ctx.budgets, ctx.fixtures)
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
    claim that no escape exists."""


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


def _prime_divisors(n: int) -> set[int]:
    primes = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            primes.add(d)
            n //= d
        d += 1
    if n > 1:
        primes.add(n)
    return primes


def escape_ladder(A: PermutationGroup):
    """The fixed candidate ladder: the trivial group, cyclic groups up to
    C12, then iterated wreath powers - restricted to orders built from the
    primes of |A| (the p-group mechanism behind the escape theorem)."""
    from .catalog import resolve_group_name
    allowed = _prime_divisors(A.order())
    names = [f"C{n}" for n in range(2, 13)]
    names += ["C2wrC2", "C2wrC2wrC2", "C3wrC3"]
    ladder = [trivial_group(1)]
    for name in names:
        candidate = resolve_group_name(name)
        if _prime_divisors(candidate.order()) <= allowed:
            ladder.append(candidate)
    return ladder


def find_wreath_escape(A: PermutationGroup, desc: Descriptor,
                       ctx: EngineContext) -> EscapeResult:
    """First ladder group G in the variety with A wr G outside it."""
    if A.order() == 1:
        raise GroupError("escape search needs a nontrivial base group")
    skipped = []
    for candidate in escape_ladder(A):
        label = candidate.name or f"order-{candidate.order()}"
        if candidate.order() > 1:
            membership = member_of_variety(candidate, desc, ctx.budgets,
                                           ctx.fixtures)
            if membership is not True:
                skipped.append(f"{label}: membership {membership}")
                continue
        try:
            wreath = regular_wreath(A, candidate, ctx.budgets)
        except BudgetExceeded as exc:
            skipped.append(f"{label}: {exc}")
            continue
        try:
            wreath_member = member_of_variety(wreath.product, desc,
                                              ctx.budgets, ctx.fixtures)
        except (BudgetExceeded, FixtureGap) as exc:
            skipped.append(f"{label}: wreath membership: {exc}")
            continue
        if wreath_member is False:
            return EscapeResult(base=A, top=candidate, wreath=wreath,
                                skipped=skipped)
        if wreath_member is None:
            skipped.append(f"{label}: wreath membership unknown")
    raise EscapeExhausted(
        "escape ladder exhausted without a witness; this does not claim "
        f"nonexistence (skipped: {'; '.join(skipped) or 'none'})")


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
    blocks = [list(wreath.block_range(c)) for c in range(wreath.block_count)]
    node = _splitting_node(desc, base, _power_node(fx, blocks))
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
