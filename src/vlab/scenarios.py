"""Bundled scenarios: named, deterministic reruns of the headline results.

Each scenario builds its own inputs, runs the engine, and compares against
the recorded expected outcome; reports carry no timestamps so that two runs
are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .catalog import resolve_group_name
from .engine import (EngineContext, EPI, NOT_EPI, UNKNOWN, epi_decide,
                     find_wreath_escape, mckay_bound, verify_certificate,
                     verify_qofsimple)
from .errors import GroupError
from .perm import alternating_group, pad_permutation, symmetric_group
from .structure import all_subgroups, nilpotency_class
from .varieties import parse_descriptor
from .words import parse_word
from .wreath_z import (TailConstantFn, solve_commutator,
                       verify_commutator_solution)
from .power_series import law_failure_witness


@dataclass
class Scenario:
    name: str
    description: str
    run: Callable[[EngineContext], dict]


def _a4_in_a5(ctx):
    a5 = alternating_group(5)
    gens = [pad_permutation(g, 5) for g in alternating_group(4).generators]
    return a5, a5.subgroup(gens, name="A4<A5")


def scenario_neumann_a4a5(ctx: EngineContext) -> dict:
    a5, a4 = _a4_in_a5(ctx)
    desc = parse_descriptor("prod(var:A5,A)")
    verdict = epi_decide(a5, a4, desc, ctx)
    ok = (verdict.outcome == EPI
          and verify_certificate(a5, a4, desc, verdict, ctx))
    return {"ok": ok, "expected": EPI, "verdict": verdict.to_json()}


def scenario_mckay_bound_demo(ctx: EngineContext) -> dict:
    s4 = symmetric_group(4)
    s3 = s4.subgroup([pad_permutation(g, 4)
                      for g in symmetric_group(3).generators], name="S3<S4")
    abelian = parse_descriptor("A")
    bound1 = mckay_bound(s4, s3, abelian, ctx)
    a5, a4 = _a4_in_a5(ctx)
    bound2 = mckay_bound(a5, a4, abelian, ctx)
    ok = bound1.order() == 24 and bound2.order() == 60
    return {"ok": ok,
            "bound_orders": {"S4/S3 under prod(A,A)": bound1.order(),
                             "A5/A4 under prod(var:A5,A)": bound2.order()}}


def scenario_commofwr_fuzz(ctx: EngineContext) -> dict:
    rng = random.Random(20240210)
    groups = [resolve_group_name(n) for n in ("S3", "D4", "A4")]
    runs = 0
    failures = 0
    for _ in range(60):
        G = groups[rng.randrange(len(groups))]
        support = {}
        for _ in range(rng.randint(1, 6)):
            support[rng.randint(-5, 5)] = G.random_element(rng)
        phi = TailConstantFn.make(G, support)
        seeds = [G.identity(), G.random_element(rng)]
        solutions = []
        for seed in seeds:
            psi = solve_commutator(phi, seed)
            solutions.append(psi)
            runs += 1
            if not verify_commutator_solution(phi, psi):
                failures += 1
        lo = min(solutions[0].lo, solutions[1].lo) - 1
        hi = max(solutions[0].hi, solutions[1].hi) + 1
        deltas = {solutions[0].value(n) * solutions[1].value(n).inverse()
                  for n in range(lo, hi + 1)}
        if len(deltas) != 1:
            failures += 1
    return {"ok": failures == 0, "runs": runs, "failures": failures}


def scenario_qofsimple_a5c2(ctx: EngineContext) -> dict:
    a5 = alternating_group(5)
    c2 = resolve_group_name("C2")
    base = verify_qofsimple(a5, c2, parse_descriptor("A"), ctx)
    trivial = verify_qofsimple(a5, c2, parse_descriptor("laws:{x1^60}"), ctx)
    ok = (base.branch == "base" and base.verbal_order == 3600
          and trivial.branch == "trivial")
    return {"ok": ok, "abelian_branch": base.to_json(),
            "exponent60_branch": trivial.to_json()}


def scenario_escape_abelian(ctx: EngineContext) -> dict:
    result = find_wreath_escape(resolve_group_name("C2"),
                                parse_descriptor("A"), ctx)
    witness = result.wreath.product
    ok = (result.top.name == "C2" and witness.order() == 8
          and not witness.is_abelian())
    return {"ok": ok, "escape": result.to_json()}


def scenario_escape_nil2(ctx: EngineContext) -> dict:
    result = find_wreath_escape(resolve_group_name("C2"),
                                parse_descriptor("Nc:2"), ctx)
    witness = result.wreath.product
    cls = nilpotency_class(witness)
    ok = (result.top.name == "C4" and witness.order() == 64
          and cls is not None and cls >= 3)
    return {"ok": ok, "escape": result.to_json(), "witness_class": cls}


MAGNUS_CORPUS = [
    "x1", "x1^2", "x1^3", "x1^4", "x1^6",
    "x1 x2", "x1 x2^-1", "x1^2 x2", "x1 x2 x1", "x1 x2 x3",
    "[x1,x2]", "x1^2 x2^2", "x1^2 x2^-2", "x1^2 x2 x1^-1", "[x1,x2] x3",
    "x1 x2 x1 x2", "x1^3 x2^3", "[x1,x2^2]", "x1 x2 x3 x1 x2 x3",
    "x1^2 x2^3",
]


def scenario_magnus_corpus(ctx: EngineContext) -> dict:
    checks = []
    ok = True
    for text in MAGNUS_CORPUS:
        word = parse_word(text)
        for p in (2, 3):
            report = law_failure_witness(word, p)
            checks.append({"word": text, "p": p,
                           "d": report.truncation,
                           "coefficient": report.extracted_coefficient,
                           "consistent": report.consistent})
            ok = ok and report.consistent
    return {"ok": ok, "cases": len(checks), "checks": checks}


def scenario_solvable_exhaustive(ctx: EngineContext) -> dict:
    desc = parse_descriptor("Sl:3")
    total = 0
    wrong = []
    unknowns = 0
    for G in ctx.catalog:
        if G.order() > 24:
            continue
        for H in all_subgroups(G, ctx.budgets):
            if H.order() == G.order():
                continue
            total += 1
            verdict = epi_decide(G, H, desc, ctx)
            if verdict.outcome == UNKNOWN:
                unknowns += 1
            elif verdict.outcome != NOT_EPI:
                wrong.append((G.name, H.order()))
            elif not verify_certificate(G, H, desc, verdict, ctx):
                wrong.append((G.name, H.order()))
    ok = not wrong and unknowns == 0
    return {"ok": ok, "proper_subgroups_checked": total,
            "unknown_count": unknowns, "failures": wrong}


SCENARIOS = [
    Scenario("neumann-a4a5",
             "decide the A4-in-A5 embedding in prod(var:A5,A)",
             scenario_neumann_a4a5),
    Scenario("mckay-bound-demo",
             "verbal-times-subgroup upper bounds on two instances",
             scenario_mckay_bound_demo),
    Scenario("commofwr-fuzz",
             "commutator solving in G wr Z on random supports and seeds",
             scenario_commofwr_fuzz),
    Scenario("qofsimple-a5c2",
             "both branches of the wreath verbal dichotomy on A5 wr C2",
             scenario_qofsimple_a5c2),
    Scenario("escape-abelian",
             "wreath escape from the abelian variety for C2",
             scenario_escape_abelian),
    Scenario("escape-nil2",
             "wreath escape from nilpotency class 2 for C2",
             scenario_escape_nil2),
    Scenario("magnus-corpus",
             "unit-group law failures for a corpus of reduced words",
             scenario_magnus_corpus),
    Scenario("solvable-exhaustive",
             "every proper subgroup of every catalog group of order <= 24 "
             "is not epimorphically embedded under Sl:3",
             scenario_solvable_exhaustive),
]


def find_scenario(name: str) -> Scenario:
    for s in SCENARIOS:
        if s.name == name:
            return s
    raise GroupError(f"unknown scenario {name!r}; "
                     f"known: {', '.join(s.name for s in SCENARIOS)}")
