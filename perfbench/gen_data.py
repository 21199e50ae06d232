"""Regenerate the benchmark's input pools and pinned answers under data/.

    PYTHONPATH=src python3 perfbench/gen_data.py

The pools are computed once here, with vlab, so that a benchmark run never
times subgroup enumeration while it sets up.  The answers pinned here are
checked against oracles that share no code with vlab where one exists
(subgroup counts by a tuple-based closure, closed-form orders); the
`sweep-laws` verdicts and the `vlab scenario --all` digest are pinned as the
program gives them at the commit that generated the data.  Rerun this tool
only when the pools themselves should change: the point of pinned answers is
that a later program must reproduce them.
"""

from __future__ import annotations

import json
import random
import sys
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
sys.path.insert(0, str(ROOT / "src"))

from vlab.catalog import resolve_group_name  # noqa: E402
from vlab.engine import (EngineContext, epi_decide, find_wreath_escape,  # noqa: E402
                         simpletimes_pipeline, verify_certificate,
                         verify_qofsimple)
from vlab.perm import Permutation, PermutationGroup  # noqa: E402
from vlab.structure import all_subgroups, normal_subgroups  # noqa: E402
from vlab.varieties import parse_descriptor  # noqa: E402
from vlab.words import parse_word  # noqa: E402
from run import scenario_all_sha256  # noqa: E402
from workloads import compose  # noqa: E402

LAWS = "laws:{x1^6}"
SWEEP_MAX_ORDER = 24
LATTICE_ORDERS = range(16, 25)


def group_data(G: PermutationGroup) -> dict:
    return {"name": G.name, "degree": G.degree, "order": G.order(),
            "gens": [list(g.images) for g in G.generators]}


# -- an order/subgroup oracle that shares no code with vlab -------------------


def closure(gens, degree):
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = compose(a, g)
                if c not in elements:
                    elements.add(c)
                    new.append(c)
        frontier = new
    return frozenset(elements)


def count_subgroups(gens, degree) -> int:
    """Every subgroup is a join of cyclic ones: close joins until stable."""
    elements = closure(gens, degree)
    cyclic = {}
    for x in elements:
        cyclic.setdefault(closure([x], degree), x)
    found = {C: [x] for C, x in cyclic.items()}
    frontier = list(found)
    while frontier:
        new = []
        for S in frontier:
            for C, x in cyclic.items():
                if C <= S:
                    continue
                T = closure(found[S] + [x], degree)
                if T not in found:
                    found[T] = found[S] + [x]
                    new.append(T)
        frontier = new
    return len(found)


# -- pools ---------------------------------------------------------------------


def sweep_pool(ctx) -> dict:
    desc = parse_descriptor(LAWS)
    groups = []
    for G in ctx.catalog:
        if G.order() > SWEEP_MAX_ORDER:
            continue
        subs = []
        for H in all_subgroups(G):
            if H.order() == G.order():
                continue
            verdict = epi_decide(G, H, desc, ctx)
            if not verify_certificate(G, H, desc, verdict, ctx):
                raise SystemExit(f"certificate fails for {G.name}")
            kind = (verdict.certificate or {}).get("kind", "unknown")
            subs.append({"order": H.order(),
                         "gens": [list(h.images) for h in H.generators],
                         "laws": [verdict.outcome, kind]})
        if subs:
            groups.append({"name": G.name, "subgroups": subs})
    return {"laws_descriptor": LAWS, "solvable_descriptor": "Sl:3",
            "groups": groups}


def lattice_pool(ctx) -> list:
    chosen = [G for G in ctx.catalog if G.order() in LATTICE_ORDERS]
    chosen.append(resolve_group_name("A5"))
    out = []
    for G in chosen:
        entry = group_data(G)
        count = count_subgroups([g.images for g in G.generators], G.degree)
        if count != len(all_subgroups(G)):
            raise SystemExit(f"subgroup count disagrees on {G.name}")
        entry["subgroups"] = count
        out.append(entry)
    return out


def random_word(rng) -> list:
    arity = rng.randint(1, 3)
    letters = []
    for _ in range(rng.randint(1, 4)):
        var = rng.randint(1, arity)
        if letters and letters[-1][0] == var:
            continue
        exp = rng.choice([-1, 1]) * rng.randint(1, 12)
        letters.append((var, exp))
    return letters


def constructions_pool(ctx) -> dict:
    rng = random.Random(19980717)
    words, seen = [], set()
    while len(words) < 48:
        letters = random_word(rng)
        text = " ".join(f"x{v}^{e}" for v, e in letters)
        if text in seen:
            continue
        seen.add(text)
        if list(parse_word(text).letters) != [tuple(x) for x in letters]:
            raise SystemExit(f"word {text} does not round-trip")
        words.append({"word": text, "letters": letters})

    commutator = []
    for name in ("S3", "D4", "A4"):
        G = resolve_group_name(name)
        for _ in range(12):
            support = {}
            for _ in range(rng.randint(1, 6)):
                support[rng.randint(-6, 6)] = list(G.random_element(rng).images)
            commutator.append({"group": group_data(G),
                               "support": sorted(support.items()),
                               "seed": list(G.random_element(rng).images)})

    small = [G for G in ctx.catalog if 2 <= G.order() <= 12]
    kk = []
    for E in small:
        for A in normal_subgroups(E):
            if 1 < A.order() < E.order():
                kk.append({"group": group_data(E),
                           "normal": [list(a.images) for a in A.generators],
                           "normal_order": A.order()})

    wreath = []
    names = ["C2", "C3", "S3", "C4", "C2^2", "A4", "D4", "C5"]
    for a in names:
        for b in ("C2", "C3", "C4", "S3"):
            A, B = resolve_group_name(a), resolve_group_name(b)
            if A.degree * B.order() <= 24:
                wreath.append({"bottom": group_data(A), "top": group_data(B)})

    chains = [{"kind": k, "n": n} for n in range(8, 13) for k in ("S", "A")]
    for c in chains:
        c["order"] = factorial(c["n"]) // (2 if c["kind"] == "A" else 1)

    a5 = resolve_group_name("A5")
    a4_gens = [[1, 2, 0, 3, 4], [0, 2, 3, 1, 4]]
    pipeline = []
    for q in ("A", "Nc:2"):
        H = a5.subgroup([Permutation(tuple(g)) for g in a4_gens])
        report = simpletimes_pipeline(a5, H, parse_descriptor("var:A5"),
                                      parse_descriptor(q), ctx)
        pipeline.append({"simple": group_data(a5), "sub": a4_gens,
                         "left": "var:A5", "right": q,
                         "outcome": report.verdict.outcome,
                         "top": report.escape.top.name})

    escape = []
    for base, desc in (("C2", "A"), ("C2", "Nc:2"), ("C3", "A"),
                       ("C3", "Nc:2"), ("S3", "A"), ("C2", "Sl:2")):
        A = resolve_group_name(base)
        result = find_wreath_escape(A, parse_descriptor(desc), ctx)
        top = result.top
        escape.append({"base": group_data(A), "variety": desc,
                       "top": top.name or str(top.order()),
                       "top_order": top.order(),
                       "witness_order": result.wreath.product.order()})
        if result.wreath.product.order() != A.order() ** top.order() * top.order():
            raise SystemExit(f"escape witness order for {base}, {desc}")

    qofsimple = []
    for b, q in (("C2", "A"), ("C3", "A"), ("C2", "Nc:2"), ("C2", "Sl:2")):
        B = resolve_group_name(b)
        report = verify_qofsimple(a5, B, parse_descriptor(q), ctx)
        qofsimple.append({"simple": group_data(a5), "top": group_data(B),
                          "variety": q, "branch": report.branch})

    return {"magnus": words, "primes": [2, 3, 5], "commutator": commutator,
            "kaloujnine_krasner": kk, "wreath": wreath, "chains": chains,
            "pipeline": pipeline, "escape": escape, "qofsimple": qofsimple}


def write(name: str, value) -> None:
    DATA.mkdir(exist_ok=True)
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    (DATA / name).write_text(text + "\n")


def main() -> None:
    ctx = EngineContext.bundled()
    write("lattice.json", lattice_pool(ctx))
    write("constructions.json", constructions_pool(ctx))
    write("sweep.json", sweep_pool(ctx))
    write("pins.json", {"scenario_all_sha256": scenario_all_sha256()})


if __name__ == "__main__":
    main()
