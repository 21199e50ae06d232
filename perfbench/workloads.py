"""The four benchmark workloads: seeded inputs, the timed call, the oracle.

Inputs come from the pools under data/ (see gen_data.py); the seed and the
pass index only order, stratify or relabel them, so the same seed and pass
give the same list.
Each op is one user-level vlab call.  `Runner.call` is the timed part;
`Runner.check` compares its result with an answer that does not come from
the code under test (a theorem, a closed form, a tuple-based recomputation,
or a verdict pinned in data/), and returns what goes into the verdict digest.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("sweep-solvable", "sweep-laws", "lattice", "constructions")

# sweep-laws draws this many subgroups from every catalog group (all of them
# when a group has fewer), so every seed runs the same group mix.
LAWS_PER_GROUP = 4

def load_data() -> dict:
    return {name: json.loads((DATA / f"{name}.json").read_text())
            for name in ("sweep", "lattice", "constructions", "pins")}


# -- seeded inputs ---------------------------------------------------------------


def relabel(gens, sigma):
    """Conjugate image tuples by the point permutation sigma."""
    out = []
    for g in gens:
        images = [0] * len(g)
        for i, j in enumerate(g):
            images[sigma[i]] = sigma[j]
        out.append(images)
    return out


def allocate(cells, k):
    """Largest-remainder split of k draws over cells in proportion to size."""
    total = sum(len(c) for c in cells)
    quotas = [k * len(c) / total for c in cells]
    counts = [int(q) for q in quotas]
    order = sorted(range(len(cells)), key=lambda i: counts[i] - quotas[i])
    for i in order[:k - sum(counts)]:
        counts[i] += 1
    return counts


def sweep_inputs(workload, rng, pool):
    ops = []
    for group in pool["groups"]:
        subs = group["subgroups"]
        if workload == "sweep-solvable":
            chosen = subs
        else:
            # cells of like cost: same pinned verdict and subgroup order
            keys = sorted({(tuple(s["laws"]), s["order"]) for s in subs})
            cells = [[s for s in subs if (tuple(s["laws"]), s["order"]) == key]
                     for key in keys]
            counts = allocate(cells, min(LAWS_PER_GROUP, len(subs)))
            chosen = [s for cell, n in zip(cells, counts)
                      for s in rng.sample(cell, n)]
        for s in chosen:
            expected = s["laws"] if workload == "sweep-laws" else None
            ops.append(["sweep", group["name"], s["gens"], expected])
    rng.shuffle(ops)
    return ops


def lattice_inputs(rng, pool):
    ops = []
    for g in pool:
        sigma = list(range(g["degree"]))
        rng.shuffle(sigma)
        ops.append(["lattice", g["name"], g["degree"],
                    relabel(g["gens"], sigma), g["subgroups"]])
    rng.shuffle(ops)
    return ops


def symmetric_gens(kind, n):
    cycle = list(range(1, n)) + [0]
    if kind == "S":
        return [cycle, [1, 0] + list(range(2, n))]
    three = [1, 2, 0] + list(range(3, n))
    if n % 2:
        return [three, cycle]
    return [three, [0] + list(range(2, n)) + [1]]


def construction_inputs(rng, pool):
    """Every pool entry once (each Magnus word once per prime), so that no
    input repeats within a pass; every group but the pipeline's is
    relabelled by its own seeded point permutation."""
    def points(degree):
        sigma = list(range(degree))
        rng.shuffle(sigma)
        return sigma

    def group(data, sigma=None):
        if sigma is None:
            sigma = points(data["degree"])
        return {**data, "gens": relabel(data["gens"], sigma)}

    ops = [["magnus", w, p] for w in pool["magnus"] for p in pool["primes"]]
    for e in pool["commutator"]:
        sigma = points(e["group"]["degree"])
        ops.append(["commutator", {
            **e, "group": group(e["group"], sigma),
            "support": [[n, relabel([g], sigma)[0]] for n, g in e["support"]],
            "seed": relabel([e["seed"]], sigma)[0]}])
    for e in pool["kaloujnine_krasner"]:
        sigma = points(e["group"]["degree"])
        ops.append(["kaloujnine_krasner", {
            **e, "group": group(e["group"], sigma),
            "normal": relabel(e["normal"], sigma)}])
    for e in pool["wreath"]:
        ops.append(["wreath", {"bottom": group(e["bottom"]),
                               "top": group(e["top"])}])
    for e in pool["chains"]:
        gens = relabel(symmetric_gens(e["kind"], e["n"]), points(e["n"]))
        ops.append(["chains", e, gens])
    # the pipeline lifts a bundled fixture stated on fixed points, which a
    # relabelled pair would not match, so its inputs keep their labels
    ops += [["pipeline", e] for e in pool["pipeline"]]
    for e in pool["escape"]:
        ops.append(["escape", {**e, "base": group(e["base"])}])
    for e in pool["qofsimple"]:
        ops.append(["qofsimple", {**e, "simple": group(e["simple"]),
                                  "top": group(e["top"])}])
    rng.shuffle(ops)
    return ops


def build_inputs(workload: str, seed: int, data: dict,
                 pass_index: int = 0) -> list:
    """The op list for one pass: a pure function of its arguments."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    if workload in ("sweep-solvable", "sweep-laws"):
        return sweep_inputs(workload, rng, data["sweep"])
    if workload == "lattice":
        return lattice_inputs(rng, data["lattice"])
    if workload == "constructions":
        return construction_inputs(rng, data["constructions"])
    raise ValueError(f"unknown workload {workload!r}")


# -- oracle helpers that share no code with vlab ---------------------------------


def compose(p, q):
    """Left-to-right product on image tuples: (p*q)(x) = q(p(x))."""
    return tuple(q[i] for i in p)


def invert(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def valuation(n, p):
    k = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        k += 1
    return k


def wreath_order(bottom_order, top_order):
    return bottom_order ** top_order * top_order


# -- the timed call and its check ----------------------------------------------------


class Runner:
    """Shared state for one pass: the engine context and parsed descriptors.

    vlab is imported here, not at module level, so that input building runs
    without it.  vlab functions are looked up at call time, so that the
    tracer's wrappers, installed before a Runner is made, are the ones called.
    """

    def __init__(self, workload: str, data: dict):
        import vlab
        from vlab import structure
        self.vlab = vlab
        self.structure = structure
        self.ctx = vlab.EngineContext.bundled()
        self.catalog = {G.name: G for G in self.ctx.catalog}
        sweep = data["sweep"]
        descriptor = (sweep["laws_descriptor"] if workload == "sweep-laws"
                      else sweep["solvable_descriptor"])
        self.desc = vlab.parse_descriptor(descriptor)

    def group(self, data):
        P = self.vlab.Permutation
        return self.vlab.PermutationGroup(
            data["degree"], [P(tuple(g)) for g in data["gens"]])

    def call(self, op):
        v = self.vlab
        kind = op[0]
        if kind == "sweep":
            G = self.catalog[op[1]]
            H = G.subgroup([v.Permutation(tuple(g)) for g in op[2]])
            verdict = v.epi_decide(G, H, self.desc, self.ctx)
            return verdict, v.verify_certificate(G, H, self.desc, verdict,
                                                 self.ctx)
        if kind == "lattice":
            G = v.PermutationGroup(op[2], [v.Permutation(tuple(g))
                                           for g in op[3]])
            return self.structure.all_subgroups(G)
        entry = op[1]
        if kind == "magnus":
            return v.law_failure_witness(v.parse_word(entry["word"]), op[2])
        if kind == "commutator":
            G = self.group(entry["group"])
            phi = v.TailConstantFn.make(
                G, {n: v.Permutation(tuple(g)) for n, g in entry["support"]})
            psi = v.solve_commutator(phi, v.Permutation(tuple(entry["seed"])))
            return psi, v.verify_commutator_solution(phi, psi)
        if kind == "kaloujnine_krasner":
            E = self.group(entry["group"])
            A = E.subgroup([v.Permutation(tuple(g)) for g in entry["normal"]])
            return v.kaloujnine_krasner(E, A, self.ctx.budgets)
        if kind == "wreath":
            return v.regular_wreath(self.group(entry["bottom"]),
                                    self.group(entry["top"]),
                                    self.ctx.budgets).product.order()
        if kind == "chains":
            n = entry["n"]
            return v.PermutationGroup(n, [v.Permutation(tuple(g))
                                          for g in op[2]]).order()
        if kind == "pipeline":
            S = self.group(entry["simple"])
            H = S.subgroup([v.Permutation(tuple(g)) for g in entry["sub"]])
            return v.simpletimes_pipeline(
                S, H, v.parse_descriptor(entry["left"]),
                v.parse_descriptor(entry["right"]), self.ctx)
        if kind == "escape":
            return v.find_wreath_escape(self.group(entry["base"]),
                                        v.parse_descriptor(entry["variety"]),
                                        self.ctx)
        if kind == "qofsimple":
            return v.verify_qofsimple(self.group(entry["simple"]),
                                      self.group(entry["top"]),
                                      v.parse_descriptor(entry["variety"]),
                                      self.ctx)
        raise ValueError(f"unknown op kind {kind!r}")

    def check(self, op, result):
        """(digest item, ok, is a decision, is unknown) for one op."""
        kind = op[0]
        if kind == "sweep":
            verdict, verified = result
            expected = op[3]
            cert_kind = (verdict.certificate or {}).get("kind", "unknown")
            if expected is None:
                # Sl:3 is a solvable class containing every group of order
                # <= 24, so no proper subgroup is epimorphically embedded
                ok = verdict.outcome == "not_epi"
            else:
                ok = [verdict.outcome, cert_kind] == list(expected)
            item = [op[1], op[2], verdict.to_json()]
            return item, ok and verified, True, verdict.outcome == "unknown"
        if kind == "lattice":
            orders = sorted(H.order() for H in result)
            return [op[1], len(result), orders], len(result) == op[4], False, False
        entry = op[1]
        if kind == "magnus":
            p = op[2]
            truncation = 1 + sum(p ** valuation(e, p) for _, e in entry["letters"])
            ok = result.consistent and result.truncation == truncation
            item = [entry["word"], p, result.truncation,
                    result.extracted_coefficient]
            return item, ok, False, False
        if kind == "commutator":
            psi, verified = result
            support = {n: tuple(g) for n, g in entry["support"]}
            identity = tuple(range(entry["group"]["degree"]))
            ok = verified
            for n in range(min(support) - 2, max(support) + 3):
                got = compose(invert(psi.value(n).images),
                              psi.value(n - 1).images)
                ok = ok and got == support.get(n, identity)
            return [str(psi)], ok, False, False
        if kind == "kaloujnine_krasner":
            hom, wreath, quotient = result
            top = entry["group"]["order"] // entry["normal_order"]
            ok = (quotient.group.order() == top and wreath.product.order()
                  == wreath_order(entry["normal_order"], top))
            item = [wreath.product.order(),
                    [str(g) for g in hom.generator_images]]
            return item, ok, False, False
        if kind == "wreath":
            expected = wreath_order(entry["bottom"]["order"],
                                    entry["top"]["order"])
            return [result], result == expected, False, False
        if kind == "chains":
            return [result], result == entry["order"], False, False
        if kind == "pipeline":
            escape = result.escape
            ok = (escape is not None
                  and result.verdict.outcome == entry["outcome"]
                  and escape.top.name == entry["top"]
                  and escape.wreath.product.order() == wreath_order(
                      entry["simple"]["order"], escape.top.order()))
            return [result.to_json()], ok, False, False
        if kind == "escape":
            top = result.top
            ok = ((top.name or str(top.order())) == entry["top"]
                  and result.wreath.product.order() == wreath_order(
                      entry["base"]["order"], top.order()))
            return [result.to_json()], ok, False, False
        if kind == "qofsimple":
            base = entry["simple"]["order"] ** entry["top"]["order"]
            expected = base if entry["branch"] == "base" else 1
            ok = (result.branch == entry["branch"]
                  and result.verbal_order == expected)
            return [result.to_json()], ok, False, False
        raise ValueError(f"unknown op kind {kind!r}")
