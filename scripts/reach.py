#!/usr/bin/env python3
"""Write the verdict-reach ledger, REACH.json, at the root of the repository.

The pool is every proper subgroup H of every bundled catalog group G of
order at most 24.  Under each descriptor below, one shared engine context
decides every (G, H); the ledger counts the outcomes and the certificate
kinds, and how many of the decided verdicts re-verify.  A change that moves
a verdict moves a count here.

    PYTHONPATH=src python3 scripts/reach.py
"""

import json
import sys
from collections import Counter
from pathlib import Path

from vlab.engine import EngineContext, epi_decide, verify_certificate
from vlab.structure import all_subgroups
from vlab.varieties import parse_descriptor

LEDGER = Path(__file__).resolve().parent.parent / "REACH.json"
MAX_ORDER = 24
DESCRIPTORS = ("Sl:3", "Sl:2", "prod(A,A)", "laws:{x1^6}", "A", "Nc:2",
               "laws:{x1^2}", "var:A5", "var:S4", "var:D4", "var:S3")


def ledger() -> dict:
    ctx = EngineContext.bundled()
    pool = [(G, H) for G in ctx.catalog if G.order() <= MAX_ORDER
            for H in all_subgroups(G, ctx.budgets) if H.order() < G.order()]
    rows = {}
    for text in DESCRIPTORS:
        desc = parse_descriptor(text)
        outcomes, kinds, verified = Counter(), Counter(), 0
        for G, H in pool:
            verdict = epi_decide(G, H, desc, ctx)
            outcomes[verdict.outcome] += 1
            if verdict.certificate is not None:
                kinds[verdict.certificate["kind"]] += 1
                verified += verify_certificate(G, H, desc, verdict, ctx)
        rows[text] = {"outcomes": dict(sorted(outcomes.items())),
                      "certificates": dict(sorted(kinds.items())),
                      "verified": verified}
    return {"pool": f"proper subgroups of catalog groups of order <= "
                    f"{MAX_ORDER}",
            "inputs": len(pool), "descriptors": rows}


def main() -> int:
    LEDGER.write_text(json.dumps(ledger(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {LEDGER.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
