#!/usr/bin/env python3
"""Walk the finite lifting construction end to end and print every check.

Starting from the externally sourced fact that the point stabilizer A4 is
epimorphically embedded in A5 within var:A5, the script lifts that
embedding through a wreath escape into prod(var:A5, Q) for a choice of
quotient varieties Q, printing the escape rung, the verbal dichotomy, the
covering check, and the final certified verdict.
"""

import sys

from vlab.catalog import resolve_group_name
from vlab.engine import EngineContext, simpletimes_pipeline, verify_certificate
from vlab.perm import alternating_group, pad_permutation
from vlab.varieties import ProductVariety, parse_descriptor


def main() -> int:
    ctx = EngineContext.bundled()
    a5 = alternating_group(5)
    a4 = a5.subgroup([pad_permutation(g, 5)
                      for g in alternating_group(4).generators], name="A4<A5")
    left = parse_descriptor("var:A5")
    for right_text in ("A", "Nc:2", "Sl:2"):
        right = parse_descriptor(right_text)
        print(f"=== lifting A4 < A5 from {left} into prod({left},{right})")
        report = simpletimes_pipeline(a5, a4, left, right, ctx)
        print(f"outcome: {report.verdict.outcome}")
        if report.escape is not None:
            top = report.escape.top
            print(f"escape rung: {top.name or 'trivial'} "
                  f"(order {top.order()}); "
                  f"wreath order {report.details['wreath_order']}")
            for line in report.verdict.derivation:
                print(f"  {line}")
            W = report.escape.wreath
            ok = verify_certificate(
                W.product, W.wreath_subgroup(a4),
                ProductVariety(left, right), report.verdict, ctx)
            print(f"certificate re-verification: {ok}")
            if not ok:
                return 1
        print()
    print("escape rungs for small bases:")
    for base_name, desc_text in (("C2", "A"), ("C2", "Nc:2"), ("C3", "A"),
                                 ("A5", "A")):
        from vlab.engine import find_wreath_escape
        base = resolve_group_name(base_name)
        result = find_wreath_escape(base, parse_descriptor(desc_text), ctx)
        print(f"  {base_name} escapes {desc_text} at "
              f"{result.top.name or 'trivial'}: witness order "
              f"{result.wreath.product.order()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
