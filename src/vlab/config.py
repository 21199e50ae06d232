"""Resource budgets for the combinatorial kernels.

Every potentially expensive operation takes an explicit budget; exceeding a
bound raises BudgetExceeded (through errors.check_budget, with budget_name,
limit and requested set) rather than silently degrading.  Each field below is
also a `vlab` option: max_enumerate is --max-enumerate, and so on for
--max-normal-enumeration (which also caps all_subgroups), --max-normalizer,
--max-hom-product, --max-wreath-top and --max-tuples.  Verdict reports echo
the budgets they ran under so that "unknown" outcomes are attributable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Budgets:
    # Cap on explicit element enumeration (elements(), conjugacy classes,
    # intersection filtering, quotients, homomorphism tables and checks).
    max_enumerate: int = 100_000
    # Cap on |G| for normal-subgroup enumeration (solvable radical) and for
    # the full subgroup lattice.
    max_normal_enumeration: int = 10_000
    # Cap on |G| for brute-force normalizers.
    max_normalizer: int = 100_000
    # Cap on |G| * |C| for homomorphism search G -> C.
    max_hom_product: int = 10_000_000
    # Cap on |B| when forming a regular wreath product A wr B.
    max_wreath_top: int = 12
    # Cap on |G| ** arity tuple enumeration for word values; the search for
    # a law witness stops after this many tuples.
    max_tuples: int = 3_000_000

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_BUDGETS = Budgets()

# Fixed caps, not Budgets fields: reports echo every field, and these never
# vary.  MAX_DEGREE bounds the degree of a named, constructed or loaded
# group; MAX_CHAIN_WORK bounds one stabilizer-chain build (orbit size x level
# generators x degree, summed over level rebuilds: S60 takes about 6 * 10**7);
# MAX_NESTING bounds the prod( or bracket nesting that the parsers recurse on.
MAX_DEGREE = 10_000
MAX_CHAIN_WORK = 100_000_000
MAX_NESTING = 50
