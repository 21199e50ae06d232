"""vlab: permutation-group kernels and a certified decision engine for
epimorphic embeddings of subgroups in product varieties of groups."""

from .config import Budgets, DEFAULT_BUDGETS
from .errors import (BudgetExceeded, DegreeMismatch, FixtureGap, GroupError,
                     ParseError)
from .perm import (Permutation, PermutationGroup, StabilizerChain,
                   alternating_group, cyclic_group, dihedral_group, named_group,
                   parse_permutation, symmetric_group, trivial_group)
from .structure import (conjugacy_classes, derived_series, derived_subgroup,
                        is_normal, is_solvable, lower_central_series,
                        normal_closure, normal_subgroups, normalizer,
                        product_covers, quotient, solvable_radical,
                        subgroup_intersection)
from .homs import GroupHomomorphism, all_homomorphisms
from .words import Word, parse_word
from .varieties import (Abelian, Fixture, Laws, NilpotentClass,
                        ProductVariety, SolvableLength, VarOfGroup,
                        eval_word, is_solvable_variety, member_of_variety,
                        parse_descriptor, q_verbal, satisfies_laws,
                        verbal_subgroup)
from .constructions import (direct_power, direct_product, kaloujnine_krasner,
                            regular_wreath)
from .wreath_z import (TailConstantFn, WreathZElement, depth2_witness,
                       solve_commutator, verify_commutator_solution,
                       wz_commutator, wz_inverse, wz_multiply)
from .power_series import (SeriesParams, TruncatedSeries, law_failure_witness,
                           magnus_image)
from .engine import (DominionBounds, EngineContext, EpiVerdict, EPI, NOT_EPI,
                     UNKNOWN, dominion_bounds, epi_decide, find_wreath_escape,
                     mckay_bound, neumann_not_epi_test, separating_pair_search,
                     simpletimes_pipeline, verify_certificate,
                     verify_qofsimple)
from .catalog import (bundled_catalog, bundled_fixtures, load_catalog,
                      load_fixtures, resolve_group_name)

__version__ = "0.1.0"
