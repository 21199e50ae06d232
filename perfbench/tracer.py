"""Outside-in tracer: wraps vlab's public functions from the benchmark's code.

No file of vlab is edited.  Each traced name is replaced, in every `vlab.*`
namespace that binds it, by a wrapper that either records a span (name,
start, end, parent span, op id) or only counts calls.  Hot `Permutation`
methods are count-only: a span per product would cost more than the product.
Spans stay in memory and are written out when the pass ends.

Self time of a span is its duration minus the part of it that its child
spans cover.  Time spent in count-only methods therefore lands in the self
time of the nearest enclosing span: `perm.self_s` is the time inside the
chain builds and element listings, not every product; `perm.mul_calls` is
the count that sees every product.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

SPAN, COUNT, GENERATOR = "span", "count", "generator"

# (module, attribute path, mode); the span or count name is
# "<layer>.<attribute path>", the layer being the module's last component.
TRACED = [
    ("vlab.perm", "Permutation.__mul__", COUNT),
    ("vlab.perm", "Permutation.__post_init__", COUNT),
    ("vlab.perm", "StabilizerChain._sift_from", COUNT),
    ("vlab.perm", "StabilizerChain.iter_elements", GENERATOR),
    ("vlab.perm", "StabilizerChain.__init__", SPAN),
    ("vlab.perm", "PermutationGroup.elements", SPAN),
] + [("vlab.structure", name, SPAN) for name in (
    "normal_closure", "generated_subgroup", "derived_subgroup",
    "derived_series", "is_solvable", "derived_length", "lower_central_series",
    "nilpotency_class", "is_normal", "subgroup_intersection", "product_covers",
    "product_subgroup", "conjugacy_classes", "class_representatives",
    "normalizer", "quotient", "element_normal_closures", "normal_subgroups",
    "solvable_radical", "all_subgroups")] + [
    ("vlab.structure", "commutator", COUNT),
] + [("vlab.homs", name, SPAN) for name in (
    "all_homomorphisms", "inclusion_hom", "identity_endomorphism",
    "GroupHomomorphism.first_difference", "GroupHomomorphism.kernel",
    "GroupHomomorphism.is_injective")] + [
    ("vlab.homs", "GroupHomomorphism.apply", COUNT),
] + [("vlab.varieties", name, SPAN) for name in (
    "member_of_variety", "q_verbal", "verbal_subgroup", "satisfies_laws",
    "is_solvable_variety", "parse_descriptor", "find_epi_fixture",
    "find_member_fixture", "descriptor_laws")] + [
    ("vlab.varieties", "eval_word", COUNT),
    ("vlab.words", "Word.evaluate", COUNT),
    ("vlab.words", "parse_word", SPAN),
] + [("vlab.engine", name, SPAN) for name in (
    "epi_decide", "verify_certificate", "separating_pair_search",
    "neumann_not_epi_test", "dominion_bounds", "mckay_bound",
    "find_wreath_escape", "escape_ladder", "simpletimes_pipeline",
    "verify_qofsimple", "is_simple_nonabelian")] + [
    ("vlab.constructions", name, SPAN) for name in (
        "regular_wreath", "kaloujnine_krasner", "direct_power",
        "direct_product")] + [
    ("vlab.wreath_z", name, SPAN) for name in (
        "solve_commutator", "verify_commutator_solution", "wz_multiply",
        "wz_inverse", "wz_commutator", "depth2_witness")] + [
    ("vlab.power_series", "law_failure_witness", SPAN),
    ("vlab.power_series", "magnus_image", SPAN),
    ("vlab.power_series", "TruncatedSeries.__mul__", COUNT),
] + [("vlab.catalog", name, SPAN) for name in (
    "build_catalog", "bundled_catalog", "bundled_fixtures",
    "resolve_group_name", "load_catalog", "load_fixtures")]


class Tracer:
    """Spans and counts for one pass.  Set `op` before each op."""

    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        # inclusive time of the outermost span of each name (recursion-safe)
        self.inclusive: Counter = Counter()
        self.active: Counter = Counter()
        # certificate kind of each outermost epi_decide verdict
        self.verdicts: Counter = Counter()
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, counts, active = self.stack, self.counts, self.active
        starts, ends = self.span_start, self.span_end
        parents, ops, names = self.span_parent, self.span_op, self.span_name
        tracer = self
        is_decide = name == "engine.epi_decide"
        is_homs = name == "homs.all_homomorphisms"

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            counts[name] += 1
            outermost = not active[name]
            active[name] += 1
            stack.append(idx)
            start = starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = ends[idx] = perf_counter()
                stack.pop()
                active[name] -= 1
                if outermost:
                    tracer.inclusive[name] += end - start
            if is_decide and outermost:
                cert = result.certificate
                tracer.verdicts[cert["kind"] if cert else "unknown"] += 1
            if is_homs:
                counts["homs.homs_enumerated"] += len(result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts[name] += n

        return wrapper

    # -- installation ----------------------------------------------------------------

    def install(self):
        """Wrap every name in TRACED; report, do not fail on, missing names."""
        make = {SPAN: self._span_wrapper, COUNT: self._count_wrapper,
                GENERATOR: self._generator_wrapper}
        for module_name, path, mode in TRACED:
            label = f"{module_name.rsplit('.', 1)[-1]}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(label)
                continue
            wrapper = make[mode](label, original)
            if outer:
                self._patch(owner, attr, original, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name != "vlab" and not name.startswith("vlab."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        n = len(self.span_start)
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                children[p].append(i)
        out = []
        for i in range(n):
            lo, hi = self.span_start[i], self.span_end[i]
            covered = 0.0
            reach = lo
            for c in sorted(children[i], key=self.span_start.__getitem__):
                a = max(self.span_start[c], reach)
                b = min(self.span_end[c], hi)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((hi - lo) - covered)
        return out

    def layer_self(self) -> Counter:
        totals: Counter = Counter()
        for i, t in enumerate(self.self_times()):
            totals[self.names[self.span_name[i]].split(".", 1)[0]] += t
        return totals

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, op id."""
        with open(path, "w") as out:
            for i in range(len(self.span_start)):
                out.write(json.dumps([self.names[self.span_name[i]],
                                      self.span_start[i], self.span_end[i],
                                      self.span_parent[i], self.span_op[i]]))
                out.write("\n")
