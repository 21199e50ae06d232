"""One pass of a workload in a fresh process, so that no pass inherits
another's caches.  run.py starts it; it prints one JSON object.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD SEED PASS TRACE [SPANS_FILE]

PASS is the pass's index within the run; with SEED it picks the inputs.

TRACE is 0, 1 (trace this pass) or setup (stop once the first op is ready).
The ready time is read from CLOCK_MONOTONIC, which run.py also reads before
it starts this process, so their difference is the whole start-up time,
interpreter included; `setup_s` is vlab's part of it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass
from time import perf_counter

from tracer import Tracer
from workloads import Runner, build_inputs, load_data

CERT_KINDS = ("neumann-solvable-complement", "solvable-class-rule",
              "separating-pair", "verbal-cover-failure",
              "inner-dominion-failure", "epi-derivation", "unknown")


# The host's speed swings by a factor of two within seconds, and vlab's ops
# slow down with it.  So a fixed loop of the same kind of work as vlab's hot
# path (validated immutable permutations composed and stored in a dict),
# sharing no code with vlab, is timed before the pass and after every
# SEGMENT_S of op time.  Each op's latency is also given in reference
# seconds: rescaled to a host on which that loop takes exactly REF_LOOP_S.
SEGMENT_S = 0.1
REF_LOOP_S = 0.001


@dataclass(frozen=True)
class _RefPerm:
    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("not a permutation")

    def __mul__(self, other):
        q = other.images
        return _RefPerm(tuple(q[i] for i in self.images))


_REF_PERMS = [_RefPerm(tuple((7 * i + k) % 12 for i in range(12)))
              for k in range(1, 12)]


def reference_loop() -> float:
    start = perf_counter()
    seen = {}
    x = _REF_PERMS[0]
    for i in range(600):
        x = x * _REF_PERMS[i % 11]
        seen[x.images] = x
    return perf_counter() - start


def host_speed() -> float:
    """Seconds the reference loop takes now (best of three)."""
    return min(reference_loop() for _ in range(3))


def run_pass(runner: Runner, ops: list, tracer: Tracer | None = None) -> dict:
    """Run every op in a closed loop; time only the vlab call."""
    latencies, segments = [], []
    speeds = [host_speed()]
    since = 0.0
    digest = hashlib.sha256()
    failed = decisions = unknowns = 0
    errors = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        try:
            result = runner.call(op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            result, raised = None, exc
        else:
            raised = None
        elapsed = perf_counter() - start
        latencies.append(elapsed)
        segments.append(len(speeds) - 1)
        if raised is not None:
            failed += 1
            errors.append(f"op {i} {op[0]}: {raised!r}")
            item = ["raised", i]
        else:
            try:
                item, ok, decision, unknown = runner.check(op, result)
            except Exception as exc:  # a malformed result fails its check
                item, ok, decision, unknown = ["unchecked", i], False, 0, 0
                errors.append(f"op {i} {op[0]}: check raised {exc!r}")
            if not ok:
                failed += 1
                errors.append(f"op {i} {op[0]}: wrong answer")
            decisions += decision
            unknowns += unknown
        digest.update(json.dumps(item, sort_keys=True).encode() + b"\n")
        result = None
        since += elapsed
        if since >= SEGMENT_S:
            speeds.append(host_speed())
            since = 0.0
    speeds.append(host_speed())
    ref = [lat * 2 * REF_LOOP_S / (speeds[s] + speeds[s + 1])
           for lat, s in zip(latencies, segments)]
    return {"latencies": latencies, "ref_latencies": ref,
            "host_speed_s": speeds, "attempted": len(ops), "failed": failed,
            "errors": errors[:10], "decisions": decisions,
            "unknowns": unknowns, "verdict_sha256": digest.hexdigest()}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer numbers of one traced pass (without trace overhead)."""
    c, inc = tracer.counts, tracer.inclusive
    own = tracer.layer_self()
    metrics = {
        "perm.mul_calls": c["perm.Permutation.__mul__"],
        "perm.validated": c["perm.Permutation.__post_init__"],
        "perm.chain_builds": c["perm.StabilizerChain.__init__"],
        "perm.chain_build_s": inc["perm.StabilizerChain.__init__"],
        "perm.sift_calls": c["perm.StabilizerChain._sift_from"],
        "perm.elements_enumerated": c["perm.StabilizerChain.iter_elements"],
        "perm.self_s": own["perm"],
        "structure.solvable_radical_calls": c["structure.solvable_radical"],
        "structure.solvable_radical_s": inc["structure.solvable_radical"],
        "structure.all_subgroups_s": inc["structure.all_subgroups"],
        "structure.normal_closure_calls": c["structure.normal_closure"],
        "structure.conjugacy_classes_calls": c["structure.conjugacy_classes"],
        "structure.self_s": own["structure"],
        "homs.all_homomorphisms_calls": c["homs.all_homomorphisms"],
        "homs.all_homomorphisms_s": inc["homs.all_homomorphisms"],
        "homs.homs_enumerated": c["homs.homs_enumerated"],
        "homs.self_s": own["homs"],
        "varieties.member_of_variety_calls": c["varieties.member_of_variety"],
        "varieties.member_of_variety_s": inc["varieties.member_of_variety"],
        "varieties.q_verbal_calls": c["varieties.q_verbal"],
        "varieties.self_s": own["varieties"],
        "words.evaluate_calls": c["words.Word.evaluate"],
        "engine.decide_s": inc["engine.epi_decide"],
        "engine.verify_s": inc["engine.verify_certificate"],
        "engine.separating_search_s": inc["engine.separating_pair_search"],
        "engine.self_s": own["engine"],
        "constructions.regular_wreath_calls": c["constructions.regular_wreath"],
        "constructions.self_s": own["constructions"],
        "wreath_z.wz_multiply_calls": c["wreath_z.wz_multiply"],
        "wreath_z.self_s": own["wreath_z"],
        "power_series.series_mul_calls": c["power_series.TruncatedSeries.__mul__"],
        "power_series.self_s": own["power_series"],
        "catalog.self_s": own["catalog"],
    }
    for kind in CERT_KINDS:
        metrics[f"engine.cert.{kind}"] = tracer.verdicts[kind]
    pairs = tracer.verdicts["separating-pair"]
    metrics["engine.homs_per_separating_pair"] = (
        c["homs.homs_enumerated"] / pairs if pairs else 0.0)
    return metrics


def main(argv) -> int:
    workload, mode = argv[1], argv[4]
    seed, pass_index = int(argv[2]), int(argv[3])
    # set-up is vlab's part of start-up: import, EngineContext.bundled() and
    # loading the inputs, rescaled by the host speed just before and after
    speed = host_speed()
    start = perf_counter()
    tracer = None
    if mode == "1":
        import vlab  # noqa: F401  (the tracer patches loaded vlab modules)
        tracer = Tracer()
        tracer.install()
    data = load_data()
    ops = build_inputs(workload, seed, data, pass_index)
    runner = Runner(workload, data)
    setup = perf_counter() - start
    out = {"ready": time.monotonic(), "setup_wall_s": setup}
    speed += host_speed()
    out["setup_s"] = setup * 2 * REF_LOOP_S / speed
    if mode != "setup":
        out.update(run_pass(runner, ops, tracer))
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        out["spans"] = len(tracer.span_start)
        out["missing"] = tracer.missing
        if len(argv) > 5:
            tracer.write_spans(argv[5])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
