"""vlab's benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep-solvable --seed 1 --seconds 20 --trace 0

Run from the root of a vlab checkout.  Each pass of the workload runs in a
fresh process (worker.py), one op at a time: a closed loop with a single
caller, so no pass inherits caches from another.  Pass k of a run takes
its inputs from (seed, k).  With --trace 0, passes repeat for about
--seconds and every metric in BENCHMARK.json's `end_to_end` list is printed.
With --trace 1, one untraced and one traced pass of the inputs of pass 0
give the `per_layer` list, and must give the same verdicts.
The last line of standard output is one JSON object; lines before it are a
readable report.  Any oracle mismatch makes the run fail (exit 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from worker import REF_LOOP_S  # noqa: E402
from workloads import WORKLOADS, load_data  # noqa: E402

# set-up is short and noisy, so it is sampled this many times per run
MIN_SETUPS = 9
# the tail is the highest of these percentiles with ten samples beyond it
PERCENTILES = (50, 75, 90, 95, 98, 99, 99.5, 99.9)
# no pass starts after this many seconds, so a run ends within 180 s
LAST_START_S = 120
WORKER_TIMEOUT_S = 150


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(ceil(p / 100 * len(ordered)) - 1, 0)]


def tail_percentile(n: int) -> float:
    fitting = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    return fitting[-1] if fitting else PERCENTILES[0]


def latency_metrics(results: list) -> dict:
    """Throughput is a median over passes; latency percentiles are taken
    over the latencies of all passes pooled, at the tail percentile that a
    single pass supports, so they do not depend on the number of passes."""
    p = tail_percentile(results[0]["attempted"])
    out = {"tail_percentile": p}
    for clock, key in (("ref_", "ref_latencies"), ("wall_", "latencies")):
        pooled = [x for r in results for x in r[key]]
        out[f"ops_per_{clock}s"] = statistics.median(
            len(r[key]) / sum(r[key]) for r in results)
        out[f"op_p50_{clock}ms"] = 1000 * percentile(pooled, 50)
        out[f"op_tail_{clock}ms"] = 1000 * percentile(pooled, p)
    return out


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload, seed, pass_index, mode, spans_file=None) -> dict:
    """Run one pass (or only its set-up) in a fresh process."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(pass_index), mode]
    if spans_file:
        cmd.append(str(spans_file))
    start = time.monotonic()
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["startup_wall_s"] = result["ready"] - start
    return result


def source_digest() -> str:
    digest = hashlib.sha256(sys.version.encode())
    for path in sorted((ROOT / "src" / "vlab").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def scenario_all_sha256() -> str:
    """sha256 of the bytes that `vlab scenario --all` prints."""
    proc = subprocess.run([sys.executable, "-m", "vlab.cli", "scenario",
                           "--all"], env=worker_env(), cwd=ROOT,
                          capture_output=True, timeout=WORKER_TIMEOUT_S)
    return hashlib.sha256(proc.stdout).hexdigest()


def scenario_digest() -> str:
    """scenario_all_sha256(), computed once per source tree.

    It takes about ten seconds, outside every timed pass; the result is kept
    under out/ keyed by a digest of the sources, like a build product.
    """
    cache = OUT / f"scenario-{source_digest()[:16]}.json"
    if cache.exists():
        return json.loads(cache.read_text())["scenario_all_sha256"]
    digest = scenario_all_sha256()
    cache.write_text(json.dumps({"scenario_all_sha256": digest}))
    return digest


def build() -> None:
    """Byte-compile the sources so that no set-up sample pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/vlab",
                    str(HERE.relative_to(ROOT))], env=worker_env(), cwd=ROOT,
                   check=True, capture_output=True, timeout=WORKER_TIMEOUT_S)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args) -> tuple[dict, dict, list]:
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(run_worker(args.workload, args.seed, len(passes), "0"))
        now = time.monotonic()
        # stop when one more pass would end further past --seconds than
        # stopping now falls short of it
        if (now - start + (now - began) / 2 >= args.seconds
                or now - start > LAST_START_S):
            break
    starts = list(passes)
    while len(starts) < MIN_SETUPS:
        starts.append(run_worker(args.workload, args.seed, len(starts),
                                 "setup"))
    lat = latency_metrics(passes)
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    decisions = sum(r["decisions"] for r in passes)
    unknowns = sum(r["unknowns"] for r in passes)
    metrics = {
        "setup_s": metric(statistics.median(r["setup_s"] for r in starts), "s"),
        "ops_per_ref_s": metric(lat["ops_per_ref_s"], "1/ref_s"),
        "op_p50_ref_ms": metric(lat["op_p50_ref_ms"], "ref_ms"),
        "op_tail_ref_ms": metric(lat["op_tail_ref_ms"], "ref_ms"),
        "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
        "decided_ratio": metric(
            (decisions - unknowns) / decisions if decisions else 1.0, "ratio"),
        "peak_rss_mb": metric(statistics.median(
            r["peak_rss_kb"] / 1024 for r in passes), "MB"),
    }
    report = {
        "passes": len(passes), "ops_per_pass": passes[0]["attempted"],
        "tail_percentile": lat["tail_percentile"],
        "latency_samples": attempted,
        "decisions": decisions, "unknowns": unknowns,
        "fail_ratio": failed / attempted,
        "unknown_ratio": unknowns / decisions if decisions else 0.0,
        "setup_samples_s": [r["setup_s"] for r in starts],
        "per_pass": [latency_metrics([r]) for r in passes],
        "wall_clock": {
            "setup_s": statistics.median(r["setup_wall_s"] for r in starts),
            "startup_s": statistics.median(r["startup_wall_s"] for r in starts),
            **{key: lat[key] for key in (
                "ops_per_wall_s", "op_p50_wall_ms", "op_tail_wall_ms")}},
    }
    return metrics, report, passes


def per_layer(args) -> tuple[dict, dict, list]:
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    plain = run_worker(args.workload, args.seed, 0, "0")
    traced = run_worker(args.workload, args.seed, 0, "1", spans)
    layers = traced["layers"]
    layers["trace.overhead_ratio"] = (sum(traced["ref_latencies"])
                                      / sum(plain["ref_latencies"]))
    metrics = {name: metric(value, unit_of(name))
               for name, value in layers.items()}
    report = {
        "spans": traced["spans"], "spans_file": str(spans.relative_to(ROOT)),
        "missing_names": traced["missing"],
        "homs_per_separating_pair_base": {
            "homs.homs_enumerated": layers["homs.homs_enumerated"],
            "engine.cert.separating-pair":
                layers["engine.cert.separating-pair"]},
    }
    return metrics, report, [plain, traced]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_separating_pair"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vlab" / "__init__.py").is_file():
        print(f"no vlab sources under {ROOT / 'src'}: run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    pinned = load_data()["pins"]["scenario_all_sha256"]
    try:
        build()
        scenario = scenario_digest()
        if args.trace:
            metrics, report, passes = per_layer(args)
        else:
            metrics, report, passes = end_to_end(args)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    # the untraced and traced passes of --trace 1 share their inputs
    digests = [p["verdict_sha256"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = (failed == 0 and scenario == pinned
               and (not args.trace or len(set(digests)) == 1))
    report.update({
        "workload": args.workload, "seed": args.seed,
        "verdict_sha256": digests[0], "verdict_sha256_per_pass": digests,
        "scenario_all_sha256": scenario, "scenario_all_pinned": pinned,
        "errors": [e for p in passes for e in p["errors"]][:10],
    })
    print(json.dumps({"report": report}, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:>15} {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
