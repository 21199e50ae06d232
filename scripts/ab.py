#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: a parent revision against the
working tree.

    python3 scripts/ab.py --rev HEAD --workload sweep-solvable --seed 5 --pairs 10
    python3 scripts/ab.py --summarise runs.json

Both sides run in fresh trees side by side in one temporary directory
(removed at the end): ``parent`` holds REV's committed files, exported
with ``git archive``, and ``change`` a copy of the working tree's files
that git does not ignore, taken before the first run, so edits made
while the pairs run do not reach them.  The two paths have the same
length: the worker's peak RSS moves with it (on ``lattice``, the same
commit read 25.27 MB from a tree path five characters longer and 25.79 MB
from one as long as the other tree's).  The repository's ``.git`` is only
read.  Pair k runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0``, T being ``BENCHMARK.json``'s ``run_seconds``, once in each
tree, the parent first when k is odd and the working tree first when k
is even, so a slow stretch of the host does not always fall on one side.
Each run's record (side, pair, exit status, correctness, digests, the
end-to-end metrics) is appended to ``--out`` as soon as it ends, in the
shape of the ``runs`` lists of the committed ``BENCH_*.json`` files.

At the end, for each end-to-end metric of ``BENCHMARK.json``, it prints
both sides' medians and quartiles (``statistics.quantiles``, exclusive
method), the parent's interquartile range, the pairs the change won, and
whether a claimed gain would stand: the change better in at least nine
pairs of ten, and its median better than the parent's by more than the
parent's interquartile range.  A run that ends without its final line
(no failure count or metrics) makes the comparison incorrect; its pair
stays out of the statistics and counts as a pair the change did not win.
``--summarise FILE`` prints the same for a runs file already written and
runs nothing.  The exit status is 1 unless every run was correct.  Stdlib only.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from math import ceil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def end_to_end_metrics() -> list[tuple[str, str]]:
    """(name, "higher" or "lower") of each end-to-end metric."""
    return [(m["name"], m["better"]) for m in benchmark_spec()["end_to_end"]]


def run_order(pair: int) -> tuple[str, str]:
    """The sides of pair k (1-based) in the order they run."""
    return SIDES if pair % 2 else SIDES[::-1]


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="exclusive"))


def claim_holds(pairs: int, won: int, gain: float, parent_iqr: float) -> bool:
    """The change won at least nine pairs in ten, and its median is better
    by more than the parent's interquartile range."""
    return won >= ceil(0.9 * pairs) and gain > parent_iqr


def finished(run: dict) -> bool:
    """Whether the run printed its final line: failures and metrics."""
    return run.get("failed") is not None and bool(run.get("metrics"))


def summarise(runs: list[dict], metrics) -> dict:
    """The per-metric comparison of the pairs among runs that have both
    sides; only pairs whose two runs finished enter the statistics."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    sides = [p[s] for p in pairs for s in SIDES]
    measured = [p for p in pairs if all(finished(p[s]) for s in SIDES)]
    out = {
        "pairs": len(pairs),
        "pairs_measured": len(measured),
        "correct_all": all(r.get("correct") and finished(r) for r in sides),
        "failed_total": sum(r["failed"] for r in sides if finished(r)),
        "runs_unfinished": sum(not finished(r) for r in sides),
        "verdict_sha256_same": len({r.get("verdict_sha256")
                                    for r in sides}) <= 1,
    }
    if not measured:
        return out
    for name, better in metrics:
        sign = 1 if better == "higher" else -1
        values = {s: [p[s]["metrics"][name]["value"] for p in measured]
                  for s in SIDES}
        (p1, pm, p3), (c1, cm, c3) = (quartiles(values[s]) for s in SIDES)
        won = sum(sign * (c - p) > 0
                  for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            "parent_median": pm, "change_median": cm,
            "parent_q1": p1, "parent_q3": p3, "change_q1": c1,
            "change_q3": c3, "parent_iqr": p3 - p1,
            "pairs_change_better": won,
            "claim_holds": claim_holds(len(pairs), won, sign * (cm - pm),
                                       p3 - p1),
        }
    return out


def report(summary: dict) -> str:
    lines = [f"pairs {summary['pairs']} ({summary['pairs_measured']} "
             f"measured), correct {summary['correct_all']}, failed ops "
             f"{summary['failed_total']}, unfinished runs "
             f"{summary['runs_unfinished']}, one verdict digest "
             f"{summary['verdict_sha256_same']}"]
    for name, m in summary.items():
        if isinstance(m, dict):
            lines.append(
                f"{name:<16} parent {m['parent_median']:.6g} "
                f"[{m['parent_q1']:.6g}, {m['parent_q3']:.6g}]  change "
                f"{m['change_median']:.6g} [{m['change_q1']:.6g}, "
                f"{m['change_q3']:.6g}]  won {m['pairs_change_better']}/"
                f"{summary['pairs']}  claim "
                f"{'holds' if m['claim_holds'] else 'does not hold'}")
    return "\n".join(lines)


def export_trees(rev: str, trees: dict[str, Path]) -> None:
    """REV's committed files into trees["parent"], and the working tree's
    files that git does not ignore into trees["change"]."""
    def git(*args) -> bytes:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              check=True).stdout

    trees["parent"].mkdir()
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])],
                   input=git("archive", rev), check=True)
    listed = git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard").decode().split("\0")
    for name in listed:
        if name and (ROOT / name).is_file():  # not deleted since staged
            dest = trees["change"] / name
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest)


def json_line(line: str) -> dict:
    try:
        value = json.loads(line)
    except ValueError:
        return {}
    return value if isinstance(value, dict) else {}


def run_once(tree: Path, side: str, pair: int, seconds, args) -> dict:
    """One run.py run in tree, as the record the runs list keeps."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines() or ["{}"]
    first, last = json_line(lines[0]), json_line(lines[-1])
    rep = first.get("report", {})
    return {"workload": args.workload, "seed": args.seed,
            "seconds": seconds, "side": side, "pair": pair,
            "exit": proc.returncode, "correct": last.get("correct", False),
            "attempted": last.get("attempted"),
            "failed": last.get("failed"),
            "scenario_all_pinned": rep.get("scenario_all_pinned"),
            "scenario_all_sha256": rep.get("scenario_all_sha256"),
            "verdict_sha256": rep.get("verdict_sha256"),
            "metrics": last.get("metrics", {})}


def run_pairs(args) -> list[dict]:
    """The records of --pairs alternating pairs, REV against the tree."""
    seconds = benchmark_spec()["run_seconds"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="ab-", dir=args.workdir) as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        export_trees(args.rev, trees)
        for pair in range(1, args.pairs + 1):
            for side in run_order(pair):
                runs.append(run_once(trees[side], side, pair, seconds, args))
                print(f"pair {pair} {side}: exit {runs[-1]['exit']}",
                      file=sys.stderr, flush=True)
                if args.out:
                    args.out.write_text(json.dumps(runs, indent=1) + "\n",
                                        encoding="utf-8")
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path,
                        help="runs file, rewritten after every run")
    parser.add_argument("--workdir", type=Path,
                        help="where the temporary trees go")
    parser.add_argument("--summarise", type=Path, metavar="FILE",
                        help="summarise this runs file and run nothing")
    args = parser.parse_args(argv)
    if args.summarise:
        runs = json.loads(args.summarise.read_text(encoding="utf-8"))
    elif args.workload:
        runs = run_pairs(args)
    else:
        parser.error("--workload is needed unless --summarise is given")
    summary = summarise(runs, end_to_end_metrics())
    print(report(summary))
    return 0 if summary["correct_all"] else 1


if __name__ == "__main__":
    sys.exit(main())
