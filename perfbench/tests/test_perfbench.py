"""Tests of the benchmark's own arithmetic, inputs, oracles and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import tracer as tracer_module
from tracer import Tracer
from worker import run_pass
from workloads import WORKLOADS, Runner, allocate, build_inputs, load_data

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def data():
    return load_data()


def synthetic(spans):
    """A tracer holding (name, start, end, parent) spans, in that order."""
    t = Tracer()
    for name, start, end, parent in spans:
        if name not in t.names:
            t.names.append(name)
        t.span_name.append(t.names.index(name))
        t.span_start.append(start)
        t.span_end.append(end)
        t.span_parent.append(parent)
        t.span_op.append(0)
    return t


def test_self_time_is_duration_minus_child_coverage():
    t = synthetic([
        ("engine.epi_decide", 0.0, 10.0, -1),
        ("structure.solvable_radical", 1.0, 4.0, 0),
        ("homs.all_homomorphisms", 3.0, 6.0, 0),   # overlaps its sibling
        ("perm.StabilizerChain.__init__", 2.0, 3.0, 1),
        ("perm.StabilizerChain.__init__", 8.0, 12.0, 0),  # runs past parent
    ])
    assert t.self_times() == [3.0, 2.0, 3.0, 1.0, 4.0]
    layers = t.layer_self()
    assert layers == Counter({"engine": 3.0, "structure": 2.0, "homs": 3.0,
                              "perm": 5.0})


def test_percentiles():
    assert run.percentile([3, 1, 2], 50) == 2
    assert run.percentile(list(range(1, 101)), 99) == 99
    assert run.tail_percentile(49) == 75
    assert run.tail_percentile(266) == 95
    assert run.tail_percentile(962) == 98
    assert run.tail_percentile(303) == 95


def test_allocate_is_proportional_and_exact():
    cells = [[0] * 5, [0] * 3, [0] * 1]
    assert allocate(cells, 4) == [2, 1, 1]   # quotas 2.22, 1.33, 0.44
    for k in range(10):
        assert sum(allocate(cells, k)) == k


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(data, workload):
    first = build_inputs(workload, 7, data)
    assert first == build_inputs(workload, 7, data)
    assert first != build_inputs(workload, 8, data)
    assert first != build_inputs(workload, 7, data, pass_index=1)


def test_constructions_run_every_pool_entry_once(data):
    pool = data["constructions"]
    ops = build_inputs("constructions", 1, data)
    kinds = Counter(op[0] for op in ops)
    assert kinds["magnus"] == len(pool["magnus"]) * len(pool["primes"])
    for kind in ("commutator", "kaloujnine_krasner", "wreath", "chains",
                 "pipeline", "escape", "qofsimple"):
        assert kinds[kind] == len(pool[kind])
    assert len({json.dumps(op, sort_keys=True) for op in ops}) == len(ops)


def test_laws_draw_has_the_same_mix_for_every_seed(data):
    def mix(seed):
        ops = build_inputs("sweep-laws", seed, data)
        return Counter((op[1], tuple(op[3])) for op in ops)
    assert mix(1) == mix(2) == mix(3)


def test_corrupted_answer_counts_as_failed_op(data):
    ops = build_inputs("sweep-laws", 1, data)[:4]
    ops[0] = ops[0][:3] + [["epi", "epi-derivation"]]
    lattice = build_inputs("lattice", 1, data)
    small = min(lattice, key=lambda op: op[4])
    bad_count = small[:4] + [small[4] + 1]
    result = run_pass(Runner("sweep-laws", data), ops)
    assert (result["attempted"], result["failed"]) == (4, 1)
    result = run_pass(Runner("lattice", data), [small, bad_count])
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_raising_op_counts_as_failed_op(data):
    op = build_inputs("sweep-solvable", 1, data)[0]
    broken = op[:2] + [[[0, 0]]] + op[3:]   # not a permutation
    result = run_pass(Runner("sweep-solvable", data), [op, broken])
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "op 1" in result["errors"][0]


def test_traced_and_untraced_digests_agree(data):
    ops = build_inputs("sweep-laws", 3, data)[:30]
    ops += build_inputs("constructions", 3, data)[:60]
    plain = run_pass(Runner("sweep-laws", data), ops)
    t = Tracer()
    t.install()
    try:
        traced = run_pass(Runner("sweep-laws", data), ops, t)
    finally:
        t.uninstall()
    assert not t.missing
    assert t.counts["engine.epi_decide"] >= 30
    assert plain["failed"] == traced["failed"] == 0
    assert plain["verdict_sha256"] == traced["verdict_sha256"]


def test_missing_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer_module, "TRACED", tracer_module.TRACED + [
        ("vlab.engine", "no_such_function", tracer_module.SPAN),
        ("vlab.no_such_module", "f", tracer_module.COUNT)])
    t = Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["engine.no_such_function", "no_such_module.f"]


COUNTS_SCRIPT = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
from tracer import Tracer
from worker import layer_metrics, run_pass
from workloads import Runner, build_inputs, load_data
import vlab
t = Tracer()
t.install()
data = load_data()
ops = build_inputs("sweep-laws", 5, data)[:25] + build_inputs("constructions", 5, data)[:40]
run_pass(Runner("sweep-laws", data), ops, t)
print(json.dumps({{k: v for k, v in layer_metrics(t).items() if not k.endswith("_s")}}))
"""


def test_traced_counts_repeat_exactly():
    script = COUNTS_SCRIPT.format(bench=str(BENCH), src=str(ROOT / "src"))
    runs = [subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, check=True, timeout=300).stdout
            for _ in range(2)]
    first, second = (json.loads(r) for r in runs)
    assert first == second
    assert first["perm.mul_calls"] > 0 and first["engine.cert.unknown"] >= 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "lattice", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
