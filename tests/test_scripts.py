"""The scripts under scripts/ run end to end: each main() returns 0.

lift_demo re-verifies the pipeline's certificates under A, Nc:2 and Sl:2;
run_scenarios reruns every bundled scenario against its recorded outcome.
reach's ledger, recomputed, is the committed REACH.json.  linecov,
run over one test file, reports the lines that file never reaches.  ab's
summary of canned pairs applies the claim rule (no benchmark runs here).
mutants lists the verifiers' conjuncts without running a mutant.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name,
                                                  SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["lift_demo", "run_scenarios"])
def test_script_main_returns_zero(name, capsys):
    assert load(name).main() == 0
    assert capsys.readouterr().out


def test_the_committed_reach_ledger_is_what_the_engine_reaches():
    reach = load("reach")
    committed = json.loads(reach.LEDGER.read_text(encoding="utf-8"))
    assert reach.ledger() == committed


def first_body_line(module: str, function: str) -> str:
    """``src/vlab/MODULE:LINE`` of the function's first statement after
    its docstring."""
    path = SCRIPTS.parent / "src" / "vlab" / module
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            first = node.body[1 if ast.get_docstring(node) else 0]
            return f"src/vlab/{module}:{first.lineno}"
    raise LookupError(function)


def test_linecov_lists_the_lines_a_test_file_never_runs():
    root = SCRIPTS.parent
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "linecov.py"), "-q",
         "-p", "no:cacheprovider", "tests/test_wreath_z.py"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:]
    lines = set(run.stdout.splitlines())
    assert first_body_line("engine.py", "simpletimes_pipeline") in lines
    assert first_body_line("wreath_z.py", "solve_commutator") not in lines
    assert any(line.endswith("never run  src/vlab/wreath_z.py")
               for line in lines)


def canned_runs(parent: list[float], change: list[float]) -> list[dict]:
    """One run per side and pair, with ops_per_ref_s and op_tail_ref_ms
    (its inverse) as the only metrics."""
    return [{"pair": pair, "side": side, "correct": True, "failed": 0,
             "verdict_sha256": "same",
             "metrics": {"ops_per_ref_s": {"value": value},
                         "op_tail_ref_ms": {"value": 1 / value}}}
            for pair, values in enumerate(zip(parent, change), start=1)
            for side, value in zip(("parent", "change"), values)]


AB_METRICS = [("ops_per_ref_s", "higher"), ("op_tail_ref_ms", "lower")]
PARENT = [100.0 + k for k in range(10)]  # quartiles 101.75, 104.5, 107.25


def test_ab_alternates_which_side_runs_first():
    ab = load("ab")
    assert [ab.run_order(k) for k in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_ab_claim_holds_on_nine_wins_and_a_gap_past_the_parent_iqr():
    ab = load("ab")
    change = [99.0] + [p + 10 for p in PARENT[1:]]
    summary = ab.summarise(canned_runs(PARENT, change), AB_METRICS)
    assert summary["pairs"] == 10 and summary["verdict_sha256_same"]
    ops = summary["ops_per_ref_s"]
    assert (ops["parent_q1"], ops["parent_median"], ops["parent_q3"]) == (
        101.75, 104.5, 107.25)
    assert ops["parent_iqr"] == 5.5 and ops["change_median"] == 114.5
    assert ops["pairs_change_better"] == 9 and ops["claim_holds"]
    tail = summary["op_tail_ref_ms"]  # lower is better
    assert tail["pairs_change_better"] == 9 and tail["claim_holds"]
    assert "won 9/10  claim holds" in ab.report(summary)


@pytest.mark.parametrize("change", [
    [p + 1 for p in PARENT],                  # ten wins, gap inside the IQR
    [99.0, 99.0] + [p + 10 for p in PARENT[2:]],  # eight wins
    [p - 10 for p in PARENT],                 # worse
], ids=["narrow-gap", "eight-wins", "worse"])
def test_ab_claim_fails_on_a_narrow_gap_or_too_few_wins(change):
    summary = load("ab").summarise(canned_runs(PARENT, change), AB_METRICS)
    assert not summary["ops_per_ref_s"]["claim_holds"]
    assert not summary["op_tail_ref_ms"]["claim_holds"]


def test_ab_summary_flags_a_run_that_crashed():
    runs = canned_runs(PARENT[:3], [p + 10 for p in PARENT[:3]])
    runs[3].update(correct=False, failed=None, verdict_sha256=None,
                   metrics={})  # pair 2's change printed no final line
    ab = load("ab")
    summary = ab.summarise(runs, AB_METRICS)
    assert not summary["correct_all"] and summary["runs_unfinished"] == 1
    assert (summary["pairs"], summary["pairs_measured"]) == (3, 2)
    assert summary["failed_total"] == 0
    ops = summary["ops_per_ref_s"]
    assert ops["parent_median"] == 101.0 and ops["pairs_change_better"] == 2
    assert not ops["claim_holds"]  # the crashed pair counts as not won
    assert "(2 measured)" in ab.report(summary)


def test_ab_summary_counts_only_complete_pairs():
    runs = canned_runs(PARENT[:3], PARENT[:3])[:-1]  # pair 3 lacks a side
    runs[0]["verdict_sha256"] = "other"
    summary = load("ab").summarise(runs, AB_METRICS)
    assert summary["pairs"] == 2 and not summary["verdict_sha256_same"]
    assert summary["ops_per_ref_s"]["pairs_change_better"] == 0


NEUMANN_CONJUNCTS = [
    "member_of_variety(G, desc, ctx.budgets, ctx.fixtures) is True",
    "is_normal(G, radical)", "is_solvable(radical)",
    "product_covers(G, H, radical, ctx.budgets)", "H.order() < G.order()",
    "_same(cert, _neumann_cert(G, H, radical))"]


def test_mutants_list_finds_the_six_neumann_conjuncts(capsys):
    mutants = load("mutants")
    assert mutants.main(["--list"]) == 0
    listed = [line.split("  ", 1) for line in
              capsys.readouterr().out.splitlines()]
    engine = (SCRIPTS.parent / mutants.ENGINE).read_text(encoding="utf-8")
    lines = engine.splitlines()
    neumann = [(place, text) for place, text in listed
               if text in NEUMANN_CONJUNCTS]
    assert [text for _, text in neumann] == NEUMANN_CONJUNCTS
    for place, text in neumann:
        assert text in lines[int(place.rsplit(":", 1)[1]) - 1]
    # every mutant is the engine with one operand replaced by True
    for operand in mutants.mutants(engine):
        mutated = mutants.mutate(engine, operand)
        compile(mutated, mutants.ENGINE, "exec")
        assert len(mutated) == len(engine) - len(
            ast.get_source_segment(engine, operand)) + len("True")
