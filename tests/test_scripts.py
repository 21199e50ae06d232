"""The scripts under scripts/ run end to end: each main() returns 0.

lift_demo re-verifies the pipeline's certificates under A, Nc:2 and Sl:2;
run_scenarios reruns every bundled scenario against its recorded outcome.
reach's ledger, recomputed, is the committed REACH.json.
"""

import importlib.util
import json
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
