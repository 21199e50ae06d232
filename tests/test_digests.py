"""The benchmark's passes at seed 5 give the same verdicts, by digest.

``perfbench/worker.py WORKLOAD 5 PASS 0`` runs one pass and hashes every
op's answer into ``verdict_sha256``.  A change that moves no verdict, no
certificate and no construction result keeps every digest.  Each
workload's first pass is pinned, and so are lattice passes 1 and 2, which
relabel every group differently from pass 0 and so list its elements, and
build its columns, in other orders.  The test runs the worker as it stands
and writes nothing under ``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "sweep-solvable":
        "9ff14f4f29ee65abb1f1d4950c9802d9c356e40ed76c4d6bf0c3228efa03ce26",
    "sweep-laws":
        "eb67be750cc73d6488643d63d29f4c5167161735b855ae856106b3b39f1c8e7b",
    "lattice":
        "ea917c76f870620caa513cba46a06bcf3e7c2d1b973d40bbbb823230bec90a89",
    "constructions":
        "958e84744fc4bef78e89bc25837f2382e8cd18f2e7ce5582dafd6e064d03190b",
}

LATER_LATTICE_DIGESTS = {
    1: "dd16fef9c155839be6f0251333a7e250c8bb1f2c5af810d69dde77c961de7565",
    2: "c4e391cb32f197759dec73ddc8c2b742b79ea711532fa1c43a092ba1baa9b1f7",
}


def worker_digest(workload: str, pass_index: int) -> str:
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload,
         "5", str(pass_index), "0"], cwd=ROOT, env=env, capture_output=True,
        text=True, check=True, timeout=300)
    out = json.loads(proc.stdout)
    assert out["failed"] == 0, out["errors"]
    return out["verdict_sha256"]


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_first_pass_verdicts_keep_their_digest(workload):
    assert worker_digest(workload, 0) == DIGESTS[workload]


@pytest.mark.parametrize("pass_index", list(LATER_LATTICE_DIGESTS))
def test_later_lattice_passes_keep_their_digest(pass_index):
    assert worker_digest("lattice", pass_index) == \
        LATER_LATTICE_DIGESTS[pass_index]
