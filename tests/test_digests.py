"""The benchmark's first pass at seed 5 gives the same verdicts, by digest.

``perfbench/worker.py WORKLOAD 5 0 0`` runs one pass and hashes every op's
answer into ``verdict_sha256``.  A change that moves no verdict, no
certificate and no construction result keeps all four digests.  The test
runs the worker as it stands and writes nothing under ``perfbench/``.
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


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_first_pass_verdicts_keep_their_digest(workload):
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload,
         "5", "0", "0"], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True, timeout=300)
    out = json.loads(proc.stdout)
    assert out["failed"] == 0, out["errors"]
    assert out["verdict_sha256"] == DIGESTS[workload]
