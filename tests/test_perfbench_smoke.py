"""Smoke run of the repository benchmark: one short traced round per workload.

The benchmark checks every SOFAI-v2 answer by swapping
`sofai_gc.bench.solve_sofai_v2` for a recording wrapper, so this also
guards that the harness resolves that name at call time.  s1-memory runs
the episodic-memory path, so its answers are checked here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["er-exact", "s1-memory"])
def test_traced_round_checks_every_answer(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
