"""Smoke test of the benchmark: every workload runs one traced round at toy
sizes, comes out correct and reports every per-layer metric.  No timing is
asserted, since timings vary between runs and machines."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# verdict_highq fails some cells on purpose: its float cutoff is a known fault.
FAIL_FREE = {"scan", "verdict_large", "generate"}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_traced_round(workload):
    argv = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "0", "--trace", "1", "--toy",
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {m["name"] for m in SPEC["per_layer"]} <= set(result["metrics"])
    if workload in FAIL_FREE:
        assert result["failed"] == 0
