"""Self-check of the benchmark at toy sizes; takes a few seconds.

    python3 bench/selfcheck.py

It runs every workload named in BENCHMARK.json at toy sizes, untraced and
traced, and checks that the result line reports every end-to-end (or
per-layer) metric with its unit and that the run was correct. It then
checks lqrig's pebble game against a count over every vertex subset, on
random graphs of up to 7 vertices. Exits 1 and lists what failed, if
anything did.
"""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent
# (k, l, edge multiplier): forests, Laman, the (d,d) counts of d = 2, 3,
# and the half-integer (5/2, 7/2) count.
COUNTS = ((1, 1, 1), (2, 3, 1), (2, 2, 1), (3, 3, 1), (5, 7, 2))
SMALL_GRAPHS = 400


def check_workloads(spec: dict) -> list[str]:
    failures = []
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [
                sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                "--seed", "1", "--seconds", "0", "--trace", str(trace), "--toy",
            ]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
            where = f"{w['name']} --trace {trace}"
            if done.returncode != 0:
                failures.append(f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                failures.append(f"{where}: correct {result['correct']}, attempted {result['attempted']}")
            got = result["metrics"]
            for m in wanted:
                if m["name"] not in got:
                    failures.append(f"{where}: metric {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    failures.append(f"{where}: {m['name']} in {got[m['name']]['unit']}, not {m['unit']}")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                failures.append(f"{where}: unlisted metrics {sorted(extra)}")
    return failures


def subset_sparse(n: int, edges: list[tuple[int, int]], k: int, l: int, mult: int) -> bool:
    """mult * i(U) <= k|U| - l for every vertex set U spanning an edge."""
    for r in range(2, n + 1):
        for subset in combinations(range(n), r):
            inside = set(subset)
            i = sum(1 for u, v in edges if u in inside and v in inside)
            if i and mult * i > k * r - l:
                return False
    return True


def check_pebble_game() -> list[str]:
    import numpy as np
    from lqrig import graphs

    rng = np.random.default_rng(0)
    failures = []
    for _ in range(SMALL_GRAPHS):
        n = int(rng.integers(2, 8))
        pairs = list(combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < rng.uniform(0.2, 0.9)]
        g = graphs.Graph(n, edges)
        for k, l, mult in COUNTS:
            want = subset_sparse(n, edges, k, l, mult)
            if graphs.is_sparse(g, graphs.SparsityParams(k, l, mult)) != want:
                failures.append(f"is_sparse {(k, l, mult)} on {n} vertices {edges}: expected {want}")
        for d in (2, 3):
            want = d * n - len(edges) == d and subset_sparse(n, edges, d, d, 1)
            if graphs.is_tight(g, d) != want:
                failures.append(f"is_tight d={d} on {n} vertices {edges}: expected {want}")
            for x, y in pairs:
                if (x, y) in edges:
                    continue
                want = subset_sparse(n, edges + [(x, y)], d, d, 1)
                if graphs.edge_addable(g, d, x, y) != want:
                    failures.append(f"edge_addable d={d} {(x, y)} on {n} vertices {edges}: expected {want}")
    return failures


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    checkout.import_lqrig()
    failures = check_workloads(spec) + check_pebble_game()
    for f in failures:
        print(f"FAIL {f}")
    print("selfcheck:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
