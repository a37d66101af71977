"""Scanning the sparsity conjecture: is every (d,d)-sparse graph independent?

The d = 2 case is a theorem; for d >= 3 it is open.  The scan generates
graphs from several sources that the theory predicts are independent, runs
sampled-rank verdicts at each exponent, and reports any stable
rank-deficient cell as a replayable candidate counterexample (which, at
these sizes, should never appear).
"""

from lqrig.cli import ScanConfig, run_scan

config = ScanConfig(
    d=3,
    q_list=(1.5, 3.0),
    max_n=9,
    count=3,
    seed=0,
    trials=8,
    sources=("henneberg", "sphere", "projective", "degree_bounded"),
)

summary = run_scan(config)
totals = summary["totals"]
print(f"scanned {totals['graphs']} graphs x {len(config.q_list)} exponents "
      f"= {totals['cells']} cells")
print(f"  predicted independent : {totals['predicted']}")
print(f"  candidate counterexamples: {totals['candidates']}")
print(f"  marginal (unstable rank) : {totals['marginal']}")

if summary["candidates"]:
    print("\ncandidate dumps (replay with the stored seed and log):")
    for c in summary["candidates"]:
        print(f"  source={c['source']} q={c['q']} rank={c['rank']}/{c['edge_count']}")
else:
    print("\nno counterexamples, as the conjecture predicts at desk scale.")
