"""Write one line per verdict cell of every workload, to diff two checkouts.

    python3 bench/dump.py --seed 1 --out verdicts.jsonl

Each line holds the workload, graph id, q, rank, trial_ranks and stable,
as rank.max_rank_sample gives them for the arguments that workload's
verdicts use. The dump is built fresh from the checkout the script sits
in, so two checkouts with identical verdicts write identical files; a
change that corrects a verdict shows up in their diff. `generate` takes no
verdicts and writes no lines.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

import checkout


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="output file, one JSON object per line")
    ap.add_argument("--toy", action="store_true", help="the self-check's tiny sizes")
    args = ap.parse_args(argv)

    checkout.import_lqrig()
    import workloads
    from lqrig import geometry, rank

    sizes = workloads.TOY if args.toy else workloads.FULL
    workdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=checkout.ROOT)
    try:
        with open(args.out, "w") as fh:
            for name, make in workloads.WORKLOADS.items():
                for c in make(args.seed, sizes, Path(workdir)).verdict_cells():
                    res = rank.max_rank_sample(
                        c.graph, geometry.LqSpace(workloads.D, c.q), seed=c.seed
                    )
                    line = {
                        "workload": name,
                        "graph": c.graph_id,
                        "q": c.q,
                        "rank": res.rank,
                        "trial_ranks": list(res.trial_ranks),
                        "stable": res.stable,
                    }
                    fh.write(json.dumps(line) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
