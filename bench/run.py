"""Run one benchmark workload of lqrig and print its metrics.

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

The run imports lqrig from the checkout's `src`, builds the workload's
corpus from --seed and makes one untimed warm-up call; that set-up is
timed here and, with --trace 0, again in two new processes. It then
repeats whole rounds until --seconds have passed. With --trace 0 it
reports the end-to-end metrics, each time scaled by the yardstick timed
beside it (see yardstick.py); with --trace 1 it alternates untraced and
traced rounds and reports the per-layer metrics of the traced ones. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's details,
the unscaled times among them. Exits with status 1 when the checkout has
no lqrig sources, and 2 on a bad argument.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checkout

# The run, its threads and its children use one processor, the last one
# this process may use. Spread over the host's two, the scan's pool
# threads waited for each other's wake-ups (wall time up to 50% above
# processor time) and OpenBLAS's second thread spun without making the
# SVDs faster. Set before numpy loads, which sizes its BLAS thread pool
# from this mask.
PROCESSOR = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PROCESSOR})

import yardstick  # noqa: E402  (loads numpy)

# Set-ups per untraced run, this process's and the rest in new processes;
# setup_s is their median.
SETUP_REPEATS = 3
# Yardstick time after each set-up; setup_s is scaled by its mean pass.
SETUP_YARDSTICK_S = 0.5
SETUP_TIMEOUT_S = 120
# Yardstick time after each round, as a share of the round's time.
YARDSTICK_SHARE = 0.25
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):  # numpy < 2 prints its configuration instead
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "processor": PROCESSOR,
        "env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def _timed_round(workload, tally) -> tuple[float, float]:
    """Wall and processor time of one round."""
    start, start_cpu = time.perf_counter(), time.process_time()
    workload.round(tally)
    return time.perf_counter() - start, time.process_time() - start_cpu


def _set_up(args: argparse.Namespace, workdir: Path):
    """Import lqrig, build the workload and warm it up; return it and the time taken."""
    began = time.perf_counter()
    checkout.import_lqrig()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    sizes = workloads.TOY if args.toy else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)
    workload.warm_up()
    return workload, time.perf_counter() - began


def _setup_yardstick_s() -> float:
    """Mean yardstick pass after a set-up, past one untimed pass."""
    yardstick.time_once()
    return statistics.fmean(yardstick.time_block(SETUP_YARDSTICK_S))


def _fresh_setup(argv: list[str]) -> tuple[float, float]:
    """Set-up time of the same workload in a new process, and its yardstick."""
    done = subprocess.run(
        [sys.executable, __file__, *argv, "--setup-only"],
        capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S,
    )
    setup_s, yard_s = done.stdout.split()[-2:]
    return float(setup_s), float(yard_s)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny sizes, for the self-check")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else argv
    args = ap.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=checkout.ROOT)
    try:
        workload, setup_s = _set_up(args, Path(workdir))
        if args.setup_only:
            print(setup_s, _setup_yardstick_s())
            return 0
        import spans
        import workloads

        setups: list[tuple[float, float]] = []
        if not args.trace:
            setups.append((setup_s, _setup_yardstick_s()))
            setups += [_fresh_setup(argv) for _ in range(SETUP_REPEATS - 1)]

        tally = workloads.Tally()
        tracer = spans.Tracer()
        plain, yards, traced, layers = [], [], [], []
        start = time.perf_counter()
        if not args.trace:
            yards.append(yardstick.time_block(0))
        while True:
            plain.append(_timed_round(workload, tally))
            if not args.trace:
                yards.append(yardstick.time_block(YARDSTICK_SHARE * plain[-1][0]))
            else:
                with tracer.installed():
                    traced.append(_timed_round(workload, tally)[0])
                layers.append(spans.layer_metrics(tracer.take()))
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = [w for w, _ in plain]
    if args.trace:
        metrics = {
            name: {
                "value": statistics.median(per_round[name] for per_round in layers),
                "unit": unit,
            }
            for name, unit in spans.METRICS.items()
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(wall),
            "unit": "s",
        }
    else:
        # Each round lies between two blocks of yardstick passes; it is
        # scaled by the mean pass time of the two blocks together.
        beside = [statistics.fmean(a + b) for a, b in zip(yards, yards[1:])]
        scaled_round_s = statistics.median(yardstick.scale(w, y) for w, y in zip(wall, beside))
        scaled_setup_s = statistics.median(yardstick.scale(s, y) for s, y in setups)
        metrics = {
            "graphs_per_s": {"value": workload.graphs / scaled_round_s, "unit": "graphs/s"},
            "setup_s": {"value": scaled_setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    problems = sorted(set(workload.checks.problems + tally.problems))
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "toy": args.toy,
        "setup_runs_s": [s for s, _ in setups],
        "setup_yardstick_s": [y for _, y in setups],
        "unscaled_graphs_per_s": workload.graphs / statistics.median(wall),
        "round_s": wall,
        "round_yardstick_s": yards,
        "round_cpu_s": [cpu for _, cpu in plain],
        "traced_round_s": traced,
        "errors": dict(tally.errors),
        "problems": problems[:20],
        "environment": environment(),
    }
    print(json.dumps(details))
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
