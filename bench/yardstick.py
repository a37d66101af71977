"""A fixed piece of work that measures how fast the machine runs right now.

The benchmark's host lends it a share of a processor whose speed drifts:
identical rounds of one workload take 1.0 to 1.7 s in different minutes,
with processor time tracking wall time. `time_once()` runs the same
work every time, independent of lqrig and of the run seed: graph-like set
and dictionary churn, a depth-first search, a float loop and small SVDs,
the mix of interpreter and numpy work that lqrig's rounds do. The runner
times it beside every round and scales the round's time by it (`scale`),
so the drift that slows both cancels, while a change to lqrig, which
does not touch the yardstick, still shows in full.

The garbage collector is off while it runs, so that the number of objects
lqrig keeps alive does not change its time.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# One pass's time at the reference speed. On the machine the benchmark
# was defined on, a pass takes about this long, so scaled times read
# close to the measured ones.
REFERENCE_S = 0.1
# How far round times follow the yardstick: between runs, the logarithm
# of a workload's median round time moved with that of the mean pass at
# slopes of 0.52 to 1.07 (four workloads, three sets of runs). Dividing
# by the full yardstick overcorrected the large SVDs most.
EXPONENT = 0.75

_RNG = np.random.default_rng(12345)
_MATRICES = [_RNG.standard_normal((40, 45)) for _ in range(150)]
_EDGES = [(int(a), int(b)) for a, b in _RNG.integers(0, 200, size=(1200, 2)) if a != b]
_PASSES = 90


def _work() -> float:
    acc = 0.0
    for _ in range(_PASSES):
        adj: dict[int, set[int]] = {}
        for u, v in _EDGES:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        seen, stack = {0}, [0]
        while stack:
            for y in adj.get(stack.pop(), ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        for u, v in _EDGES:
            acc += math.copysign(abs(u - v) ** 1.5, u - v)
        acc += len(seen)
    for m in _MATRICES:
        acc += float(np.linalg.svd(m, compute_uv=False)[0])
    return acc


def scale(t: float, y: float) -> float:
    """A time t measured beside passes of y seconds, at the reference speed."""
    return t * (REFERENCE_S / y) ** EXPONENT


def time_once() -> float:
    """Wall time of one pass of the fixed work, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def time_block(seconds: float) -> list[float]:
    """Timings of passes run one after another until `seconds` have passed.

    At least one pass runs. One pass is short enough that the machine's
    second-to-second jitter moves it by a third; a block averages that out.
    """
    passes = [time_once()]
    while sum(passes) < seconds:
        passes.append(time_once())
    return passes
