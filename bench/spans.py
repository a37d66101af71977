"""Per-layer tracing from outside the program.

`Tracer.installed()` replaces each traced public function of lqrig, in
every lqrig module that holds it under that name (for example
`lqrig.rank.rigidity_matrix` and `lqrig.cli.max_rank_sample`), by a
wrapper that records a span: name, start, end, parent span and thread.
Spans stay in memory until `layer_metrics` reduces them. Self time is a
span's duration minus that of its child spans; parents are tracked per
thread, so spans from the scan's pool threads get their own self time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

# (module, function or "Class.method") -> layer group.
TRACED = {
    ("graphs", "is_sparse"): "graphs.pebble",
    ("graphs", "is_tight"): "graphs.pebble",
    ("graphs", "edge_addable"): "graphs.pebble",
    ("operations", "henneberg_generate"): "operations.gen",
    ("operations", "random_degree_bounded_sparse"): "operations.gen",
    ("operations", "random_count_sparse"): "operations.gen",
    ("operations", "henneberg_replay"): "operations.replay",
    ("operations", "apply_record"): "operations.replay",
    ("operations", "one_reduction_search"): "operations.reduce",
    ("surfaces", "generate_triangulation"): "surfaces.gen",
    ("surfaces", "validate"): "surfaces.validate",
    ("surfaces", "replay_splits"): "surfaces.replay",
    ("geometry", "rigidity_matrix"): "geometry.matrix",
    ("geometry", "Placement.well_positioned"): "geometry.well_positioned",
    ("rank", "sample_placement"): "rank.sample",
    ("rank", "numerical_rank"): "rank.svd",
    ("rank", "max_rank_sample"): "rank.loop",
    ("rank", "cokernel_basis"): "rank.cokernel",
    ("cli", "run_scan"): "cli.scan",
    ("cli", "main"): "cli.main",
}

# Every per-layer metric and its unit, in the order BENCHMARK.json lists
# them; trace.overhead_s is added by the runner.
METRICS = {
    "graphs.pebble.calls": "count",
    "graphs.pebble.self_s": "s",
    "operations.gen.self_s": "s",
    "operations.replay.self_s": "s",
    "operations.reduce.self_s": "s",
    "surfaces.gen.self_s": "s",
    "surfaces.validate.calls": "count",
    "surfaces.validate.self_s": "s",
    "surfaces.replay.self_s": "s",
    "geometry.matrix.calls": "count",
    "geometry.matrix.self_s": "s",
    "geometry.matrix.bytes_computed": "B",
    "geometry.well_positioned.self_s": "s",
    "rank.sample.calls": "count",
    "rank.sample.resamples": "count",
    "rank.sample.self_s": "s",
    "rank.svd.calls": "count",
    "rank.svd.self_s": "s",
    "rank.svd.flops_computed": "flop",
    "rank.loop.self_s": "s",
    "rank.trials": "count",
    "rank.trials_after_ceiling": "count",
    "rank.cokernel.self_s": "s",
    "cli.scan.self_s": "s",
    "cli.main.self_s": "s",
}


class Span(NamedTuple):
    ident: int
    group: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    # Work read from the call's arguments and result, by metric name.
    work: dict[str, float]


def _matrix_bytes(args: tuple, result) -> dict[str, float]:
    rows, cols = result.entries.shape
    return {"geometry.matrix.bytes_computed": 8 * rows * cols}


def _svd_flops(args: tuple, result) -> dict[str, float]:
    # Golub-Kahan bidiagonalisation without vectors, m >= n.
    shape = np.shape(getattr(args[0], "entries", args[0]))
    m, n = max(shape), min(shape)
    return {"rank.svd.flops_computed": 4.0 * m * n * n - 4.0 * n**3 / 3.0}


def _trials(args: tuple, result) -> dict[str, float]:
    """Trials run, and those run after two trials had reached the ceiling."""
    g, space = args[0], args[1]
    ceiling = min(g.m, space.target_rank(g.n))
    hits = after = 0
    for r in result.trial_ranks:
        if hits >= 2:
            after += 1
        hits += r >= ceiling
    return {"rank.trials": len(result.trial_ranks), "rank.trials_after_ceiling": after}


WORK: dict[str, Callable[[tuple, object], dict[str, float]]] = {
    "geometry.matrix": _matrix_bytes,
    "rank.svd": _svd_flops,
    "rank.loop": _trials,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _wrap(self, group: str, fn: Callable) -> Callable:
        work = WORK.get(group)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            ident = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(ident)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                done = work(args, result) if work and result is not None else {}
                self.spans.append(
                    Span(ident, group, start, end, parent, threading.get_ident(), done)
                )

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Trace every call made inside the block."""
        undo: list[tuple[object, str, object]] = []
        lq_modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "lqrig"]
        try:
            for (module, qualname), group in TRACED.items():
                home = sys.modules.get(f"lqrig.{module}")
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                original = getattr(owner, attr, None)
                if original is None:
                    continue  # renamed or removed: its metrics read 0
                wrapper = self._wrap(group, original)
                if owner_name:
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in lq_modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, name, original))
                            setattr(mod, name, wrapper)
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce one round's spans to the per-layer metrics."""
    child_time: dict[int, float] = defaultdict(float)
    sample_children: Counter[int] = Counter()
    groups = {s.ident: s.group for s in spans}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
            if s.group == "geometry.well_positioned" and groups.get(s.parent) == "rank.sample":
                sample_children[s.parent] += 1
    out = {name: 0.0 for name in METRICS}
    for s in spans:
        self_key = f"{s.group}.self_s"
        if self_key in out:
            out[self_key] += (s.end - s.start) - child_time[s.ident]
        calls_key = f"{s.group}.calls"
        if calls_key in out:
            out[calls_key] += 1
        for name, value in s.work.items():
            out[name] += value
    # One well-positioned check per draw: the draws beyond each call's first.
    out["rank.sample.resamples"] = float(sum(sample_children.values()) - len(sample_children))
    return out
