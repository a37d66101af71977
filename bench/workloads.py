"""The benchmark's four workloads.

A workload builds its corpus from the run seed when it is constructed,
warms up with one untimed call, and then runs identical rounds. A round
attempts the same number of operations whatever the seed, so the share of
failed operations is the same in every run. An operation fails when it
raises, or, on `verdict_highq` only, when its float verdict is not stable
and independent: that is the fault the workload exists to show. Any other
output that contradicts the theory, or a computation made here apart from
lqrig, is a problem and makes the run incorrect.

lqrig is always reached through module attributes (`rank.verdict`, not a
name bound at import), so that the tracer in `spans.py` sees every call.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from lqrig import cli, geometry, graphs, operations, rank, surfaces

D = 3
Q_PAIR = (1.5, 3.0)
Q_HIGH = (6.0, 10.0)
# Smallest graph of each scan source: K_{2d}, the tetrahedron, K6, and a
# (d+2)-vertex degree-bounded graph.
SCAN_SOURCES = {"henneberg": 2 * D, "sphere": 4, "projective": 6, "degree_bounded": D + 2}
# verdict_highq keeps one corpus for every run seed: its failures are a
# known fault that must repeat exactly, so its inputs may not vary.
HIGHQ_CORPUS_SEED = 1
# |E| - 3|V| for triangulations of each surface.
EDGE_OFFSET = {surfaces.PROJECTIVE_PLANE: -3, surfaces.SPHERE: -6}
COUNT_PARAMS = graphs.SparsityParams(5, 7, 2)  # the (5/2, 7/2) count


@dataclass(frozen=True)
class Sizes:
    scan_max_n: int
    scan_count: int
    henneberg_large: tuple[int, ...]
    surface_large: int
    deficient_base: int
    highq_n: tuple[int, ...]
    highq_per_n: int
    gen_henneberg: int
    gen_triangulation: int
    gen_degree_bounded: int
    gen_count_sparse: int
    gen_tight: int
    gen_queries: int


FULL = Sizes(
    scan_max_n=14,
    scan_count=10,
    henneberg_large=(120, 200),
    surface_large=120,
    deficient_base=100,
    highq_n=tuple(range(10, 31, 2)),
    highq_per_n=3,
    gen_henneberg=400,
    gen_triangulation=150,
    gen_degree_bounded=80,
    gen_count_sparse=40,
    gen_tight=300,
    gen_queries=60,
)
TOY = Sizes(
    scan_max_n=8,
    scan_count=2,
    henneberg_large=(20, 24),
    surface_large=20,
    deficient_base=12,
    highq_n=(10, 12),
    highq_per_n=1,
    gen_henneberg=30,
    gen_triangulation=20,
    gen_degree_bounded=20,
    gen_count_sparse=12,
    gen_tight=40,
    gen_queries=10,
)


class WrongVerdict(Exception):
    """A float verdict that the paper's theorems contradict."""


class Tally:
    """Operations attempted and failed, the errors seen, and check problems.

    A workload keeps one for the checks of its set-up; each run keeps one
    for all its rounds.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: Counter[str] = Counter()
        self.problems: list[str] = []

    def run(self, label: str, fn: Callable[[], object], weight: int = 1) -> object:
        """Run `weight` operations as one call; an exception fails them all."""
        self.attempted += weight
        try:
            return fn()
        except Exception as exc:  # a fault of the program under test is a result
            self.failed += weight
            self.errors[f"{label}: {type(exc).__name__}: {exc}"] += weight
            return None

    def skip(self, label: str) -> None:
        """Count an operation whose input an earlier failure left missing."""
        self.attempted += 1
        self.failed += 1
        self.errors[f"{label}: skipped"] += 1

    def expect(self, cond: bool, message: str) -> None:
        if not cond:
            self.problems.append(message)


def _child_seeds(seed: int) -> Callable[[], int]:
    master = np.random.default_rng(seed)
    return lambda: int(master.integers(2**31))


def _triangulation(surface: str, n: int, seed: int, base: str) -> surfaces.SurfaceTriangulation:
    return surfaces.generate_triangulation(surface, n, seed, base=base)[0]


def _disjoint_union(a: graphs.Graph, b: graphs.Graph) -> graphs.Graph:
    shifted = [(u + a.n, v + a.n) for u, v in b.edges]
    return graphs.Graph(a.n + b.n, list(a.edges) + shifted)


def _closed_nbhd_complete(g: graphs.Graph, v: int) -> bool:
    ball = sorted(g.neighbors(v) | {v})
    return all(g.has_edge(x, y) for x, y in combinations(ball, 2))


@dataclass(frozen=True)
class Cell:
    """One (graph, q) verdict with the rank the theory predicts."""

    graph_id: str
    graph: graphs.Graph
    q: float
    seed: int
    expected_rank: int


class Scan:
    """`lqrig scan` over all four sources, in-process through cli.main."""

    name = "scan"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.out = workdir / "scan.json"
        self.argv = [
            "scan", "-d", str(D), "-q", ",".join(f"{q:g}" for q in Q_PAIR),
            "--max-n", str(sizes.scan_max_n), "--count", str(sizes.scan_count),
            "--sources", ",".join(SCAN_SOURCES), "--seed", str(seed), "--out", str(self.out),
        ]
        self.graphs = sizes.scan_count * sum(
            sizes.scan_max_n - lo + 1 for lo in SCAN_SOURCES.values()
        )
        self.cells = self.graphs * len(Q_PAIR)
        self.warm = operations.henneberg_generate(D, sizes.scan_max_n, seed)[0]
        self.checks = Tally()

    def warm_up(self) -> None:
        rank.verdict(self.warm, geometry.LqSpace(D, Q_PAIR[0]), seed=self.seed)

    def round(self, tally: Tally) -> None:
        tally.run("scan", lambda: self._scan(tally), weight=self.cells)

    def _scan(self, tally: Tally) -> None:
        code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        totals = json.loads(self.out.read_text())["totals"]
        # Every generated graph is independent in l_q^3 for q != 2.
        expected = {
            "cells": self.cells, "graphs": self.graphs,
            "predicted": self.cells, "candidates": 0, "marginal": 0,
        }
        tally.expect(totals == expected, f"scan totals {totals}, expected {expected}")

    def verdict_cells(self) -> Iterator[Cell]:
        config = cli.ScanConfig(
            d=D, q_list=Q_PAIR, max_n=self.sizes.scan_max_n, count=self.sizes.scan_count,
            seed=self.seed, sources=tuple(SCAN_SOURCES),
        )
        for inst in cli._scan_instances(config):
            g = inst["graph"]
            for q in Q_PAIR:
                yield Cell(f"{inst['source']}-n{inst['n']}-{inst['seed']}", g, q, inst["seed"], g.m)


class _Verdicts:
    """Shared round of the two verdict workloads: one rank.verdict per cell."""

    cells: list[Cell]
    # Graphs per round: each graph is judged at both exponents.
    graphs: int

    def warm_up(self) -> None:
        c = self.cells[0]
        rank.verdict(c.graph, geometry.LqSpace(D, c.q), seed=c.seed)

    def round(self, tally: Tally) -> None:
        for c in self.cells:
            tally.run(self.name, lambda c=c: self._cell(c, tally))

    def _cell(self, c: Cell, tally: Tally) -> None:
        g = c.graph
        v = rank.verdict(g, geometry.LqSpace(D, c.q), seed=c.seed)
        tally.expect(
            v.rank <= min(g.m, D * g.n - D) and v.stress_dim == g.m - v.rank,
            f"{c.graph_id} q={c.q}: rank {v.rank} exceeds its ceiling",
        )
        tally.expect(
            v.independent == (v.rank == g.m) and v.rigid == (v.rank == D * g.n - D),
            f"{c.graph_id} q={c.q}: flags disagree with rank {v.rank}",
        )
        self._judge(c, v, tally)

    def verdict_cells(self) -> Iterator[Cell]:
        return iter(self.cells)


class VerdictLarge(_Verdicts):
    """rank.verdict on graphs of 100-200 vertices, where the SVD dominates."""

    name = "verdict_large"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        child = _child_seeds(seed)
        self.checks = Tally()
        corpus: list[tuple[str, graphs.Graph, int]] = []
        for n in sizes.henneberg_large:
            g = operations.henneberg_generate(D, n, child())[0]
            self.checks.expect(graphs.is_tight(g, D) and g.m == 3 * n - 3, f"henneberg-{n} is not (3,3)-tight")
            corpus.append((f"henneberg-{n}", g, 3 * n - 3))
        n = sizes.surface_large
        for surface, base in (
            (surfaces.PROJECTIVE_PLANE, "K6"),
            (surfaces.PROJECTIVE_PLANE, "K7_minus_K3"),
            (surfaces.SPHERE, "K4"),
        ):
            t = _triangulation(surface, n, child(), base)
            rank_ = 3 * n + EDGE_OFFSET[surface]
            self.checks.expect(
                bool(surfaces.validate(t)) and t.graph.m == rank_, f"{surface}-{base}-{n} is invalid"
            )
            if surface == surfaces.PROJECTIVE_PLANE:
                self.checks.expect(graphs.is_tight(t.graph, D), f"{surface}-{base}-{n} is not (3,3)-tight")
            corpus.append((f"{surface}-{base}-{n}", t.graph, rank_))
        # A projective triangulation beside a disjoint K8: the matrix is
        # block-diagonal and K8 is rigid, so the rank is (3n - 3) + (3*8 - 3).
        n = sizes.deficient_base
        base_graph = _triangulation(surfaces.PROJECTIVE_PLANE, n, child(), "K6").graph
        self.deficient = _disjoint_union(base_graph, graphs.complete_graph(8))
        self.deficient_rank = (3 * n - 3) + (3 * 8 - 3)
        corpus.append((f"projective-{n}+K8", self.deficient, self.deficient_rank))
        self.cells = [Cell(gid, g, q, child(), r) for gid, g, r in corpus for q in Q_PAIR]
        self.graphs = len(corpus)
        self.cokernel_seed = child()

    def round(self, tally: Tally) -> None:
        super().round(tally)
        tally.run("cokernel", lambda: self._cokernel(tally))

    def _judge(self, c: Cell, v: rank.Verdict, tally: Tally) -> None:
        tally.expect(
            v.stable and v.rank == c.expected_rank,
            f"{c.graph_id} q={c.q}: rank {v.rank} (stable {v.stable}), expected {c.expected_rank}",
        )

    def _cokernel(self, tally: Tally) -> None:
        """Self-stresses of the rank-deficient graph at a witness placement.

        The witness is the sampled placement of greatest rank; a single
        sample can fall short of the generic rank, so one is not enough.
        """
        g = self.deficient
        space = geometry.LqSpace(D, Q_PAIR[-1])
        res = rank.max_rank_sample(g, space, seed=self.cokernel_seed)
        m = geometry.rigidity_matrix(g, res.witness, space)
        basis = rank.cokernel_basis(m)
        stresses = g.m - self.deficient_rank
        tally.expect(res.rank == self.deficient_rank, f"cokernel: rank {res.rank} at the witness")
        if basis.shape != (stresses, g.m):
            tally.expect(False, f"cokernel: basis shape {basis.shape}, expected {(stresses, g.m)}")
            return
        gram_err = float(np.max(np.abs(basis @ basis.T - np.eye(stresses))))
        tally.expect(gram_err < 1e-9, f"cokernel: rows not orthonormal ({gram_err:.3g})")
        residual = float(np.linalg.norm(basis @ m.entries, 2))
        tally.expect(
            residual <= res.tolerance_used,
            f"cokernel: |C A| = {residual:.3g} above tolerance {res.tolerance_used:.3g}",
        )


class VerdictHighQ(_Verdicts):
    """rank.verdict at q = 6 and 10 on small tight graphs."""

    name = "verdict_highq"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        child = _child_seeds(HIGHQ_CORPUS_SEED)
        self.checks = Tally()
        corpus: list[tuple[str, graphs.Graph]] = []
        for n in sizes.highq_n:
            for i in range(sizes.highq_per_n):
                s = child()
                corpus.append((f"henneberg-{n}-{s}", operations.henneberg_generate(D, n, s)[0]))
                s = child()
                base = "K6" if i % 2 == 0 else "K7_minus_K3"
                t = _triangulation(surfaces.PROJECTIVE_PLANE, n, s, base)
                corpus.append((f"projective-{base}-{n}-{s}", t.graph))
        # Henneberg graphs and projective triangulations are (3,3)-tight,
        # hence independent (and rigid) in l_q^3 for every q != 2.
        for gid, g in corpus:
            self.checks.expect(graphs.is_tight(g, D), f"{gid} is not (3,3)-tight")
        self.cells = [Cell(gid, g, q, child(), g.m) for gid, g in corpus for q in Q_HIGH]
        self.graphs = len(corpus)

    def _judge(self, c: Cell, v: rank.Verdict, tally: Tally) -> None:
        if not (v.stable and v.independent):
            raise WrongVerdict("not stable and independent")


class Generate:
    """Generators, log replay and pebble-game queries; no numerical rank."""

    name = "generate"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        child = _child_seeds(seed)
        self.sizes = sizes
        self.henneberg_seeds = [child() for _ in range(3)]
        self.triangulations = [
            (surfaces.PROJECTIVE_PLANE, "K6", child()),
            (surfaces.PROJECTIVE_PLANE, "K7_minus_K3", child()),
            (surfaces.SPHERE, "K4", child()),
        ]
        self.degree_seed = child()
        self.count_seed = child()
        n = sizes.gen_tight
        self.tight = operations.henneberg_generate(D, n, child())[0]
        self.checks = Tally()
        self.checks.expect(
            self.tight.m == 3 * n - 3 and graphs.is_tight(self.tight, D),
            f"tight query graph on {n} vertices is not (3,3)-tight",
        )
        rng = np.random.default_rng(child())
        self.queries: list[tuple[int, int]] = []
        while len(self.queries) < sizes.gen_queries:
            x, y = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
            if not self.tight.has_edge(x, y):
                self.queries.append((x, y))
        # Henneberg, triangulation, degree-bounded and count-sparse graphs.
        self.graphs = len(self.henneberg_seeds) + len(self.triangulations) + 2

    def warm_up(self) -> None:
        operations.henneberg_generate(D, 4 * D, self.henneberg_seeds[0])

    def round(self, tally: Tally) -> None:
        for s in self.henneberg_seeds:
            made = tally.run("henneberg_generate", lambda s=s: self._henneberg(s, tally))
            if made is None:
                tally.skip("henneberg_replay")
                continue
            g, log = made
            tally.run(
                "henneberg_replay",
                lambda: tally.expect(operations.henneberg_replay(D, log) == g, "henneberg replay differs"),
            )
        for surface, base, s in self.triangulations:
            made = tally.run(
                "generate_triangulation", lambda: self._triangulation(surface, base, s, tally)
            )
            if made is None:
                tally.skip("replay_splits")
                tally.skip("apply_record")
                continue
            t, log = made
            tally.run("replay_splits", lambda: self._replay_splits(t, base, log, tally))
            tally.run("apply_record", lambda: self._apply_record(t, base, log, tally))
        tally.run("random_degree_bounded_sparse", lambda: self._degree_bounded(tally))
        tally.run("random_count_sparse", lambda: self._count_sparse(tally))
        for x, y in self.queries:
            tally.run(
                "edge_addable",
                lambda x=x, y=y: tally.expect(
                    not graphs.edge_addable(self.tight, D, x, y),
                    f"edge_addable({x}, {y}) on a tight graph",
                ),
            )

    def _henneberg(self, s: int, tally: Tally):
        n = self.sizes.gen_henneberg
        g, log = operations.henneberg_generate(D, n, s)
        tally.expect(
            g.n == n and g.m == 3 * n - 3 and graphs.is_tight(g, D),
            f"henneberg-{n}-{s} is not (3,3)-tight",
        )
        return g, log

    def _triangulation(self, surface: str, base: str, s: int, tally: Tally):
        n = self.sizes.gen_triangulation
        t, log = surfaces.generate_triangulation(surface, n, s, base=base)
        tally.expect(
            bool(surfaces.validate(t)) and t.n == n and t.graph.m == 3 * n + EDGE_OFFSET[surface],
            f"{surface}-{base}-{n}-{s} is not a valid triangulation",
        )
        return t, log

    def _replay_splits(self, t, base: str, log, tally: Tally) -> None:
        again = surfaces.replay_splits(surfaces.base_complex(base), log)
        tally.expect(again.faces == t.faces, f"replay_splits of {base} differs")

    def _apply_record(self, t, base: str, log, tally: Tally) -> None:
        g = surfaces.base_complex(base).graph
        for rec in log:
            g = operations.apply_record(g, rec)
        tally.expect(g == t.graph, f"apply_record replay of {base} differs")

    def _degree_bounded(self, tally: Tally) -> None:
        n = self.sizes.gen_degree_bounded
        g = operations.random_degree_bounded_sparse(D, n, self.degree_seed)
        tally.expect(
            g.is_connected() and g.max_degree() <= D + 2 and graphs.is_sparse(g, graphs.SparsityParams(D, D)),
            f"degree-bounded graph {self.degree_seed} is not connected, bounded and sparse",
        )
        for v in range(g.n):
            if g.degree(v) != D + 1:
                continue
            pair = operations.one_reduction_search(g, v, D)
            if pair is None:
                tally.expect(_closed_nbhd_complete(g, v), f"no 1-reduction at {v}, yet N[{v}] is not K5")
            else:
                x, y = pair
                tally.expect(
                    {x, y} <= g.neighbors(v) and not g.has_edge(x, y),
                    f"1-reduction at {v} adds {pair}, not a non-edge of its link",
                )

    def _count_sparse(self, tally: Tally) -> None:
        p, n = COUNT_PARAMS, self.sizes.gen_count_sparse
        g = operations.random_count_sparse(p, n, self.count_seed)
        tally.expect(
            g.n == n and p.edge_multiplier * g.m <= p.k * n - p.l and graphs.is_sparse(g, p),
            f"count-sparse graph {self.count_seed} breaks the (5/2, 7/2) count",
        )

    def verdict_cells(self) -> Iterator[Cell]:
        return iter(())


WORKLOADS = {w.name: w for w in (Scan, VerdictLarge, VerdictHighQ, Generate)}
