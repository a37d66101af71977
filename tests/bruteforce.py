"""Brute-force test oracles: exhaustive subgraph enumeration, critical sets
and small-graph isomorphism.  Capped at small vertex counts by design."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from lqrig.graphs import Graph, SparsityParams

BRUTE_CAP = 6


def brute_sparse(g: Graph, params: SparsityParams, cap: int = BRUTE_CAP) -> bool:
    """Check the count on every induced vertex subset with at least one edge."""
    assert g.n <= cap, "brute-force oracle is for small instances only"
    for r in range(2, g.n + 1):
        for subset in combinations(range(g.n), r):
            i = g.induced_count(subset)
            if i and params.edge_multiplier * i > params.k * r - params.l:
                return False
    return True


def brute_count_rank(g: Graph, d: int, cap: int = BRUTE_CAP) -> int:
    """Size of the largest (d,d)-sparse edge subset, by exhaustive search."""
    params = SparsityParams(d, d)
    for size in range(g.m, 0, -1):
        subsets = combinations(g.edges, size)
        if any(brute_sparse(Graph(g.n, sub), params, cap=cap) for sub in subsets):
            return size
    return 0


def exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank over the rationals, by Gaussian elimination in `Fraction`s."""
    rows = [r[:] for r in rows if any(r)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in rows[rank + 1 :]:
            if r[col]:
                f = r[col] / top[col]
                for j in range(col, len(r)):
                    r[j] -= f * top[j]
        rank += 1
    return rank


def brute_critical_sets(g: Graph, d: int, cap: int = BRUTE_CAP) -> list[tuple[int, ...]]:
    """All U with |U| > 1 and i(U) = d|U| - d."""
    assert g.n <= cap
    out = []
    for r in range(2, g.n + 1):
        for subset in combinations(range(g.n), r):
            if g.induced_count(subset) == d * r - d:
                out.append(subset)
    return out


def brute_addable(g: Graph, d: int, x: int, y: int, cap: int = BRUTE_CAP) -> bool:
    if g.has_edge(x, y):
        return False
    return brute_sparse(g.with_edge(x, y), SparsityParams(d, d), cap=cap)


def random_graph(n: int, m: int, rng: np.random.Generator) -> Graph:
    pairs = list(combinations(range(n), 2))
    idx = rng.choice(len(pairs), size=min(m, len(pairs)), replace=False)
    return Graph(n, [pairs[i] for i in idx])


def is_isomorphic(a: Graph, b: Graph) -> bool:
    """Permutation brute force; fine up to 7 vertices."""
    if a.n != b.n or a.m != b.m:
        return False
    assert a.n <= 7
    edges_b = set(b.edges)
    degs_a = sorted(a.degree(v) for v in range(a.n))
    degs_b = sorted(b.degree(v) for v in range(b.n))
    if degs_a != degs_b:
        return False
    for perm in permutations(range(a.n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in a.edges}
        if mapped == edges_b:
            return True
    return False


def all_graphs(n: int) -> list[Graph]:
    """One graph per isomorphism class on n <= BRUTE_CAP vertices, each grown
    from a class on n - 1 vertices by a new vertex with every neighbour set."""
    assert 0 <= n <= BRUTE_CAP
    if n == 0:
        return [Graph(0)]
    classes: dict[tuple, list[Graph]] = {}
    for base in all_graphs(n - 1):
        for r in range(n):
            for nbrs in combinations(range(n - 1), r):
                g = base.with_vertex(nbrs)
                # Each vertex's degree and its neighbours' degrees: an invariant.
                key = tuple(sorted((g.degree(v), *sorted(g.degree(w) for w in g.neighbors(v))) for v in range(n)))
                same = classes.setdefault(key, [])
                if not any(is_isomorphic(g, h) for h in same):
                    same.append(g)
    return [g for same in classes.values() for g in same]
