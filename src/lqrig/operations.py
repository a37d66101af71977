"""Independence-preserving graph operations and randomized generation.

Every operation is a pure function returning a new graph together with an
OpRecord whose parameters suffice to replay it.  New vertices always take
the next free index; `substitute` and 1-reductions renumber and record the
layout they used.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .graphs import (
    Graph,
    SparsityParams,
    complete_graph,
    edge_addable,
    is_sparse,
    with_addable_edge,
)


@dataclass(frozen=True)
class OpRecord:
    kind: str
    params: dict
    before_n: int
    after_n: int

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "before_n": self.before_n,
            "after_n": self.after_n,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "OpRecord":
        return cls(obj["kind"], dict(obj["params"]), int(obj["before_n"]), int(obj["after_n"]))


def _check_vertices(g: Graph, vs: Sequence[int], what: str) -> None:
    if len(set(vs)) != len(vs):
        raise ValueError(f"{what} contains repeated vertices")
    for v in vs:
        if not (0 <= v < g.n):
            raise ValueError(f"{what} vertex {v} out of range")


def cone(g: Graph) -> tuple[Graph, OpRecord]:
    """Add one vertex adjacent to every existing vertex."""
    out = g.with_vertex(range(g.n))
    return out, OpRecord("cone", {}, g.n, out.n)


def brace(g: Graph, s: Sequence[int], d: int) -> tuple[Graph, OpRecord]:
    """Add adjacent vertices v0, v1, each joined to the 2d-set `s`."""
    s = list(s)
    if g.n < 2 * d:
        raise ValueError(f"bracing needs at least {2 * d} vertices")
    if len(s) != 2 * d:
        raise ValueError(f"bracing set must have exactly {2 * d} vertices, got {len(s)}")
    _check_vertices(g, s, "bracing set")
    v0, v1 = g.n, g.n + 1
    out = g._derive(g.n + 2, [(w, v0) for w in s] + [(w, v1) for w in s] + [(v0, v1)])
    return out, OpRecord("brace", {"s": sorted(s), "d": d}, g.n, out.n)


def zero_extension(g: Graph, s: Sequence[int], d: int) -> tuple[Graph, OpRecord]:
    """Add one vertex adjacent to exactly the d vertices of `s`."""
    s = list(s)
    if len(s) != d:
        raise ValueError(f"0-extension set must have exactly {d} vertices, got {len(s)}")
    _check_vertices(g, s, "0-extension set")
    out = g.with_vertex(s)
    return out, OpRecord("ext0", {"s": sorted(s), "d": d}, g.n, out.n)


def one_extension(
    g: Graph, nbrs: Sequence[int], removed: tuple[int, int], d: int
) -> tuple[Graph, OpRecord]:
    """Delete `removed` and add a vertex adjacent to the d+1 vertices `nbrs`."""
    nbrs = list(nbrs)
    if len(nbrs) != d + 1:
        raise ValueError(f"1-extension needs exactly {d + 1} neighbours, got {len(nbrs)}")
    _check_vertices(g, nbrs, "1-extension neighbours")
    x, y = min(removed), max(removed)
    if not g.has_edge(x, y):
        raise ValueError(f"removed pair {(x, y)} is not an edge")
    if x not in nbrs or y not in nbrs:
        raise ValueError("removed edge endpoints must lie among the neighbours")
    out = g._derive(g.n + 1, [(w, g.n) for w in nbrs], [(x, y)])
    return out, OpRecord(
        "ext1", {"nbrs": sorted(nbrs), "removed": [x, y], "d": d}, g.n, out.n
    )


def vertex_split(
    g: Graph,
    v0: int,
    shared: Sequence[int],
    moved: Sequence[int],
    d: int,
    spider: bool = False,
) -> tuple[Graph, OpRecord]:
    """Split v0 into v0 and a new vertex w0.

    `shared` neighbours (d-1 of them, d for a spider split) become adjacent
    to both halves; each edge v0-w for w in `moved` is reassigned to w0-w.
    The halves are joined by an edge unless `spider`.
    """
    shared = list(shared)
    moved = list(moved)
    want = d if spider else d - 1
    if len(shared) != want:
        raise ValueError(f"expected {want} shared neighbours, got {len(shared)}")
    _check_vertices(g, [v0], "split vertex")
    _check_vertices(g, shared, "shared set")
    _check_vertices(g, moved, "moved set")
    nbrs = g.neighbors(v0)
    if not set(shared) <= nbrs:
        raise ValueError("shared vertices must be neighbours of the split vertex")
    if not set(moved) <= nbrs:
        raise ValueError("moved vertices must be neighbours of the split vertex")
    if set(shared) & set(moved):
        raise ValueError("shared and moved sets must be disjoint")
    w0 = g.n
    added = [(w, w0) for w in shared + moved] + ([] if spider else [(v0, w0)])
    out = g._derive(g.n + 1, added, [(v0, w) for w in moved])
    kind = "spider" if spider else "vsplit"
    return out, OpRecord(
        kind,
        {"v0": v0, "shared": sorted(shared), "moved": sorted(moved), "d": d},
        g.n,
        out.n,
    )


def substitute(
    g: Graph, v0: int, h: Graph, assign: Optional[dict[int, int]] = None
) -> tuple[Graph, OpRecord]:
    """Replace v0 by a disjoint copy of h.

    `assign` maps each neighbour w of v0 to the h-vertex that receives the
    edge formerly joining v0 and w; by default every edge is routed to
    h-vertex 0.  Vertices keep their order: old vertices below v0 keep
    their index, those above shift down by one, and the copy of h occupies
    the top |V(h)| indices.
    """
    _check_vertices(g, [v0], "substituted vertex")
    if h.n < 1:
        raise ValueError("substituted graph must be nonempty")
    nbrs = sorted(g.neighbors(v0))
    if assign is None:
        assign = {w: 0 for w in nbrs}
    if sorted(assign) != nbrs:
        raise ValueError("assignment must cover exactly the edges at the substituted vertex")
    for w, hv in assign.items():
        if not (0 <= hv < h.n):
            raise ValueError(f"assignment target {hv} outside the substituted graph")

    def remap(u: int) -> int:
        return u - 1 if u > v0 else u

    base = g.n - 1
    edges = [(remap(a), remap(b)) for a, b in g.edges if v0 not in (a, b)]
    edges += [(base + a, base + b) for a, b in h.edges]
    edges += [(remap(w), base + hv) for w, hv in assign.items()]
    out = Graph(base + h.n, edges)
    return out, OpRecord(
        "subst",
        {
            "v0": v0,
            "h": h.to_json_dict(),
            "assign": {str(w): hv for w, hv in sorted(assign.items())},
        },
        g.n,
        out.n,
    )


def one_reduction_search(g: Graph, v: int, d: int) -> Optional[tuple[int, int]]:
    """Lexicographically least pair x < y of neighbours of v such that the
    1-reduction at v adding xy yields a (d,d)-sparse graph; None if no pair
    qualifies.  For d >= 3 with all neighbour degrees <= d+2, None implies
    the closed neighbourhood of v is K_{d+2}."""
    _check_vertices(g, [v], "reduction")
    if g.degree(v) != d + 1:
        raise ValueError(f"vertex {v} has degree {g.degree(v)}, need {d + 1}")
    masked = g.without_edges_at(v)
    for x, y in combinations(sorted(g.neighbors(v)), 2):
        if g.has_edge(x, y):
            continue
        if edge_addable(masked, d, x, y):
            return (x, y)
    return None


def one_reduce(g: Graph, v: int, d: int) -> Optional[tuple[Graph, OpRecord]]:
    """Apply the 1-reduction found by `one_reduction_search`, renumbering
    vertices above v down by one."""
    pair = one_reduction_search(g, v, d)
    return None if pair is None else _reduce_at(g, v, pair, d)


def _reduce_at(g: Graph, v: int, pair: Sequence[int], d: int) -> tuple[Graph, OpRecord]:
    """Delete v and join the pair, given in the numbering before the deletion."""
    x, y = pair
    out = g.delete_vertex(v).with_edge(x - 1 if x > v else x, y - 1 if y > v else y)
    return out, OpRecord("reduce1", {"v": v, "added": [x, y], "d": d}, g.n, out.n)


def _substitute(g: Graph, p: dict) -> tuple[Graph, OpRecord]:
    assign = p.get("assign")
    if assign is not None:
        assign = {int(w): int(hv) for w, hv in assign.items()}
    return substitute(g, p["v0"], Graph.from_json_dict(p["h"]), assign)


def _reduce1(g: Graph, p: dict) -> Optional[tuple[Graph, OpRecord]]:
    # A record carries the pair it added; a request without one searches.
    if "added" not in p:
        return one_reduce(g, p["v"], p["d"])
    return _reduce_at(g, p["v"], p["added"], p["d"])


class Operation(NamedTuple):
    """How to apply one operation kind from its parameter dict.

    `apply` takes the params a record carries (or a request spells out) and
    returns the new graph with its record, or None when a 1-reduction finds
    no pair; `needs_d` says whether the params must include the dimension.
    """

    apply: Callable[[Graph, dict], Optional[tuple[Graph, OpRecord]]]
    needs_d: bool


OPERATIONS: dict[str, Operation] = {
    "cone": Operation(lambda g, p: cone(g), False),
    "brace": Operation(lambda g, p: brace(g, p["s"], p["d"]), True),
    "ext0": Operation(lambda g, p: zero_extension(g, p["s"], p["d"]), True),
    "ext1": Operation(
        lambda g, p: one_extension(g, p["nbrs"], tuple(p["removed"]), p["d"]), True
    ),
    "vsplit": Operation(
        lambda g, p: vertex_split(g, p["v0"], p["shared"], p.get("moved", []), p["d"]), True
    ),
    "spider": Operation(
        lambda g, p: vertex_split(
            g, p["v0"], p["shared"], p.get("moved", []), p["d"], spider=True
        ),
        True,
    ),
    "subst": Operation(_substitute, False),
    "reduce1": Operation(_reduce1, True),
}


def apply_record(g: Graph, rec: OpRecord) -> Graph:
    """Replay one recorded operation."""
    if rec.kind not in OPERATIONS:
        raise ValueError(f"unknown operation kind {rec.kind!r}")
    return OPERATIONS[rec.kind].apply(g, rec.params)[0]


def henneberg_generate(d: int, n: int, seed: int) -> tuple[Graph, list[OpRecord]]:
    """Random (d,d)-tight graph grown from K_{2d} by 0- and 1-extensions.

    Each step is a 0- or 1-extension with probability 1/2 each; a
    1-extension falls back to a 0-extension when no sampled neighbour set
    contains an edge.  Both moves preserve (d,d)-tightness, so the output
    is (d,d)-tight by construction.  Deterministic per seed.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if n < 2 * d:
        raise ValueError(f"need n >= {2 * d}")
    rng = np.random.default_rng(seed)
    g = complete_graph(2 * d)
    records: list[OpRecord] = []
    while g.n < n:
        rec = None
        if rng.random() < 0.5:
            for _ in range(20):
                sample = sorted(int(x) for x in rng.choice(g.n, size=d + 1, replace=False))
                inside = [e for e in combinations(sample, 2) if g.has_edge(*e)]
                if inside:
                    removed = inside[int(rng.integers(len(inside)))]
                    g, rec = one_extension(g, sample, removed, d)
                    break
        if rec is None:
            s = sorted(int(x) for x in rng.choice(g.n, size=d, replace=False))
            g, rec = zero_extension(g, s, d)
        records.append(rec)
    return g, records


def henneberg_replay(d: int, records: Sequence[OpRecord]) -> Graph:
    g = complete_graph(2 * d)
    for rec in records:
        g = apply_record(g, rec)
    return g


def random_degree_bounded_sparse(d: int, n: int, seed: int) -> Graph:
    """Random connected (d,d)-sparse graph with min degree <= d+1 and max
    degree <= d+2; the degree regime where sparsity is known to force
    independence."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    for _ in range(200):
        g = Graph(1)
        while g.n < n:
            cand = [v for v in range(g.n) if g.degree(v) < d + 2]
            take = int(rng.integers(1, min(d, len(cand)) + 1))
            s = [int(x) for x in rng.choice(cand, size=take, replace=False)]
            g = g.with_vertex(s)
        for _ in range(int(rng.integers(0, 2 * d + 1))):
            open_pairs = [
                (x, y)
                for x, y in combinations(range(g.n), 2)
                if not g.has_edge(x, y) and g.degree(x) < d + 2 and g.degree(y) < d + 2
            ]
            if not open_pairs:
                break
            x, y = open_pairs[int(rng.integers(len(open_pairs)))]
            extended = with_addable_edge(g, d, x, y)
            if extended is not None and extended.min_degree() <= d + 1:
                g = extended
        ok = (
            g.is_connected()
            and g.min_degree() <= d + 1
            and g.max_degree() <= d + 2
            and is_sparse(g, SparsityParams(d, d))
        )
        if ok:
            return g
    raise RuntimeError("failed to generate a degree-bounded sparse graph")


def random_count_sparse(params: SparsityParams, n: int, seed: int) -> Graph:
    """Random graph satisfying the (k, l, multiplier) sparsity count: edges
    are accepted greedily in shuffled order up to a random target size."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    cap = (params.k * n - params.l) // params.edge_multiplier
    target = int(rng.integers(1, max(cap, 1) + 1))
    accepted: list[tuple[int, int]] = []
    for u, v in pairs:
        if len(accepted) >= target:
            break
        candidate = Graph(n, accepted + [(u, v)])
        if is_sparse(candidate, params):
            accepted.append((u, v))
    return Graph(n, accepted)
