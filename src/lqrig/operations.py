"""Independence-preserving graph operations and randomized generation.

Every operation is a pure function returning a new graph together with an
OpRecord whose parameters suffice to replay it.  New vertices always take
the next free index; `substitute` and 1-reductions renumber and record the
layout they used.

`henneberg_generate` and `henneberg_replay` do not go through those
functions step by step: they grow one list of neighbour sets in place by
`_extend`, which runs the checks of `zero_extension` and `one_extension`,
and build one graph at the end.  So the replay takes only the ext0 and
ext1 records the generator writes; `apply_record` replays any kind.
Both refuse a record whose `before_n` is not the vertex count it is
applied to, and read an extension record's params as integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Collection, NamedTuple, Optional, Sequence

import numpy as np

from .graphs import (
    Graph,
    SparsityParams,
    _PebbleGame,
    complete_graph,
    edge_addable,
    isolated_at,
    json_int,
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
        try:
            kind, params = obj["kind"], dict(obj["params"])
            before_n, after_n = json_int(obj["before_n"]), json_int(obj["after_n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed operation record object: {exc}") from exc
        return cls(kind, params, before_n, after_n)


def _check_vertices(n: int, vs: Sequence[int], what: str) -> None:
    if len(set(vs)) != len(vs):
        raise ValueError(f"{what} contains repeated vertices")
    for v in vs:
        if not (0 <= v < n):
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
    _check_vertices(g.n, s, "bracing set")
    v0, v1 = g.n, g.n + 1
    out = g._derive(g.n + 2, [(w, v0) for w in s] + [(w, v1) for w in s] + [(v0, v1)])
    return out, OpRecord("brace", {"s": sorted(s), "d": d}, g.n, out.n)


def _check_extension(
    adj: Sequence[Collection[int]], nbrs: list[int], removed: Optional[Sequence[int]], d: int
) -> Optional[tuple[int, int]]:
    """Raise ValueError unless a new vertex may join `nbrs` in the graph
    with neighbour sets `adj`: by a 0-extension when `removed` is None,
    else by a 1-extension deleting the edge `removed`, which it returns as
    (x, y) with x < y.  The checks of `zero_extension`, `one_extension` and
    `_extend`."""
    if removed is None:
        if len(nbrs) != d:
            raise ValueError(f"0-extension set must have exactly {d} vertices, got {len(nbrs)}")
        _check_vertices(len(adj), nbrs, "0-extension set")
        return None
    if len(nbrs) != d + 1:
        raise ValueError(f"1-extension needs exactly {d + 1} neighbours, got {len(nbrs)}")
    _check_vertices(len(adj), nbrs, "1-extension neighbours")
    if len(removed) != 2:
        raise ValueError(f"removed edge {list(removed)} is not a vertex pair")
    x, y = sorted(removed)
    if not (0 <= x < len(adj) and y in adj[x]):
        raise ValueError(f"removed pair {(x, y)} is not an edge")
    if x not in nbrs or y not in nbrs:
        raise ValueError("removed edge endpoints must lie among the neighbours")
    return x, y


def _extension_args(kind: str, p: dict) -> tuple[list[int], Optional[list[int]], int]:
    """The neighbours, removed edge (None for ext0) and d that the params
    of an ext0 or ext1 record name; KeyError or TypeError unless each is
    there and made of integers."""
    d = json_int(p["d"])
    if kind == "ext0":
        return [json_int(x) for x in p["s"]], None, d
    return [json_int(x) for x in p["nbrs"]], [json_int(x) for x in p["removed"]], d


def _extension(g: Graph, kind: str, p: dict) -> tuple[Graph, OpRecord]:
    """`zero_extension` or `one_extension` of g as an ext0 or ext1 record's
    params name it."""
    nbrs, removed, d = _extension_args(kind, p)
    if removed is None:
        return zero_extension(g, nbrs, d)
    return one_extension(g, nbrs, removed, d)


def _extend(adj: list[set[int]], nbrs: list[int], removed: Optional[Sequence[int]], d: int) -> None:
    """The 0-extension (`removed` None) or 1-extension of `zero_extension`
    and `one_extension`, with their checks, made in place on `adj`, a list
    of mutable neighbour sets: the new vertex is len(adj)."""
    pair = _check_extension(adj, nbrs, removed, d)
    if pair is not None:
        x, y = pair
        adj[x].remove(y)
        adj[y].remove(x)
    w = len(adj)
    for u in nbrs:
        adj[u].add(w)
    adj.append(set(nbrs))


def _graph(adj: list[set[int]]) -> Graph:
    """The graph with neighbour sets `adj`, every edge checked."""
    return Graph(len(adj), [(u, w) for w, nbrs in enumerate(adj) for u in nbrs if u < w])


def _complete(k: int) -> list[set[int]]:
    """Mutable neighbour sets of K_k."""
    return [set(a) for a in complete_graph(k)._adj]


def zero_extension(g: Graph, s: Sequence[int], d: int) -> tuple[Graph, OpRecord]:
    """Add one vertex adjacent to exactly the d vertices of `s`."""
    s = list(s)
    _check_extension(g._adj, s, None, d)
    out = g.with_vertex(s)
    return out, OpRecord("ext0", {"s": sorted(s), "d": d}, g.n, out.n)


def one_extension(
    g: Graph, nbrs: Sequence[int], removed: tuple[int, int], d: int
) -> tuple[Graph, OpRecord]:
    """Delete `removed` and add a vertex adjacent to the d+1 vertices `nbrs`."""
    nbrs = list(nbrs)
    x, y = _check_extension(g._adj, nbrs, removed, d)
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
    _check_vertices(g.n, [v0], "split vertex")
    _check_vertices(g.n, shared, "shared set")
    _check_vertices(g.n, moved, "moved set")
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
    _check_vertices(g.n, [v0], "substituted vertex")
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


def _check_reduction_vertex(g: Graph, v: int, d: int) -> None:
    _check_vertices(g.n, [v], "reduction")
    if g.degree(v) != d + 1:
        raise ValueError(f"vertex {v} has degree {g.degree(v)}, need {d + 1}")


def one_reduction_search(g: Graph, v: int, d: int) -> Optional[tuple[int, int]]:
    """Lexicographically least pair x < y of neighbours of v such that the
    1-reduction at v adding xy yields a (d,d)-sparse graph; None if no pair
    qualifies.  For d >= 3 with all neighbour degrees <= d+2, None implies
    the closed neighbourhood of v is K_{d+2}."""
    _check_reduction_vertex(g, v, d)
    masked = isolated_at(g, d, v)
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
    """Delete v and join the pair, given in the numbering before the deletion.
    Raises ValueError unless v has degree d+1 and the pair is two distinct,
    non-adjacent neighbours of v."""
    _check_reduction_vertex(g, v, d)
    x, y = pair
    if x == y or not (g.has_edge(v, x) and g.has_edge(v, y)):
        raise ValueError(f"added pair {[x, y]} is not two distinct neighbours of vertex {v}")
    if g.has_edge(x, y):
        raise ValueError(f"added pair {[x, y]} is already an edge")
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
    "ext0": Operation(lambda g, p: _extension(g, "ext0", p), True),
    "ext1": Operation(lambda g, p: _extension(g, "ext1", p), True),
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
    """Replay one recorded operation on g, which must have the record's
    `before_n` vertices.  A missing or ill-typed parameter raises
    ValueError."""
    if rec.kind not in OPERATIONS:
        raise ValueError(f"unknown operation kind {rec.kind!r}")
    if rec.before_n != g.n:
        raise ValueError(f"{rec.kind!r} record starts from {rec.before_n} vertices, not {g.n}")
    try:
        res = OPERATIONS[rec.kind].apply(g, rec.params)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{rec.kind!r} record has a missing or bad parameter: {exc}") from exc
    return res[0]


def henneberg_generate(d: int, n: int, seed: int) -> tuple[Graph, list[OpRecord]]:
    """Random (d,d)-tight graph grown from K_{2d} by 0- and 1-extensions.

    Each step is a 0- or 1-extension with probability 1/2 each; a
    1-extension falls back to a 0-extension when no sampled neighbour set
    contains an edge.  Both moves preserve (d,d)-tightness, so the output
    is (d,d)-tight by construction.  Deterministic per seed.

    The steps grow one list of neighbour sets in place through `_extend`,
    with the checks and records of `zero_extension` and `one_extension`,
    and one `Graph` is built at the end.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if n < 2 * d:
        raise ValueError(f"need n >= {2 * d}")
    rng = np.random.default_rng(seed)
    adj = _complete(2 * d)
    records: list[OpRecord] = []
    for w in range(2 * d, n):
        rec = None
        if rng.random() < 0.5:
            for _ in range(20):
                sample = sorted(rng.choice(w, size=d + 1, replace=False).tolist())
                inside = [(x, y) for x, y in combinations(sample, 2) if y in adj[x]]
                if inside:
                    x, y = inside[int(rng.integers(len(inside)))]
                    _extend(adj, sample, (x, y), d)
                    rec = OpRecord("ext1", {"nbrs": sample, "removed": [x, y], "d": d}, w, w + 1)
                    break
        if rec is None:
            s = sorted(rng.choice(w, size=d, replace=False).tolist())
            _extend(adj, s, None, d)
            rec = OpRecord("ext0", {"s": s, "d": d}, w, w + 1)
        records.append(rec)
    return _graph(adj), records


def henneberg_replay(d: int, records: Sequence[OpRecord]) -> Graph:
    """Replay a `henneberg_generate` log from K_{2d}: each record is a 0- or
    1-extension, checked and made in place as in generation, with the d
    it carries.  Any other kind raises ValueError; `apply_record` replays
    those one step at a time.  So does a record whose `before_n` is not
    the vertex count it is applied to, or whose params are missing or
    ill-typed; each message names the record's position."""
    adj = _complete(2 * d)
    for i, rec in enumerate(records):
        if rec.kind not in ("ext0", "ext1"):
            raise ValueError(
                f"record {i} is a {rec.kind!r} operation; henneberg_replay takes only 'ext0' and 'ext1'"
            )
        if rec.before_n != len(adj):
            raise ValueError(f"record {i} starts from {rec.before_n} vertices, not {len(adj)}")
        try:
            nbrs, removed, rec_d = _extension_args(rec.kind, rec.params)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"record {i} has a missing or bad parameter: {exc}") from exc
        _extend(adj, nbrs, removed, rec_d)
    return _graph(adj)


def random_degree_bounded_sparse(d: int, n: int, seed: int) -> Graph:
    """Random connected (d,d)-sparse graph with min degree <= d+1 and max
    degree <= d+2; the degree regime where sparsity is known to force
    independence.  The construction proves each property, so none is
    checked afterwards:
    - connected: each new vertex joins 1 to d existing vertices;
    - max degree <= d+2: a new vertex joins only vertices below d+2, and an
      edge is drawn only from `open_pairs`, which holds pairs with both
      endpoints below d+2 and drops a pair once an endpoint reaches d+2;
    - min degree <= d+1: the last vertex added has degree at most d, and an
      edge is accepted only if the min degree stays at most d+1;
    - (d,d)-sparse: a vertex added with at most d edges keeps a sparse
      graph sparse, and `with_addable_edge` returns only sparse graphs.

    The vertex phase keeps degree and edge lists and builds one `Graph`,
    whose checks every edge passes, before the edge phase; drawing indices
    into the candidate list takes the same draws as drawing from it.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    deg = [0]
    edges = []
    for w in range(1, n):
        cand = [v for v in range(w) if deg[v] < d + 2]
        take = int(rng.integers(1, min(d, len(cand)) + 1))
        for i in rng.choice(len(cand), size=take, replace=False):
            edges.append((cand[i], w))
            deg[cand[i]] += 1
        deg.append(take)
    g = Graph(n, edges)
    draws = int(rng.integers(0, 2 * d + 1))
    # The non-adjacent pairs below degree d+2, in lexicographic order:
    # listed once, then kept up to date as edges are accepted.
    open_pairs = []
    if draws:
        open_pairs = [
            (x, y)
            for x, y in combinations(range(g.n), 2)
            if not g.has_edge(x, y) and g.degree(x) < d + 2 and g.degree(y) < d + 2
        ]
    for _ in range(draws):
        if not open_pairs:
            break
        x, y = open_pairs[int(rng.integers(len(open_pairs)))]
        extended = with_addable_edge(g, d, x, y)
        if extended is not None and extended.min_degree() <= d + 1:
            g = extended
            full = {v for v in (x, y) if g.degree(v) >= d + 2}
            open_pairs = [
                e for e in open_pairs if e != (x, y) and e[0] not in full and e[1] not in full
            ]
    return g


def random_count_sparse(params: SparsityParams, n: int, seed: int) -> Graph:
    """Random graph satisfying the (k, l, multiplier) sparsity count: edges
    are accepted greedily in shuffled order up to a random target size, by
    one pebble game that inserts each accepted edge `edge_multiplier` times."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    cap = (params.k * n - params.l) // params.edge_multiplier
    target = int(rng.integers(1, max(cap, 1) + 1))
    game = _PebbleGame(n, params.k, params.l)
    accepted: list[tuple[int, int]] = []
    for u, v in pairs:
        if len(accepted) >= target:
            break
        if game.insert(u, v, params.edge_multiplier):
            accepted.append((u, v))
    return Graph(n, accepted)
