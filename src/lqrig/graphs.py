"""Finite simple graphs with dense integer vertices, sparsity counts and the pebble game.

Vertices are the indices 0..n-1; an edge is an unordered pair of distinct
indices.  Graphs are immutable: all "mutating" operations return new graphs.
Named vertices, if any, live in the I/O layer.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional


class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_edges", "_adj", "_games", "_count_ranks", "_ends")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        normalized: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            e = (u, v) if u < v else (v, u)
            if e in normalized:
                raise ValueError(f"duplicate edge {e}")
            normalized.add(e)
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        # Sorted once: the canonical form that equality, hashing and every
        # reader of `edges` share.
        self._edges = tuple(sorted(normalized))
        self._adj = tuple(frozenset(s) for s in adj)
        # Loaded pebble games by count, None if rejected; see `_loaded`.
        self._games: dict = {}
        # Greedy (d,d) counts of a graph that is not (d,d)-sparse, by d;
        # made on first use, as few graphs need one.  See `count_rank`.
        self._count_ranks: Optional[dict] = None
        # Edge endpoint arrays, made on first use by `geometry`.
        self._ends = None

    # -- queries ---------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (u, v) with u < v, sorted lexicographically."""
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._adj[u]

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def min_degree(self) -> int:
        return min((len(a) for a in self._adj), default=0)

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def induced_count(self, vertices: Iterable[int]) -> int:
        """Number of edges with both endpoints in `vertices` (i(U))."""
        vs = set(vertices)
        return sum(1 for u, v in self._edges if u in vs and v in vs)

    def cross_count(self, us: Iterable[int], ws: Iterable[int]) -> int:
        """Number of edges between U\\W and W\\U (d(U, W))."""
        uonly = set(us)
        wonly = set(ws)
        uonly, wonly = uonly - wonly, wonly - uonly
        return sum(
            1
            for u, v in self._edges
            if (u in uonly and v in wonly) or (v in uonly and u in wonly)
        )

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self._adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    # -- functional updates ----------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        return self._derive(self.n, [(u, v)])

    def with_vertex(self, nbrs: Iterable[int] = ()) -> "Graph":
        """Append vertex n adjacent to `nbrs`."""
        return self._derive(self.n + 1, [(w, self.n) for w in nbrs])

    def _derive(
        self, n: int, added: Iterable[tuple[int, int]], removed: Iterable[tuple[int, int]] = ()
    ) -> "Graph":
        """This graph on n >= self.n vertices less `removed` (which must be
        edges) plus `added`.  Only the new edges are checked, with the errors
        of `__init__`, and only the touched vertices' neighbour sets rebuilt."""
        edges = list(self._edges)
        adj = list(self._adj) + [frozenset()] * (n - self.n)
        gone, new = defaultdict(set), defaultdict(set)
        for u, v in removed:
            e = (u, v) if u < v else (v, u)
            i = bisect_left(edges, e)
            if i == len(edges) or edges[i] != e:
                raise ValueError(f"{e} is not an edge")
            del edges[i]
            gone[u].add(v)
            gone[v].add(u)
        for u, v in added:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            e = (u, v) if u < v else (v, u)
            i = bisect_left(edges, e)
            if i < len(edges) and edges[i] == e:
                raise ValueError(f"duplicate edge {e}")
            edges.insert(i, e)
            new[u].add(v)
            new[v].add(u)
        for u in gone.keys() | new.keys():
            adj[u] = adj[u] - gone[u] | new[u]
        out = Graph.__new__(Graph)
        out.n, out._edges, out._adj = n, tuple(edges), tuple(adj)
        out._games, out._count_ranks, out._ends = {}, None, None
        return out

    def without_edges_at(self, v: int) -> "Graph":
        """Same vertex set with v isolated."""
        return Graph(self.n, [e for e in self._edges if v not in e])

    def delete_vertex(self, v: int) -> "Graph":
        """Remove v; indices above v shift down by one."""
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range")

        def remap(u: int) -> int:
            return u - 1 if u > v else u

        kept = [(remap(a), remap(b)) for a, b in self._edges if v not in (a, b)]
        return Graph(self.n - 1, kept)

    # -- misc --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __reduce__(self):
        return Graph, (self.n, self._edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Graph":
        try:
            n = int(obj["n"])
            edges = [(int(u), int(v)) for u, v in obj["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed graph object: {exc}") from exc
        return cls(n, edges)


# -- factories --------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def wheel_graph(n: int) -> Graph:
    """Wheel on n >= 4 vertices: center 0 joined to the rim cycle 1..n-1."""
    if n < 4:
        raise ValueError("wheel needs at least 4 vertices")
    rim = [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]
    spokes = [(0, i) for i in range(1, n)]
    return Graph(n, rim + spokes)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


# -- sparsity counts ---------------------------------------------------------


@dataclass(frozen=True)
class SparsityParams:
    """(k, l) count with an integer edge multiplier.

    `edge_multiplier=2` encodes half-integer counts such as (5/2, 7/2):
    every edge is inserted twice into the integer (k, l) game.
    """

    k: int
    l: int
    edge_multiplier: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if not 0 <= self.l < 2 * self.k:
            raise ValueError(f"(k,l)=({self.k},{self.l}) outside pebble-game range 0 <= l < 2k")
        if self.edge_multiplier not in (1, 2):
            raise ValueError("edge_multiplier must be 1 or 2")


def f_count(g: Graph, d: int) -> int:
    """The count f_d(G) = d|V| - |E|."""
    if d < 1:
        raise ValueError("d must be positive")
    return d * g.n - g.m


class _PebbleGame:
    """(k, l)-pebble game over a fixed vertex set.

    Every vertex starts with k pebbles.  Inserting an edge uv requires l+1
    pebbles gathered on {u, v}; one of them is consumed and the edge is
    oriented away from the vertex that paid.  Pebbles travel backwards along
    oriented paths (path reversal).  An edge multiset is (k, l)-sparse iff
    every insertion is accepted; acceptance is independent of the order of
    insertions and of the search choices.
    """

    def __init__(self, n: int, k: int, l: int):
        self.n = n
        self.k = k
        self.l = l
        self.pebbles = [k] * n
        self.out: list[list[int]] = [[] for _ in range(n)]

    def _free_pebble(self, root: int, hold: int) -> bool:
        """Move one pebble onto `root` if reachable, treating `hold` as off-limits."""
        parent: dict[int, Optional[int]] = {root: None, hold: None}
        stack = [root]
        found = -1
        while stack and found < 0:
            u = stack.pop()
            for w in self.out[u]:
                if w in parent:
                    continue
                parent[w] = u
                if self.pebbles[w] > 0:
                    found = w
                    break
                stack.append(w)
        if found < 0:
            return False
        w = found
        while True:
            u = parent[w]
            if u is None:
                break
            self.out[u].remove(w)
            self.out[w].append(u)
            w = u
        self.pebbles[found] -= 1
        self.pebbles[root] += 1
        return True

    def collect(self, u: int, v: int, need: int) -> bool:
        """Gather `need` pebbles on the pair {u, v}."""
        while self.pebbles[u] + self.pebbles[v] < need:
            if not (self._free_pebble(u, v) or self._free_pebble(v, u)):
                return False
        return True

    def insert(self, u: int, v: int) -> bool:
        if not self.collect(u, v, self.l + 1):
            return False
        if self.pebbles[u] > 0:
            self.pebbles[u] -= 1
            self.out[u].append(v)
        else:
            self.pebbles[v] -= 1
            self.out[v].append(u)
        return True

    def load(self, g: Graph, multiplier: int) -> bool:
        for u, v in g.edges:
            for _ in range(multiplier):
                if not self.insert(u, v):
                    return False
        return True

    def copy(self) -> "_PebbleGame":
        """An independent game in the same state (O(n + m))."""
        other = copy.copy(self)
        other.pebbles, other.out = self.pebbles[:], [o[:] for o in self.out]
        return other


def _loaded(g: Graph, k: int, l: int, multiplier: int) -> Optional[_PebbleGame]:
    """The (k, l) game with every edge of g inserted `multiplier` times, None
    if some insertion fails.  Loaded once per graph and count and kept on g;
    callers must not move its pebbles, so answers never depend on query order.
    Concurrent first calls may each load a game; they store equal states."""
    key = (k, l, multiplier)
    if key not in g._games:
        game = _PebbleGame(g.n, k, l)
        g._games[key] = game if game.load(g, multiplier) else None
    return g._games[key]


def count_rank(g: Graph, d: int) -> int:
    """Rank of the (d,d)-count matroid on g's edges: the number of edges a
    greedy (d,d)-pebble game accepts.  |E| when g is (d,d)-sparse, read from
    the loaded game; otherwise the greedy game runs once per graph and d and
    its count is kept on g.  The loaded game is never moved.  Concurrent
    first calls may each run the greedy game; they store equal counts."""
    if _loaded(g, d, d, 1) is not None:
        return g.m
    if g._count_ranks is None:
        g._count_ranks = {}
    if d not in g._count_ranks:
        game = _PebbleGame(g.n, d, d)
        g._count_ranks[d] = sum(game.insert(u, v) for u, v in g.edges)
    return g._count_ranks[d]


def is_sparse(g: Graph, params: SparsityParams) -> bool:
    """True iff every nonempty-edge subgraph H satisfies
    edge_multiplier*|E(H)| <= k*|V(H)| - l, decided by the pebble game.
    The game is loaded once per graph and count and reused by later
    `is_sparse`, `is_tight` and `edge_addable` calls on the same graph."""
    return _loaded(g, params.k, params.l, params.edge_multiplier) is not None


def is_tight(g: Graph, d: int) -> bool:
    """(d,d)-sparse with f_d(G) = d."""
    return f_count(g, d) == d and is_sparse(g, SparsityParams(d, d))


def _grown_game(g: Graph, d: int, x: int, y: int) -> Optional[_PebbleGame]:
    """A copy of g's loaded (d,d) game with xy inserted, None when xy is an
    edge or g + xy is not (d,d)-sparse.  Endpoints outside 0..n-1 raise
    ValueError."""
    if x == y:
        raise ValueError("endpoints must be distinct")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"edge ({x},{y}) out of range for n={g.n}")
    if g.has_edge(x, y):
        return None
    game = _loaded(g, d, d, 1)
    if game is None:
        return None
    game = game.copy()
    return game if game.insert(x, y) else None


def edge_addable(g: Graph, d: int, x: int, y: int) -> bool:
    """True iff xy is not an edge and g + xy is (d,d)-sparse.

    Equivalently: no critical set (i(U) = d|U| - d, |U| > 1) contains both
    x and y.  Decided by gathering d+1 pebbles on {x, y} in a copy of the
    (d,d) game with all edges of g inserted; that game is loaded once per
    graph and count and shared with `is_sparse`, and the critical set is
    never materialized.  Endpoints outside 0..n-1 raise ValueError.
    """
    return _grown_game(g, d, x, y) is not None


def with_addable_edge(g: Graph, d: int, x: int, y: int) -> Optional[Graph]:
    """g + xy when `edge_addable(g, d, x, y)`, else None.  The new graph is
    given the game that answered, with xy inserted: it is g + xy's loaded
    (d,d) game, so the new graph never loads one."""
    game = _grown_game(g, d, x, y)
    if game is None:
        return None
    out = g.with_edge(x, y)
    out._games[(d, d, 1)] = game
    return out
