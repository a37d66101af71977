"""Finite simple graphs with dense integer vertices, sparsity counts and the pebble game.

Vertices are the indices 0..n-1; an edge is an unordered pair of distinct
indices.  Graphs are immutable: all "mutating" operations return new graphs.
Named vertices, if any, live in the I/O layer.

Every graph keeps its neighbour sets and edge count, and sorts its `edges`
tuple on first read and keeps it.  One routine checks and applies edges,
for a graph built from an edge list and for one derived from another
(`with_edge`, `with_vertex`, the operations of `operations`): deriving
costs one C-level copy of the parent's tuple of neighbour sets plus time
in the number of edges added or removed.

Sparsity is decided by a pebble game played once per graph and count and
kept on the graph.  The game counts its free pebbles, so a query that
needs more than it holds, as every `edge_addable` query on a tight graph
does, is refused before any copy or search.  A graph made by
`with_addable_edge` or `isolated_at` is handed a copy of its parent's game,
grown by the new edge or with the vertex's edges deleted, and never plays
its own.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional


class Graph:
    """Immutable simple graph on vertices 0..n-1.

    The neighbour sets and the edge count are the graph; `edges`, the
    canonical form that equality, hashing, pickling and JSON read, is
    sorted on first read, however the graph was made.
    """

    __slots__ = ("n", "_m", "_edges", "_adj", "_games", "_ends")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self._build(n, (), 0, edges)

    # -- queries ---------------------------------------------------------

    @property
    def m(self) -> int:
        return self._m

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (u, v) with u < v, sorted lexicographically on first
        read and kept."""
        if self._edges is None:
            self._edges = tuple(
                sorted([(u, w) for u, nbrs in enumerate(self._adj) for w in nbrs if u < w])
            )
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
        return sum(1 for u, v in self.edges if u in vs and v in vs)

    def cross_count(self, us: Iterable[int], ws: Iterable[int]) -> int:
        """Number of edges between U\\W and W\\U (d(U, W))."""
        uonly = set(us)
        wonly = set(ws)
        uonly, wonly = uonly - wonly, wonly - uonly
        return sum(
            1
            for u, v in self.edges
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
        """This graph on n >= self.n vertices less `removed` plus `added`."""
        out = Graph.__new__(Graph)
        out._build(n, self._adj, self._m, added, removed)
        return out

    def _build(self, n: int, adj: tuple, m: int, added: Iterable, removed: Iterable = ()) -> None:
        """Make this the graph on n >= len(adj) vertices with neighbour sets
        `adj` and m edges, less `removed` (which must be edges) plus `added`:
        the one routine that checks edges, for `__init__` and `_derive`.
        Only these edges are checked, against the neighbour sets, and only
        the touched vertices' sets rebuilt; `edges` waits for a read."""
        adj = list(adj)
        adj += [frozenset()] * (n - len(adj))
        touched: dict[int, set[int]] = {}

        def nbrs(u: int) -> set[int]:
            if u not in touched:
                touched[u] = set(adj[u])
            return touched[u]

        for u, v in removed:
            if not (0 <= u < n and 0 <= v < n) or v not in nbrs(u):
                raise ValueError(f"{(u, v) if u < v else (v, u)} is not an edge")
            nbrs(u).remove(v)
            nbrs(v).remove(u)
            m -= 1
        for u, v in added:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if v in nbrs(u):
                raise ValueError(f"duplicate edge {(u, v) if u < v else (v, u)}")
            nbrs(u).add(v)
            nbrs(v).add(u)
            m += 1
        for u, s in touched.items():
            adj[u] = frozenset(s)
        self.n, self._m, self._edges, self._adj = n, m, None, tuple(adj)
        # (game, accepted edge indices) by count (see `_loaded`), and the
        # edge endpoint arrays that `geometry` makes on first use.
        self._games, self._ends = {}, None

    def without_edges_at(self, v: int) -> "Graph":
        """Same vertex set with v isolated."""
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range")
        return self._derive(self.n, (), [(v, w) for w in self._adj[v]])

    def delete_vertex(self, v: int) -> "Graph":
        """Remove v; indices above v shift down by one."""
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range")

        def remap(u: int) -> int:
            return u - 1 if u > v else u

        kept = [(remap(a), remap(b)) for a, b in self.edges if v not in (a, b)]
        return Graph(self.n - 1, kept)

    # -- misc --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._m == other._m
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __reduce__(self):
        return Graph, (self.n, self.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Graph":
        try:
            n = json_int(obj["n"])
            edges = [(json_int(u), json_int(v)) for u, v in obj["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed graph object: {exc}") from exc
        return cls(n, edges)


def json_int(value: object) -> int:
    """An integer field of a JSON object, which must be an int: a float or
    a bool raises `TypeError` rather than being truncated."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


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
    insertions and of the search choices.  `free` counts the pebbles on all
    vertices, so a pair that needs more than that is refused at once.
    """

    def __init__(self, n: int, k: int, l: int):
        self.n = n
        self.k = k
        self.l = l
        self.pebbles = [k] * n
        self.free = k * n
        self.out: list[list[int]] = [[] for _ in range(n)]
        self._scratch()

    def _scratch(self) -> None:
        # Search marks of `_free_pebble`, private to this game: vertex w
        # was reached in the current search iff seen[w] equals its number,
        # and then from parent[w].
        self._searches = 0
        self._seen = [0] * self.n
        self._parent = [0] * self.n

    def _free_pebble(self, root: int, hold: int) -> bool:
        """Move one pebble onto `root` if reachable, treating `hold` as off-limits."""
        self._searches += 1
        mark, seen, parent = self._searches, self._seen, self._parent
        out, pebbles = self.out, self.pebbles
        seen[root] = seen[hold] = mark
        stack = [root]
        found = -1
        while stack and found < 0:
            u = stack.pop()
            for w in out[u]:
                if seen[w] == mark:
                    continue
                seen[w] = mark
                parent[w] = u
                if pebbles[w] > 0:
                    found = w
                    break
                stack.append(w)
        if found < 0:
            return False
        w = found
        while w != root:
            u = parent[w]
            out[u].remove(w)
            out[w].append(u)
            w = u
        pebbles[found] -= 1
        pebbles[root] += 1
        return True

    def collect(self, u: int, v: int, need: int) -> bool:
        """Gather `need` pebbles on the pair {u, v}; False at once when the
        whole game holds fewer."""
        if self.free < need:
            return False
        while self.pebbles[u] + self.pebbles[v] < need:
            if not (self._free_pebble(u, v) or self._free_pebble(v, u)):
                return False
        return True

    def insert(self, u: int, v: int, copies: int = 1) -> bool:
        """Insert `copies` copies of uv, all or none.

        Gathers l + copies pebbles on {u, v} first.  If that fails, the set R
        reachable from {u, v} holds no other free pebble, so i(R) = k|R| -
        peb(u) - peb(v) >= k|R| - l - copies + 1, and the copies would break
        the count on R.  If it succeeds, each insert finds l + 1 pebbles."""
        if not self.collect(u, v, self.l + copies):
            return False
        for _ in range(copies):
            if self.pebbles[u] > 0:
                self.pebbles[u] -= 1
                self.out[u].append(v)
            else:
                self.pebbles[v] -= 1
                self.out[v].append(u)
        self.free -= copies
        return True

    def delete(self, u: int, v: int) -> None:
        """Delete one copy of the edge uv, putting its pebble back on the
        vertex that paid for it.  On every vertex set, pebbles plus edges
        inside plus edges leaving still make k times its size, so the game
        is one the remaining edges could have reached."""
        if v not in self.out[u]:
            u, v = v, u
        self.out[u].remove(v)
        self.pebbles[u] += 1
        self.free += 1

    def copy(self) -> "_PebbleGame":
        """An independent game in the same state (O(n + m))."""
        other = copy.copy(self)
        other.pebbles, other.out = self.pebbles[:], [o[:] for o in self.out]
        other._scratch()
        return other


def _loaded(g: Graph, k: int, l: int, multiplier: int) -> tuple[_PebbleGame, tuple[int, ...]]:
    """The (k, l) game after a greedy pass over g's edges in order, each
    inserted `multiplier` times or not at all, and the indices of the edges
    it took.  Played once per graph and count and kept on g; callers must
    not move its pebbles, so answers never depend on query order."""
    key = (k, l, multiplier)
    if key not in g._games:
        game = _PebbleGame(g.n, k, l)
        taken = tuple(i for i, (u, v) in enumerate(g.edges) if game.insert(u, v, multiplier))
        g._games[key] = (game, taken)
    return g._games[key]


def count_basis(g: Graph, d: int) -> tuple[int, ...]:
    """Indices into `g.edges` of the edges a greedy (d,d)-pebble game
    accepts, inserting them in order: a basis of the (d,d)-count matroid on
    g's edges, every index when g is (d,d)-sparse.  Read from the game
    `is_sparse` keeps, which runs once per graph and d."""
    return _loaded(g, d, d, 1)[1]


def count_rank(g: Graph, d: int) -> int:
    """Rank of the (d,d)-count matroid on g's edges: the size of
    `count_basis`, |E| when g is (d,d)-sparse."""
    return len(count_basis(g, d))


def is_sparse(g: Graph, params: SparsityParams) -> bool:
    """True iff every nonempty-edge subgraph H satisfies
    edge_multiplier*|E(H)| <= k*|V(H)| - l, decided by the pebble game:
    true iff the greedy pass of `_loaded` takes every edge.  That pass runs
    once per graph and count and goes on past a refusal, so a graph that is
    not sparse costs a full pass; `is_tight`, `edge_addable` and
    `count_basis` read the same record."""
    return len(_loaded(g, params.k, params.l, params.edge_multiplier)[1]) == g.m


def is_tight(g: Graph, d: int) -> bool:
    """(d,d)-sparse with f_d(G) = d."""
    return f_count(g, d) == d and is_sparse(g, SparsityParams(d, d))


def _grown_game(g: Graph, d: int, x: int, y: int) -> Optional[_PebbleGame]:
    """A copy of g's (d,d) game with xy inserted, None when xy is an edge or
    g + xy is not (d,d)-sparse.  No copy is made when g's pass refused an
    edge or its game holds fewer than d+1 free pebbles, as a tight graph's
    does.  Endpoints outside 0..n-1 raise ValueError."""
    if x == y:
        raise ValueError("endpoints must be distinct")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"edge ({x},{y}) out of range for n={g.n}")
    if g.has_edge(x, y):
        return None
    game, taken = _loaded(g, d, d, 1)
    if len(taken) < g.m or game.free < d + 1:
        return None
    game = game.copy()
    return game if game.insert(x, y) else None


def edge_addable(g: Graph, d: int, x: int, y: int) -> bool:
    """True iff xy is not an edge and g + xy is (d,d)-sparse.

    Equivalently: no critical set (i(U) = d|U| - d, |U| > 1) contains both
    x and y.  Decided by gathering d+1 pebbles on {x, y} in a copy of the
    (d,d) game that `is_sparse` keeps.  No copy is made when the answer is
    known before: when its pass refused an edge (g is not sparse) or when
    the game holds at most d free pebbles (as on a tight graph, which has
    exactly d).  The critical set is never materialized.  Endpoints outside
    0..n-1 raise ValueError.
    """
    return _grown_game(g, d, x, y) is not None


def with_addable_edge(g: Graph, d: int, x: int, y: int) -> Optional[Graph]:
    """g + xy when `edge_addable(g, d, x, y)`, else None.  The new graph is
    given the game that answered, with xy inserted, as its (d,d) record:
    every edge taken, so the new graph never plays that game itself."""
    game = _grown_game(g, d, x, y)
    if game is None:
        return None
    out = g.with_edge(x, y)
    out._games[(d, d, 1)] = (game, tuple(range(out.m)))
    return out


def isolated_at(g: Graph, d: int, v: int) -> Graph:
    """`g.without_edges_at(v)`.  When g's (d,d) pass took every edge, the
    new graph is given a copy of that game with v's edges deleted as its
    (d,d) record, so it never plays that game itself; otherwise it plays
    its own on first query."""
    out = g.without_edges_at(v)
    game, taken = _loaded(g, d, d, 1)
    if len(taken) == g.m:
        game = game.copy()
        for w in g.neighbors(v):
            game.delete(v, w)
        out._games[(d, d, 1)] = (game, tuple(range(out.m)))
    return out
