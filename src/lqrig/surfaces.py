"""Combinatorial triangulations of the sphere and the projective plane.

A triangulation is a face list over a simple graph: every edge lies in
exactly two faces and the link of every vertex is a single cycle.  That
representation covers orientable and non-orientable closed surfaces with
one code path, and the topological vertex split is a local face-list edit.
Sphere triangulations satisfy |E| = 3|V| - 6, projective-plane ones
|E| = 3|V| - 3.

Each triangulation keeps, per vertex, the positions of the faces at it.
The index is built once from a face list (`from_faces`) and handed on by
each split, so `link_cycle` reads only the faces at its vertex.  One face
edit serves both kinds of split.  `topological_vertex_split` runs it on
copies, so it costs time in the degree of the split vertex plus C-level
copies of the face list, the index and the graph's neighbour sets.
`generate_triangulation` runs it in place on one face list and index,
reads each split vertex's link once and builds its graph once, from the
final faces, so a step costs time in the split vertex's degree plus one
pass of running sums over the vertices.  The base complexes are built
once per process and shared.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import InitVar, dataclass, field, replace
from functools import cache
from itertools import accumulate, combinations
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph
from .operations import OpRecord, vertex_split

SPHERE = "sphere"
PROJECTIVE_PLANE = "projective_plane"

_EULER = {SPHERE: 2, PROJECTIVE_PLANE: 1}

# Tetrahedron.
_K4_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

# Projective-plane embeddings of K6 and K7 - K3 (missing triangle on
# {4, 5, 6}).  Both face lists were produced by the exhaustive search over
# triangle sets satisfying the two-faces-per-edge and single-cycle-link
# conditions (kept as a test oracle) and frozen here; each is the
# lexicographically least solution the search visits.
_K6_FACES = (
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
)
_K7_MINUS_K3_FACES = (
    (0, 1, 4), (0, 1, 5), (0, 2, 4), (0, 2, 6), (0, 3, 5), (0, 3, 6),
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (2, 3, 4), (2, 3, 5),
)

_BASES = {
    "K4": (SPHERE, 4, _K4_FACES),
    "K6": (PROJECTIVE_PLANE, 6, _K6_FACES),
    "K7_minus_K3": (PROJECTIVE_PLANE, 7, _K7_MINUS_K3_FACES),
}
_BASE_ALIASES = {"K7mK3": "K7_minus_K3"}
BASE_NAMES = (*_BASES, *_BASE_ALIASES)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    failure: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SurfaceTriangulation:
    """A face list over a graph on one surface.  `faces_at[v]` lists the
    positions in `faces` of the faces at v in ascending order; it is built
    from the faces unless given, and is left out of equality, hashing,
    repr and JSON."""

    graph: Graph
    faces: tuple[tuple[int, int, int], ...]
    surface: str
    at: InitVar[Optional[tuple[tuple[int, ...], ...]]] = None
    faces_at: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self, at: Optional[tuple[tuple[int, ...], ...]]) -> None:
        if at is None:
            index: list[list[int]] = [[] for _ in range(self.graph.n)]
            for i, f in enumerate(self.faces):
                for x in set(f):
                    if 0 <= x < self.graph.n:
                        index[x].append(i)
            at = tuple(map(tuple, index))
        object.__setattr__(self, "faces_at", at)

    @property
    def n(self) -> int:
        return self.graph.n

    def to_json_dict(self) -> dict:
        return {
            "surface": self.surface,
            "n": self.n,
            "faces": [list(f) for f in self.faces],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SurfaceTriangulation":
        try:
            surface = str(obj["surface"])
            n = int(obj["n"])
            faces = [tuple(sorted(int(x) for x in f)) for f in obj["faces"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed triangulation object: {exc}") from exc
        t = from_faces(surface, n, faces)
        res = validate(t)
        if not res:
            raise ValueError(f"invalid triangulation: {res.failure}")
        return t


def from_faces(
    surface: str, n: int, faces: Sequence[Sequence[int]]
) -> SurfaceTriangulation:
    """Assemble a triangulation from a face list; the graph is the union of
    the face edges.  No validation beyond graph construction."""
    if surface not in _EULER:
        raise ValueError(f"unknown surface {surface!r}")
    norm = tuple(tuple(sorted(f)) for f in faces)
    edges = {e for f in norm for e in combinations(f, 2)}
    return SurfaceTriangulation(Graph(n, sorted(edges)), norm, surface)


def base_complex(kind: str) -> SurfaceTriangulation:
    """Named starting complexes: the tetrahedron for the sphere, K6 and
    K7 - K3 for the projective plane.  Each is built once per process and
    shared; like every triangulation it is immutable."""
    return _base_complex(_BASE_ALIASES.get(kind, kind))


@cache
def _base_complex(kind: str) -> SurfaceTriangulation:
    if kind not in _BASES:
        raise ValueError(f"unknown base complex {kind!r}")
    surface, n, faces = _BASES[kind]
    return from_faces(surface, n, faces)


def link_cycle(t: SurfaceTriangulation, v: int) -> list[int]:
    """Neighbours of v in the cyclic order induced by the faces at v, read
    in face-list order from `faces_at`."""
    return _link(t.faces, t.faces_at, v)


def _link(faces: Sequence[tuple[int, ...]], at: Sequence[Sequence[int]], v: int) -> list[int]:
    """`link_cycle` of v over a face list and its index: raises ValueError
    unless v lies on some face and its link pairs form one cycle."""
    pairs = [_opposite(faces[i], v) for i in (at[v] if 0 <= v < len(at) else ())]
    if not pairs:
        raise ValueError(f"vertex {v} lies on no face")
    adj: dict[int, list[int]] = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if any(len(xs) != 2 for xs in adj.values()):
        raise ValueError(f"link of vertex {v} is not a 2-regular pairing")
    start = min(adj)
    cycle = [start]
    prev, cur = None, start
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        if nxt in cycle:
            raise ValueError(f"link of vertex {v} is not a single cycle")
        cycle.append(nxt)
        prev, cur = cur, nxt
    if len(cycle) != len(adj):
        raise ValueError(f"link of vertex {v} is not a single cycle")
    return cycle


def _opposite(face: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The vertices of `face` other than v, in face order; the whole face
    when v is not on it."""
    x, y, z = face
    return (y, z) if x == v else (x, z) if y == v else (x, y) if z == v else face


def validate(t: SurfaceTriangulation) -> ValidationResult:
    """Check all structural invariants; report the first violation.

    The Euler characteristic fixes the edge count: once each face is three
    distinct in-range vertices whose edges are graph edges, no face repeats
    and each graph edge lies in exactly two faces, 3|F| = 2|E|, so
    chi = |V| - |E|/3.  Then |E| = 3|V| - 6 exactly when chi = 2 (sphere) and
    |E| = 3|V| - 3 exactly when chi = 1 (projective plane).
    """
    n = t.n
    for f in t.faces:
        if len(f) != 3 or len(set(f)) != 3:
            return ValidationResult(False, f"face {f} is not a vertex triple")
        if any(not 0 <= x < n for x in f):
            return ValidationResult(False, f"face {f} has out-of-range vertices")
        for e in combinations(sorted(f), 2):
            if not t.graph.has_edge(*e):
                return ValidationResult(False, f"face edge {e} missing from graph")
    if len(set(t.faces)) != len(t.faces):
        return ValidationResult(False, "duplicate face")
    cover: dict[tuple[int, int], int] = {e: 0 for e in t.graph.edges}
    for f in t.faces:
        for e in combinations(sorted(f), 2):
            cover[e] += 1
    for e, c in cover.items():
        if c != 2:
            return ValidationResult(False, f"edge {e} lies in {c} faces, expected 2")
    chi = n - t.graph.m + len(t.faces)
    if chi != _EULER[t.surface]:
        return ValidationResult(
            False, f"Euler characteristic {chi} != {_EULER[t.surface]}"
        )
    for v in range(n):
        try:
            link_cycle(t, v)
        except ValueError as exc:
            return ValidationResult(False, str(exc))
    return ValidationResult(True)


def topological_vertex_split(
    t: SurfaceTriangulation, v: int, a: int, b: int
) -> tuple[SurfaceTriangulation, OpRecord]:
    """Split v along two link vertices a, b, preserving the surface.

    The link cycle of v is cut at a and b; v keeps the arc from a to b (in
    the stored cyclic order) plus the new vertex w0, which takes the other
    arc.  Faces (v, w0, a) and (v, w0, b) are added.  As a graph operation
    this is the 3-dimensional vertex split with shared neighbours {a, b}
    that moves the interior of the arc b..a to w0, and the graph and record
    come from that d = 3 `operations.vertex_split`.  The record, which
    `apply_record` replays, gains `a` and `b` for `replay_splits`.  `t` is
    left as it is: the face edit (`_split_faces`, which the generator runs
    too) works on copies of its face list and index.

    Precondition: `t` is a valid triangulation (see `validate`).  The output
    is then valid too, so it is not re-checked: the edit is local to the
    faces at v; each edge of the old link keeps two faces; the new edges
    v w0, w0 a and w0 b each lie in exactly two faces; the links of v, w0,
    a and b stay single cycles (w0 enters those of a and b next to v); and
    |V| + 1, |E| + 3, |F| + 2 keep the edge count and Euler characteristic.
    """
    if a == b:
        raise ValueError("split vertices must be distinct")
    cycle = link_cycle(t, v)
    if a not in cycle or b not in cycle:
        raise ValueError(f"{a} and {b} must lie on the link of {v}")
    faces, at = list(t.faces), list(t.faces_at)
    moved = _split_faces(faces, at, v, a, b, cycle)
    graph, rec = vertex_split(t.graph, v, (a, b), moved, 3)
    out = SurfaceTriangulation(graph, tuple(faces), t.surface, tuple(at))
    return out, replace(rec, params={**rec.params, "a": a, "b": b})


def _split_faces(
    faces: list[tuple[int, int, int]],
    at: list[tuple[int, ...]],
    v: int,
    a: int,
    b: int,
    cycle: list[int],
) -> list[int]:
    """Split v at a and b, given v's link `cycle`, by editing `faces` and
    `at`, its per-vertex index, in place; return the link vertices strictly
    inside the arc b..a, whose edges to v move to the new vertex w0 =
    len(at).  Only the faces at v change, and the two new faces go last, so
    every position list stays ascending; each entry of `at` that changes
    is replaced by a new tuple, so the lists' old entries can be shared."""
    ia = cycle.index(a)
    cyc = cycle[ia:] + cycle[:ia]
    ib = cyc.index(b)
    w0 = len(at)
    # Faces at v correspond to consecutive link pairs; the pairs before b
    # stay with v (the arc a..b), the rest move to w0 (the arc b..a).
    size = len(cyc)
    kept_pair = {frozenset((cyc[i], cyc[(i + 1) % size])): i < ib for i in range(size)}
    kept, moved = [], []
    for i in at[v]:
        x, y = _opposite(faces[i], v)
        if kept_pair[frozenset((x, y))]:
            kept.append(i)
        else:
            faces[i] = (x, y, w0)
            moved.append(i)
    new = len(faces)
    faces.append((a, v, w0) if a < v else (v, a, w0))
    faces.append((b, v, w0) if b < v else (v, b, w0))
    at[v] = (*kept, new, new + 1)
    at[a] += (new,)
    at[b] += (new + 1,)
    at.append((*moved, new, new + 1))
    return cyc[ib + 1 :]


def generate_triangulation(
    surface: str,
    n: int,
    seed: int,
    base: Optional[str] = None,
) -> tuple[SurfaceTriangulation, list[OpRecord]]:
    """Grow a random triangulation to n vertices by uniformly random
    topological vertex splits; deterministic per seed.  Each step draws an
    index into the candidate splits (v, a, b), a and b distinct on the link
    of v, ordered by v, then a, then b in link-cycle order; `_split_at`
    finds the drawn one from one read of v's link, without listing them.
    Vertex v has deg(v) (deg(v) - 1) candidates, as its link holds deg(v)
    vertices; these weights are kept across steps and updated where a split
    changes a degree: at v, a, b and the new vertex.

    The splits edit one face list and its index in place, by the face edit
    of `topological_vertex_split`, and each record is the one that split
    would give.  The graph is built once, from the final faces, so every
    output edge passes `Graph`'s checks.  The per-step argument checks of
    `operations.vertex_split` hold by construction: a and b are two
    vertices of v's link, and the moved vertices are the rest of one arc.
    """
    if base is None:
        base = "K4" if surface == SPHERE else "K6"
    start = base_complex(base)
    if start.surface != surface:
        raise ValueError(f"base {base!r} is a {start.surface} complex, not {surface}")
    if n < start.n:
        raise ValueError(f"target {n} below base size {start.n}")
    rng = np.random.default_rng(seed)
    faces, at = list(start.faces), list(start.faces_at)
    # A vertex of a closed surface lies on as many faces as it has
    # neighbours, so its degree is the length of its index entry.
    weights = [len(x) * (len(x) - 1) for x in at]
    records: list[OpRecord] = []
    for w0 in range(start.n, n):
        cum = list(accumulate(weights))
        v, a, b, cycle = _split_at(faces, at, int(rng.integers(cum[-1])), cum)
        moved = _split_faces(faces, at, v, a, b, cycle)
        params = {"v0": v, "shared": sorted((a, b)), "moved": sorted(moved), "d": 3, "a": a, "b": b}
        records.append(OpRecord("vsplit", params, w0, w0 + 1))
        weights.append(0)
        for x in (v, a, b, w0):
            weights[x] = len(at[x]) * (len(at[x]) - 1)
    graph = Graph(n, {e for f in faces for e in combinations(f, 2)})
    return SurfaceTriangulation(graph, tuple(faces), surface, tuple(at)), records


def _split_at(
    faces: Sequence[tuple[int, ...]], at: Sequence[Sequence[int]], k: int, cum: Sequence[int]
) -> tuple[int, int, int, list[int]]:
    """The k-th candidate split (v, a, b) in the order of
    `generate_triangulation`, with v's link cycle, from `cum`, the running
    sums of deg(v) (deg(v) - 1) over the vertices, and one read of v's link
    in the face list `faces` and its index `at`."""
    v = bisect_right(cum, k)
    if v:
        k -= cum[v - 1]
    cycle = _link(faces, at, v)
    i, j = divmod(k, len(cycle) - 1)
    return v, cycle[i], cycle[j + (j >= i)], cycle


def replay_splits(
    base: SurfaceTriangulation, records: Sequence[OpRecord]
) -> SurfaceTriangulation:
    t = base
    for rec in records:
        t, _ = topological_vertex_split(t, rec.params["v0"], rec.params["a"], rec.params["b"])
    return t
