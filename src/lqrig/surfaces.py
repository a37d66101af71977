"""Combinatorial triangulations of the sphere and the projective plane.

A triangulation is a face list over a simple graph: every edge lies in
exactly two faces and the link of every vertex is a single cycle.  That
representation covers orientable and non-orientable closed surfaces with
one code path, and the topological vertex split is a local face-list edit.
Sphere triangulations satisfy |E| = 3|V| - 6, projective-plane ones
|E| = 3|V| - 3.

A triangulation is exactly its JSON: surface, n and faces.  Its graph is
the union of the face edges, built when it is constructed and nowhere
else.  One in-place face edit makes every split: through a per-vertex
index of face positions it touches only the faces at the split vertex.
`generate_triangulation` and `replay_splits` build the index once and edit
one face list split by split; `topological_vertex_split` edits a copy of
the faces.  The base complexes are built once per process and shared.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, combinations
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, json_int
from .operations import OpRecord

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
    """A face list on one surface, exactly its JSON: `surface`, `n` and
    `faces`, each face an ascending vertex triple.  `graph` is the union of
    the face edges, built here, which puts every face vertex in 0..n-1;
    equality and hashing read the other three fields.  See `validate`."""

    surface: str
    n: int
    faces: tuple[tuple[int, int, int], ...]
    graph: Graph = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.surface not in _EULER:
            raise ValueError(f"unknown surface {self.surface!r}")
        graph = Graph(self.n, {e for f in self.faces for e in combinations(f, 2)})
        object.__setattr__(self, "graph", graph)

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
            n = json_int(obj["n"])
            faces = [[json_int(x) for x in f] for f in obj["faces"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed triangulation object: {exc}") from exc
        t = from_faces(surface, n, faces)
        res = validate(t)
        if not res:
            raise ValueError(f"invalid triangulation: {res.failure}")
        return t


def from_faces(surface: str, n: int, faces: Sequence[Sequence[int]]) -> SurfaceTriangulation:
    """The triangulation of a face list, each face sorted into ascending
    order.  No validation beyond construction."""
    return SurfaceTriangulation(surface, n, tuple(tuple(sorted(f)) for f in faces))


def base_complex(kind: str) -> SurfaceTriangulation:
    """Named starting complexes: the tetrahedron for the sphere, K6 and
    K7 - K3 for the projective plane.  Each is built once per process and
    shared; like every triangulation it is immutable."""
    return _base_complex(_BASE_ALIASES.get(kind, kind))


@cache
def _base_complex(kind: str) -> SurfaceTriangulation:
    if kind not in _BASES:
        raise ValueError(f"unknown base complex {kind!r}")
    return SurfaceTriangulation(*_BASES[kind])


def _index(faces: Sequence[tuple[int, ...]], n: int) -> list[list[int]]:
    """Per vertex of 0..n-1, the positions in `faces` of the faces at it,
    ascending; every face must be three distinct vertices in range."""
    at: list[list[int]] = [[] for _ in range(n)]
    for i, (x, y, z) in enumerate(faces):
        at[x].append(i)
        at[y].append(i)
        at[z].append(i)
    return at


def link_cycle(t: SurfaceTriangulation, v: int) -> list[int]:
    """Neighbours of v in the cyclic order induced by the faces at v, read
    from the face list in its order."""
    return _link(t.faces, [i for i, f in enumerate(t.faces) if v in f], v)


def _link(faces: Sequence[tuple[int, ...]], at_v: Sequence[int], v: int) -> list[int]:
    """`link_cycle` of v from `at_v`, the positions of the faces at v: raises
    ValueError unless v lies on some face and its link pairs form one cycle."""
    pairs = [_opposite(faces[i], v) for i in at_v]
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
    """The vertices of `face` other than v, which lies on it, in face order."""
    x, y, z = face
    return (y, z) if x == v else (x, z) if y == v else (x, y)


def validate(t: SurfaceTriangulation) -> ValidationResult:
    """Check all structural invariants; report the first violation.

    Construction has put each face's vertices in range, made them distinct
    (a repeat is a self-loop) and made the graph's edges the face edges.
    The Euler characteristic fixes the edge count: once each face is a
    triple, no face repeats and each graph edge lies in exactly two faces,
    3|F| = 2|E|, so chi = |V| - |E|/3.  Then |E| = 3|V| - 6 exactly when
    chi = 2 (sphere) and |E| = 3|V| - 3 exactly when chi = 1 (projective plane).
    """
    n = t.n
    for f in t.faces:
        if len(f) != 3:
            return ValidationResult(False, f"face {f} is not a vertex triple")
    if len(set(t.faces)) != len(t.faces):
        return ValidationResult(False, "duplicate face")
    cover = Counter(e for f in t.faces for e in combinations(sorted(f), 2))
    for e, c in cover.items():
        if c != 2:
            return ValidationResult(False, f"edge {e} lies in {c} faces, expected 2")
    chi = n - t.graph.m + len(t.faces)
    if chi != _EULER[t.surface]:
        return ValidationResult(False, f"Euler characteristic {chi} != {_EULER[t.surface]}")
    at = _index(t.faces, n)
    for v in range(n):
        try:
            _link(t.faces, at[v], v)
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
    that moves the interior of the arc b..a to w0; the record is that d = 3
    `operations.vertex_split` record plus `a` and `b` for `replay_splits`.
    The step runs the face edit of `replay_splits` on a copy of the faces.

    Precondition: `t` is a valid triangulation (see `validate`).  The output
    is then valid too, so it is not re-checked: the edit is local to the
    faces at v; each edge of the old link keeps two faces; the new edges
    v w0, w0 a and w0 b each lie in exactly two faces; the links of v, w0,
    a and b stay single cycles (w0 enters those of a and b next to v); and
    |V| + 1, |E| + 3, |F| + 2 keep the edge count and Euler characteristic.
    """
    faces = list(t.faces)
    rec = _checked_split(faces, _index(faces, t.n), v, a, b)
    return SurfaceTriangulation(t.surface, t.n + 1, tuple(faces)), rec


def _checked_split(faces: list, at: list[list[int]], v: int, a: int, b: int) -> OpRecord:
    """`_split_faces` for a split named by the caller: raises ValueError
    unless a and b are distinct vertices on v's link, a single cycle."""
    if a == b:
        raise ValueError("split vertices must be distinct")
    cycle = _link(faces, at[v] if 0 <= v < len(at) else (), v)
    if a not in cycle or b not in cycle:
        raise ValueError(f"{a} and {b} must lie on the link of {v}")
    return _split_faces(faces, at, v, a, b, cycle)


def _split_faces(
    faces: list, at: list[list[int]], v: int, a: int, b: int, cycle: list[int]
) -> OpRecord:
    """Split v at a and b, given v's link `cycle`, into v and w0 = len(at) by
    editing `faces` and `at`, its index (see `_index`), in place.  Return
    the record: the d = 3 `vertex_split` that moves the link vertices inside
    the arc b..a to w0, plus a and b.  Only the faces at v change and the
    new ones go last, so position lists and faces stay ascending."""
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
    at[v] = [*kept, new, new + 1]
    at[a].append(new)
    at[b].append(new + 1)
    at.append([*moved, new, new + 1])
    params = {"v0": v, "shared": sorted((a, b)), "moved": sorted(cyc[ib + 1 :]), "d": 3}
    return OpRecord("vsplit", {**params, "a": a, "b": b}, w0, w0 + 1)


def generate_triangulation(
    surface: str, n: int, seed: int, base: Optional[str] = None
) -> tuple[SurfaceTriangulation, list[OpRecord]]:
    """Grow a random triangulation to n vertices by uniformly random
    topological vertex splits; deterministic per seed.  Each step draws an
    index into the candidate splits (v, a, b), a and b distinct on the link
    of v, ordered by v, then a, then b in link-cycle order; `_split_at`
    finds the drawn one from one read of v's link, without listing them.
    Vertex v has deg(v) (deg(v) - 1) candidates, as its link holds deg(v)
    vertices; these weights are kept across steps and updated where a split
    changes a degree: at v, a, b and the new vertex.

    The splits edit one face list and index in place, as in `replay_splits`,
    and each record is the one `topological_vertex_split` would give.  The
    checks of those two hold by construction: a and b are two vertices of
    v's link, and the moved vertices are the rest of one arc.
    """
    if base is None:
        base = "K4" if surface == SPHERE else "K6"
    start = base_complex(base)
    if start.surface != surface:
        raise ValueError(f"base {base!r} is a {start.surface} complex, not {surface}")
    if n < start.n:
        raise ValueError(f"target {n} below base size {start.n}")
    rng = np.random.default_rng(seed)
    faces = list(start.faces)
    at = _index(faces, start.n)
    # A vertex of a closed surface lies on as many faces as it has
    # neighbours, so its degree is the length of its index entry.
    weights = [len(x) * (len(x) - 1) for x in at]
    records: list[OpRecord] = []
    for w0 in range(start.n, n):
        cum = list(accumulate(weights))
        v, a, b, cycle = _split_at(faces, at, int(rng.integers(cum[-1])), cum)
        records.append(_split_faces(faces, at, v, a, b, cycle))
        weights.append(0)
        for x in (v, a, b, w0):
            weights[x] = len(at[x]) * (len(at[x]) - 1)
    return SurfaceTriangulation(surface, n, tuple(faces)), records


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
    cycle = _link(faces, at[v], v)
    i, j = divmod(k, len(cycle) - 1)
    return v, cycle[i], cycle[j + (j >= i)], cycle


def replay_splits(base: SurfaceTriangulation, records: Sequence[OpRecord]) -> SurfaceTriangulation:
    """The triangulation that split records (`v0`, `a`, `b`, as the
    generator writes them) make from `base`, a valid triangulation with
    ascending faces, by editing one face list and its index in place.
    Records may come from JSON, so each split is checked as
    `topological_vertex_split` checks its arguments, and a record that
    does not start from the current vertex count (`before_n`) or lacks
    `v0`, `a` or `b` raises a ValueError naming its position."""
    faces = list(base.faces)
    at = _index(faces, base.n)
    for k, rec in enumerate(records):
        if rec.before_n != len(at):
            raise ValueError(f"split record {k} starts from {rec.before_n} vertices, not {len(at)}")
        try:
            v, a, b = rec.params["v0"], rec.params["a"], rec.params["b"]
        except KeyError as exc:
            raise ValueError(f"split record {k} lacks {exc}") from None
        _checked_split(faces, at, v, a, b)
    return SurfaceTriangulation(base.surface, len(at), tuple(faces))
