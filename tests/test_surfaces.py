from dataclasses import fields, replace
from itertools import accumulate, combinations

import numpy as np
import pytest

from lqrig.graphs import Graph, complete_graph
from lqrig.operations import vertex_split
from lqrig.surfaces import (
    _BASES,
    BASE_NAMES,
    PROJECTIVE_PLANE,
    SPHERE,
    SurfaceTriangulation,
    _index,
    _split_at,
    base_complex,
    from_faces,
    generate_triangulation,
    link_cycle,
    replay_splits,
    topological_vertex_split,
    validate,
)



def reference_link(t: SurfaceTriangulation, v: int) -> list[int]:
    """`link_cycle` from a scan of every face, with no face index: the
    faces at v in face-list order, walked from the least neighbour."""
    pairs = [tuple(x for x in f if x != v) for f in t.faces if v in f]
    adj: dict[int, list[int]] = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    cycle, prev = [min(adj)], None
    while True:
        a, b = adj[cycle[-1]]
        nxt = b if a == prev else a
        if nxt == cycle[0]:
            return cycle
        prev = cycle[-1]
        cycle.append(nxt)


def split_candidates(t: SurfaceTriangulation) -> list[tuple[int, int, int]]:
    """All (v, a, b) with a, b distinct on the link of v, in the order whose
    index `generate_triangulation` draws: the reference for `_split_at`."""
    out = []
    for v in range(t.n):
        cycle = reference_link(t, v)
        for a in cycle:
            for b in cycle:
                if a != b:
                    out.append((v, a, b))
    return out


def exhaustive_face_search(n, edges, n_faces):
    """Independent oracle: lexicographically first triangle set covering each
    edge exactly twice with single-cycle links."""
    edges = sorted(edges)
    edge_set = set(edges)
    tris = [
        t
        for t in combinations(range(n), 3)
        if all(tuple(sorted(e)) in edge_set for e in combinations(t, 2))
    ]
    edge_idx = {e: i for i, e in enumerate(edges)}
    tri_edges = [
        [edge_idx[tuple(sorted(e))] for e in combinations(t, 2)] for t in tris
    ]
    count = [0] * len(edges)
    chosen: list[int] = []
    solution: list[list] = []

    def links_ok(faces):
        try:
            t = from_faces(PROJECTIVE_PLANE, n, faces)
            for v in range(n):
                link_cycle(t, v)
        except ValueError:
            return False
        return True

    def bt(start):
        if solution:
            return
        if len(chosen) == n_faces:
            if all(c == 2 for c in count):
                faces = [tris[i] for i in chosen]
                if links_ok(faces):
                    solution.append(faces)
            return
        if start >= len(tris):
            return
        if sum(2 - c for c in count) > 3 * (n_faces - len(chosen)):
            return
        if all(count[e] < 2 for e in tri_edges[start]):
            for e in tri_edges[start]:
                count[e] += 1
            chosen.append(start)
            bt(start + 1)
            chosen.pop()
            for e in tri_edges[start]:
                count[e] -= 1
        if not solution:
            bt(start + 1)

    bt(0)
    return solution[0] if solution else None


class TestBaseComplexes:
    def test_tetrahedron(self):
        t = base_complex("K4")
        assert t.surface == SPHERE
        assert (t.n, t.graph.m, len(t.faces)) == (4, 6, 4)
        assert t.n - t.graph.m + len(t.faces) == 2
        assert validate(t)

    def test_k6(self):
        t = base_complex("K6")
        assert t.surface == PROJECTIVE_PLANE
        assert (t.n, t.graph.m, len(t.faces)) == (6, 15, 10)
        assert t.n - t.graph.m + len(t.faces) == 1
        assert t.graph == complete_graph(6)
        assert validate(t)

    def test_k7_minus_k3(self):
        t = base_complex("K7_minus_K3")
        assert (t.n, t.graph.m, len(t.faces)) == (7, 18, 12)
        assert t.n - t.graph.m + len(t.faces) == 1
        assert validate(t)
        missing = [(4, 5), (4, 6), (5, 6)]
        for e in missing:
            assert not t.graph.has_edge(*e)

    def test_alias(self):
        # resolved before the per-process cache, so both names share one base
        assert base_complex("K7mK3") is base_complex("K7_minus_K3")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            base_complex("K5")

    def test_frozen_lists_match_search_oracle(self):
        k6 = exhaustive_face_search(6, complete_graph(6).edges, 10)
        assert tuple(k6) == base_complex("K6").faces
        k7_edges = [
            e for e in complete_graph(7).edges if not (e[0] >= 4 and e[1] >= 4)
        ]
        k7 = exhaustive_face_search(7, k7_edges, 12)
        assert tuple(k7) == base_complex("K7_minus_K3").faces


def small_complexes() -> list[SurfaceTriangulation]:
    """The three base complexes and a grown one of 10-12 vertices per base."""
    complexes = [base_complex(base) for base in ("K4", "K6", "K7_minus_K3")]
    complexes += [
        generate_triangulation(SPHERE, 10, seed=1)[0],
        generate_triangulation(PROJECTIVE_PLANE, 11, seed=2, base="K6")[0],
        generate_triangulation(PROJECTIVE_PLANE, 12, seed=3, base="K7_minus_K3")[0],
    ]
    return complexes


class TestSplit:
    def test_tetrahedron_split_is_double_pyramid(self):
        t = base_complex("K4")
        out, rec = topological_vertex_split(t, 0, 1, 2)
        assert validate(out)
        assert out.n == 5 and out.graph.m == 9 == 3 * 5 - 6
        assert sorted(out.graph.degree(v) for v in range(5)) == [3, 3, 4, 4, 4]
        assert rec.kind == "vsplit"

    def test_euler_characteristic_preserved(self):
        t = base_complex("K6")
        out, _ = topological_vertex_split(t, 0, 1, 3)
        assert out.n - out.graph.m + len(out.faces) == t.n - t.graph.m + len(t.faces)
        assert out.n == t.n + 1
        assert out.graph.m == t.graph.m + 3
        assert len(out.faces) == len(t.faces) + 2

    def test_k6_split_count_law(self):
        t = base_complex("K6")
        cycle = link_cycle(t, 2)
        out, _ = topological_vertex_split(t, 2, cycle[0], cycle[2])
        assert validate(out)
        assert out.graph.m == 18 == 3 * 7 - 3

    def test_split_rejects_bad_vertices(self):
        t = base_complex("K4")
        with pytest.raises(ValueError, match="distinct"):
            topological_vertex_split(t, 0, 1, 1)
        with pytest.raises(ValueError, match="link"):
            topological_vertex_split(t, 0, 1, 0)

    def test_split_is_a_3d_vertex_split(self):
        # graph effect matches the d = 3 vertex split with shared = {a, b}
        t, _ = generate_triangulation(SPHERE, 7, seed=5)
        v = max(range(t.n), key=t.graph.degree)
        cycle = link_cycle(t, v)
        a, b = cycle[0], cycle[2]
        out, rec = topological_vertex_split(t, v, a, b)
        keep = set(cycle[: cycle.index(b) + 1])
        moved = [x for x in cycle if x not in keep and x not in (a, b)]
        split_graph, split_rec = vertex_split(t.graph, v, [a, b], moved, d=3)
        assert out.graph == split_graph
        # the record is the graph split's, plus a and b for `replay_splits`
        assert rec.to_json_dict() == {
            **split_rec.to_json_dict(), "params": {**split_rec.params, "a": a, "b": b}
        }

    def test_all_candidate_splits_validate(self):
        # the split does not re-check its output; this is the reference
        for t in small_complexes():
            for v, a, b in split_candidates(t):
                out, _ = topological_vertex_split(t, v, a, b)
                assert validate(out), (t.faces, v, a, b)

    def test_split_at_is_the_candidate_order(self):
        # the generator draws an index into this order without listing it
        for t in small_complexes():
            cands = split_candidates(t)
            cum = list(accumulate(k * (k - 1) for k in map(t.graph.degree, range(t.n))))
            assert cum[-1] == len(cands)
            at = _index(t.faces, t.n)
            drawn = [_split_at(t.faces, at, k, cum) for k in range(len(cands))]
            assert [split[:3] for split in drawn] == cands
            assert all(cycle == reference_link(t, v) for v, _, _, cycle in drawn)


class TestValidateNegatives:
    def test_face_deleted(self):
        t = base_complex("K4")
        broken = SurfaceTriangulation(t.surface, t.n, t.faces[:-1])
        res = validate(broken)
        assert not res and "faces" in res.failure

    def test_out_of_range_face_vertex_raises(self):
        # the graph built from the faces checks every face vertex
        t = base_complex("K4")
        with pytest.raises(ValueError, match="out of range"):
            SurfaceTriangulation(t.surface, t.n, t.faces + ((1, 2, 4),))
        with pytest.raises(ValueError, match="out of range"):
            from_faces(t.surface, t.n, [(0, 1, -1), *t.faces[1:]])

    def test_triple_cover_detected(self):
        t = base_complex("K6")
        # swap two faces to cover some edge three times
        faces = list(t.faces)
        faces[faces.index((0, 4, 5))] = (0, 1, 4)
        res = validate(SurfaceTriangulation(t.surface, t.n, tuple(faces)))
        assert not res
        assert "duplicate" in res.failure or "faces" in res.failure

    def test_wrong_surface_tag(self):
        t = base_complex("K6")
        res = validate(SurfaceTriangulation(SPHERE, t.n, t.faces))
        assert not res

    def test_unknown_surface_raises(self):
        t = base_complex("K4")
        with pytest.raises(ValueError, match="unknown surface 'torus'"):
            SurfaceTriangulation("torus", t.n, t.faces)
        with pytest.raises(ValueError, match="unknown surface 'torus'"):
            from_faces("torus", t.n, t.faces)
        with pytest.raises(ValueError, match="unknown surface 'torus'"):
            SurfaceTriangulation.from_json_dict({**t.to_json_dict(), "surface": "torus"})


def face_graph(t: SurfaceTriangulation) -> Graph:
    """The graph on t's vertices whose edges are its face edges."""
    return Graph(t.n, {tuple(sorted(e)) for f in t.faces for e in combinations(f, 2)})


class TestType:
    def test_fields_are_the_json(self):
        assert [f.name for f in fields(SurfaceTriangulation) if f.init] == ["surface", "n", "faces"]
        (graph,) = [f for f in fields(SurfaceTriangulation) if not f.init]
        assert graph.name == "graph" and not graph.compare and not graph.repr
        t = base_complex("K6")
        assert list(t.to_json_dict()) == ["surface", "n", "faces"]
        assert repr(t) == f"SurfaceTriangulation(surface={t.surface!r}, n=6, faces={t.faces!r})"

    def test_graph_is_the_face_graph(self):
        # every way of making a triangulation gives it the graph of its faces
        made = [base_complex(kind) for kind in BASE_NAMES]
        for kind in ("K4", "K6", "K7_minus_K3"):
            start = base_complex(kind)
            t, log = generate_triangulation(start.surface, start.n + 9, seed=4, base=kind)
            made += [t, replay_splits(start, log)]
            made += [topological_vertex_split(t, v, a, b)[0] for v, a, b in split_candidates(t)[::7]]
            made.append(from_faces(t.surface, t.n, [f[::-1] for f in t.faces]))
            made.append(SurfaceTriangulation.from_json_dict(t.to_json_dict()))
        for t in made:
            want = face_graph(t)
            assert t.graph == want
            assert [t.graph.neighbors(v) for v in range(t.n)] == [
                want.neighbors(v) for v in range(t.n)
            ]

    def test_equality_reads_the_fields(self):
        t, _ = generate_triangulation(PROJECTIVE_PLANE, 11, seed=6)
        again = SurfaceTriangulation(t.surface, t.n, t.faces)
        assert again == t and hash(again) == hash(t) and again.graph == t.graph
        assert replace(t, n=t.n + 1) != t
        assert replace(t, n=t.n + 1).graph.n == t.n + 1


class TestGeneration:
    def test_sphere_base_case(self):
        t, log = generate_triangulation(SPHERE, 4, seed=0)
        assert t == base_complex("K4") and log == []

    def test_sphere_counts(self):
        for seed in range(10):
            n = 8 + seed % 5
            t, _ = generate_triangulation(SPHERE, n, seed)
            assert validate(t)
            assert t.graph.m == 3 * n - 6

    def test_projective_counts_both_bases(self):
        for base in ("K6", "K7_minus_K3"):
            for seed in range(8):
                n = 9 + seed % 4
                t, _ = generate_triangulation(PROJECTIVE_PLANE, n, seed, base=base)
                assert validate(t)
                assert t.graph.m == 3 * n - 3

    def test_replay_determinism(self):
        t, log = generate_triangulation(PROJECTIVE_PLANE, 10, seed=3)
        replayed = replay_splits(base_complex("K6"), log)
        assert replayed == t
        t2, _ = generate_triangulation(PROJECTIVE_PLANE, 10, seed=3)
        assert t2 == t

    # Three splits per base at seed 5, as the generator drew them when it
    # still re-validated each split: faces and (v0, a, b, moved) per split.
    # A change in how the generator consumes its random stream shows here.
    PINNED = {
        "K4": (
            SPHERE,
            ((0, 1, 4), (1, 3, 6), (2, 3, 6), (1, 3, 4), (2, 3, 4),
             (2, 5, 6), (0, 4, 5), (2, 4, 5), (0, 1, 6), (0, 5, 6)),
            ((2, 3, 0, [1]), (4, 0, 2, []), (0, 1, 5, [2, 3])),
        ),
        "K6": (
            PROJECTIVE_PLANE,
            ((0, 1, 2), (1, 3, 8), (0, 2, 4), (0, 3, 5), (0, 5, 6), (1, 2, 5),
             (1, 3, 6), (1, 6, 7), (2, 3, 6), (2, 3, 5), (0, 4, 6), (2, 4, 6),
             (5, 6, 7), (1, 5, 7), (0, 1, 8), (0, 3, 8)),
            ((4, 0, 2, [1, 3, 5]), (5, 6, 1, []), (0, 1, 3, [])),
        ),
        "K7_minus_K3": (
            PROJECTIVE_PLANE,
            ((0, 1, 4), (1, 5, 9), (0, 2, 4), (0, 2, 6), (0, 5, 7), (0, 7, 8),
             (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (2, 3, 4), (2, 5, 7),
             (2, 3, 7), (3, 6, 7), (0, 6, 8), (6, 7, 8), (0, 1, 9), (0, 5, 9)),
            ((3, 2, 6, [0, 5]), (6, 0, 7, []), (0, 1, 5, [])),
        ),
    }

    def test_pinned_outputs(self):
        for base, (surface, faces, splits) in self.PINNED.items():
            start = base_complex(base)
            t, log = generate_triangulation(surface, start.n + 3, seed=5, base=base)
            assert t.faces == faces
            assert [r.to_json_dict() for r in log] == [
                {
                    "kind": "vsplit",
                    "params": {
                        "v0": v, "shared": sorted((a, b)), "moved": moved,
                        "d": 3, "a": a, "b": b,
                    },
                    "before_n": start.n + i,
                    "after_n": start.n + i + 1,
                }
                for i, (v, a, b, moved) in enumerate(splits)
            ]
            assert replay_splits(start, log) == t

    @pytest.mark.parametrize("surface, base", [
        (SPHERE, "K4"), (PROJECTIVE_PLANE, "K6"), (PROJECTIVE_PLANE, "K7_minus_K3"),
        (PROJECTIVE_PLANE, "K7mK3"),
    ])
    def test_reference_draws(self, surface, base):
        # The generator's draws equal an index into the listed candidates,
        # drawn from the same stream, over enough splits that a stale split
        # weight or face index would show; links equal a scan of all faces.
        # Its in-place edits give the faces and the graph, neighbour set by
        # neighbour set, of the single-step splits.
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            t, log = base_complex(base), []
            while t.n < 40:
                cands = split_candidates(t)
                t, rec = topological_vertex_split(t, *cands[int(rng.integers(len(cands)))])
                log.append(rec)
            made, made_log = generate_triangulation(surface, 40, seed, base=base)
            assert made.faces == t.faces
            assert made.graph == t.graph
            assert [made.graph.neighbors(v) for v in range(40)] == [
                t.graph.neighbors(v) for v in range(40)
            ]
            assert [r.to_json_dict() for r in made_log] == [r.to_json_dict() for r in log]
            replayed = replay_splits(base_complex(base), made_log)
            for u in (t, made, replayed):
                assert validate(u)
                assert [link_cycle(u, v) for v in range(u.n)] == [
                    reference_link(u, v) for v in range(u.n)
                ]

    def test_shared_bases_stay_unchanged(self):
        # Every call shares one base complex per name; growing from it and
        # replaying onto it leave its faces and graph as frozen.
        for kind in BASE_NAMES:
            surface = base_complex(kind).surface
            for seed in (0, 1):
                t, log = generate_triangulation(surface, 30, seed, base=kind)
                assert replay_splits(base_complex(kind), log) == t
        for kind, (surface, n, faces) in _BASES.items():
            t = base_complex(kind)
            assert t.faces == faces
            assert t.graph == from_faces(surface, n, faces).graph

    @pytest.mark.parametrize("key", ["v0", "a", "b"])
    def test_replay_names_a_record_without_its_split(self, key):
        _, log = generate_triangulation(SPHERE, 10, seed=1)
        log[2] = replace(log[2], params={k: x for k, x in log[2].params.items() if k != key})
        with pytest.raises(ValueError, match=f"split record 2 lacks '{key}'"):
            replay_splits(base_complex("K4"), log)

    def test_replay_rejects_bad_splits(self):
        # A record read from JSON may name any split: replay checks it as
        # `topological_vertex_split` checks its arguments.
        t, log = generate_triangulation(PROJECTIVE_PLANE, 12, seed=3)
        p = log[3].params
        for bad, message in [
            ({"b": p["a"]}, "split vertices must be distinct"),
            ({"b": p["v0"]}, f"{p['a']} and {p['v0']} must lie on the link of {p['v0']}"),
            ({"a": t.n + 1}, f"{t.n + 1} and {p['b']} must lie on the link of {p['v0']}"),
            ({"v0": -1}, "vertex -1 lies on no face"),
        ]:
            log[3] = replace(log[3], params={**p, **bad})
            with pytest.raises(ValueError, match=message):
                replay_splits(base_complex("K6"), log)

    def test_replay_checks_where_a_record_starts(self):
        # a log grown from K7 - K3 does not start from K6
        _, log = generate_triangulation(PROJECTIVE_PLANE, 12, seed=3, base="K7_minus_K3")
        with pytest.raises(ValueError, match="split record 0 starts from 7 vertices, not 6"):
            replay_splits(base_complex("K6"), log)
        with pytest.raises(ValueError, match="split record 2 starts from 10 vertices, not 9"):
            replay_splits(base_complex("K7_minus_K3"), log[:2] + log[3:])

    def test_base_surface_mismatch(self):
        with pytest.raises(ValueError, match="complex"):
            generate_triangulation(SPHERE, 8, seed=0, base="K6")
        with pytest.raises(ValueError, match="below base"):
            generate_triangulation(PROJECTIVE_PLANE, 5, seed=0)


class TestJson:
    def test_round_trip(self):
        t, _ = generate_triangulation(SPHERE, 9, seed=2)
        back = SurfaceTriangulation.from_json_dict(t.to_json_dict())
        assert back == t

    def test_reader_validates(self):
        t = base_complex("K4")
        obj = t.to_json_dict()
        obj["faces"] = obj["faces"][:-1]
        with pytest.raises(ValueError, match="invalid triangulation"):
            SurfaceTriangulation.from_json_dict(obj)
        # a float or bool field is rejected, never truncated
        obj = t.to_json_dict()
        for bad in [
            {**obj, "n": 4.5},
            {**obj, "faces": [[0.5, 1, 2]] + obj["faces"][1:]},
            {**obj, "faces": [[0, True, 2]] + obj["faces"][1:]},
        ]:
            with pytest.raises(ValueError, match="malformed triangulation object"):
                SurfaceTriangulation.from_json_dict(bad)
