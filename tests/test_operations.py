import json
import pickle
import re
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqrig.geometry import LqSpace
from lqrig.graphs import (
    Graph,
    SparsityParams,
    complete_graph,
    edge_addable,
    f_count,
    is_sparse,
    is_tight,
    wheel_graph,
)
from lqrig.operations import (
    OPERATIONS,
    OpRecord,
    apply_record,
    brace,
    cone,
    henneberg_generate,
    henneberg_replay,
    one_extension,
    one_reduce,
    one_reduction_search,
    random_count_sparse,
    random_degree_bounded_sparse,
    substitute,
    vertex_split,
    zero_extension,
)
from lqrig.rank import verdict
from lqrig.surfaces import (
    PROJECTIVE_PLANE,
    SPHERE,
    SurfaceTriangulation,
    base_complex,
    from_faces,
    generate_triangulation,
)

from bruteforce import brute_sparse, is_isomorphic


class TestCone:
    def test_k3_to_k4(self):
        out, rec = cone(complete_graph(3))
        assert out == complete_graph(4)
        assert rec.kind == "cone" and rec.after_n == 4

    def test_single_vertex_to_k2(self):
        out, _ = cone(Graph(1))
        assert out == complete_graph(2)

    def test_euclidean_simplex_chain(self):
        # K_{d+1} built by repeated coning is minimally rigid in Euclidean d-space
        g = complete_graph(2)
        for d in (2, 3):
            g, _ = cone(g)
            assert verdict(g, LqSpace(d, 2.0), seed=0).minimally_rigid

    def test_f_delta(self):
        g = wheel_graph(5)
        out, _ = cone(g)
        # one new vertex, |V| new edges
        assert out.n == g.n + 1 and out.m == g.m + g.n


class TestBrace:
    def test_k2_to_k4(self):
        out, _ = brace(complete_graph(2), [0, 1], d=1)
        assert out == complete_graph(4)

    def test_k4_to_k6(self):
        out, rec = brace(complete_graph(4), [0, 1, 2, 3], d=2)
        assert out == complete_graph(6)
        assert rec.params["s"] == [0, 1, 2, 3]

    def test_edge_delta(self):
        g = wheel_graph(7)
        out, _ = brace(g, [0, 1, 2, 3], d=2)
        assert out.m == g.m + 2 * 4 + 1

    def test_wrong_set_size_rejected(self):
        with pytest.raises(ValueError, match="exactly 4"):
            brace(complete_graph(4), [0, 1, 2], d=2)
        with pytest.raises(ValueError, match="repeated"):
            brace(complete_graph(4), [0, 1, 2, 2], d=2)

    def test_sparsity_transfer(self):
        # braced output of a (d,d)-sparse graph is (d+1,d+1)-sparse
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 200:
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2 * d, 9))
            g = random_count_sparse(SparsityParams(d, d), n, int(rng.integers(2**31)))
            if g.n <= 8:
                assert brute_sparse(g, SparsityParams(d, d), cap=8)
            s = [int(x) for x in rng.choice(g.n, size=2 * d, replace=False)]
            out, _ = brace(g, s, d)
            assert is_sparse(out, SparsityParams(d + 1, d + 1))
            checked += 1

    def test_tightness_only_for_complete_base(self):
        # (d,d)-tight base other than K_{2d} cannot stay tight after bracing
        g, _ = henneberg_generate(2, 6, seed=0)
        assert is_tight(g, 2) and g != complete_graph(4)
        out, _ = brace(g, [0, 1, 2, 3], d=2)
        assert not is_tight(out, 3)
        k6, _ = brace(complete_graph(4), [0, 1, 2, 3], d=2)
        assert is_tight(k6, 3)


class TestZeroExtension:
    def test_k3_to_k4(self):
        out, _ = zero_extension(complete_graph(3), [0, 1, 2], d=3)
        assert out == complete_graph(4)

    def test_f_invariant(self):
        g = wheel_graph(6)
        out, _ = zero_extension(g, [0, 1], d=2)
        assert f_count(out, 2) == f_count(g, 2)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            zero_extension(complete_graph(4), [0, 1, 2], d=2)


class TestOneExtension:
    def test_k4_gives_tight_five_vertex(self):
        out, _ = one_extension(complete_graph(4), [0, 1, 2], (0, 1), d=2)
        assert out.n == 5 and out.m == 8
        assert brute_sparse(out, SparsityParams(2, 2)) and f_count(out, 2) == 2
        assert is_tight(out, 2)

    def test_f_invariant(self):
        g = complete_graph(6)
        out, _ = one_extension(g, [0, 1, 2, 3], (2, 3), d=3)
        assert f_count(out, 3) == f_count(g, 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="not an edge"):
            g = Graph(4, [(0, 1), (1, 2), (2, 3)])
            one_extension(g, [0, 1, 3], (0, 3), d=2)
        with pytest.raises(ValueError, match="among the neighbours"):
            one_extension(complete_graph(5), [0, 1, 2], (3, 4), d=2)

    def test_round_trip_recovers_input(self):
        for base, d in [(complete_graph(4), 2), (complete_graph(6), 3)]:
            nbrs = list(range(d + 1))
            out, _ = one_extension(base, nbrs, (d - 1, d), d)
            pair = one_reduction_search(out, out.n - 1, d)
            assert pair == (d - 1, d)
            reduced, _ = one_reduce(out, out.n - 1, d)
            assert is_isomorphic(reduced, base)


class TestVertexSplit:
    def test_k4_split_is_k5_minus_edge(self):
        out, _ = vertex_split(complete_graph(4), 0, shared=[1, 2], moved=[], d=3)
        assert out.n == 5 and out.m == 9
        k5_minus = Graph(5, [e for e in complete_graph(5).edges if e != (3, 4)])
        assert is_isomorphic(out, k5_minus)

    def test_f_invariant_both_kinds(self):
        g = complete_graph(6)
        plain, _ = vertex_split(g, 0, shared=[1, 2], moved=[3], d=3)
        assert f_count(plain, 3) == f_count(g, 3)
        spider, _ = vertex_split(g, 0, shared=[1, 2, 3], moved=[4], d=3, spider=True)
        assert f_count(spider, 3) == f_count(g, 3)
        assert not spider.has_edge(0, spider.n - 1)
        assert plain.has_edge(0, plain.n - 1)

    def test_moved_edges_reassigned(self):
        g = wheel_graph(5)
        out, _ = vertex_split(g, 0, shared=[1], moved=[3, 4], d=2)
        w0 = out.n - 1
        assert not out.has_edge(0, 3) and not out.has_edge(0, 4)
        assert out.has_edge(w0, 3) and out.has_edge(w0, 4) and out.has_edge(w0, 1)

    def test_validation(self):
        g = wheel_graph(5)
        with pytest.raises(ValueError, match="shared"):
            vertex_split(g, 1, shared=[3], moved=[], d=2)  # 3 not adjacent to 1
        with pytest.raises(ValueError, match="disjoint"):
            vertex_split(g, 0, shared=[1], moved=[1], d=2)
        with pytest.raises(ValueError, match="expected 2"):
            vertex_split(g, 0, shared=[1], moved=[], d=3)


class TestSubstitute:
    def test_wheel_center_to_k4(self):
        # spread the four spokes as in the displayed 8-vertex example
        g = wheel_graph(5)
        assign = {1: 1, 2: 2, 3: 3, 4: 1}
        out, _ = substitute(g, 0, complete_graph(4), assign)
        assert out.n == 8 and out.m == 4 + 6 + 4
        assert f_count(out, 2) == 2 and is_tight(out, 2)

    def test_k1_substitution_is_identity(self):
        g = wheel_graph(5)
        out, _ = substitute(g, 2, Graph(1))
        assert is_isomorphic(out, g)

    def test_default_assignment_routes_to_vertex_zero(self):
        g = complete_graph(4)
        out, _ = substitute(g, 3, complete_graph(2))
        base = g.n - 1
        assert all(out.has_edge(w, base) for w in range(3))
        assert out.degree(base + 1) == 1  # only the internal h-edge

    def test_disconnected_h(self):
        # gluing a disconnected graph into K6 keeps independence at d = 3
        h = Graph(4, [(0, 1), (2, 3)])
        assign = {0: 0, 1: 1, 2: 2, 3: 3, 4: 0}
        out, _ = substitute(complete_graph(6), 5, h, assign)
        assert out.n == 9
        assert verdict(out, LqSpace(3, 3.0), seed=0).independent

    def test_incomplete_assignment_rejected(self):
        with pytest.raises(ValueError, match="cover exactly"):
            substitute(wheel_graph(5), 0, complete_graph(4), {1: 0})
        with pytest.raises(ValueError, match="outside"):
            substitute(wheel_graph(5), 0, complete_graph(4), {1: 9, 2: 0, 3: 0, 4: 0})


class TestOneReduction:
    def test_k4_has_no_reduction(self):
        assert one_reduction_search(complete_graph(4), 0, d=2) is None

    def test_closed_neighbourhood_k5(self):
        assert one_reduction_search(complete_graph(5), 2, d=3) is None

    def test_degree_checked(self):
        with pytest.raises(ValueError, match="degree"):
            one_reduction_search(wheel_graph(5), 0, d=2)  # center has degree 4

    def test_recorded_pair_checked(self):
        # A record's pair is applied, not searched, so it is checked: v
        # needs degree d+1 and the pair two distinct, non-adjacent
        # neighbours of v.
        g, apply = wheel_graph(5), OPERATIONS["reduce1"].apply
        assert sorted(g.neighbors(1)) == [0, 2, 4]
        assert apply(g, {"v": 1, "added": [2, 4], "d": 2})[0].n == 4
        bad = [
            (0, [1, 3], "degree"),
            (1, [1, 2], "neighbours"),
            (1, [2, 2], "neighbours"),
            (1, [2, 3], "neighbours"),
            (1, [0, 2], "already an edge"),
        ]
        for v, added, message in bad:
            with pytest.raises(ValueError, match=message):
                apply(g, {"v": v, "added": added, "d": 2})

    @pytest.mark.parametrize("v", [-1, -12, 12, 13])
    def test_vertex_out_of_range(self, v):
        g, _ = henneberg_generate(3, 12, 0)
        # -1 would otherwise read vertex 11, which has the reduction (0, 3).
        assert one_reduction_search(g, 11, 3) == (0, 3)
        for fn in (one_reduction_search, one_reduce):
            with pytest.raises(ValueError, match="out of range"):
                fn(g, v, 3)

    def test_soundness_on_random_tight_graphs(self):
        rng = np.random.default_rng(4)
        found = 0
        for _ in range(40):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(2 * d + 1, 9))
            g, _ = henneberg_generate(d, n, int(rng.integers(2**31)))
            degree_vertices = [v for v in range(g.n) if g.degree(v) == d + 1]
            for v in degree_vertices[:2]:
                pair = one_reduction_search(g, v, d)
                if pair is None:
                    continue
                reduced, _ = one_reduce(g, v, d)
                assert is_sparse(reduced, SparsityParams(d, d))
                found += 1
        assert found > 10


class TestHenneberg:
    def test_base_case(self):
        g, log = henneberg_generate(2, 4, seed=123)
        assert g == complete_graph(4) and log == []

    def test_outputs_tight(self):
        for seed in range(100):
            g, _ = henneberg_generate(3, 10, seed)
            assert is_tight(g, 3)
        for seed in range(25):
            g, _ = henneberg_generate(2, 8, seed)
            assert is_tight(g, 2)

    def test_replay_matches(self):
        g, log = henneberg_generate(3, 10, seed=7)
        assert henneberg_replay(3, log) == g
        again, log2 = henneberg_generate(3, 10, seed=7)
        assert again == g and [r.to_json_dict() for r in log2] == [r.to_json_dict() for r in log]

    def test_validation(self):
        with pytest.raises(ValueError):
            henneberg_generate(2, 3, seed=0)

    # Edges and log per d at seed 5, as the generator made them when every
    # step rebuilt the graph from its edge list.  A change in how the
    # generator consumes its random stream shows here.
    PINNED = {
        2: (
            8,
            ((0, 2), (0, 4), (0, 5), (0, 6), (1, 2), (1, 5), (1, 6), (1, 7), (2, 3),
             (3, 4), (3, 5), (3, 7), (5, 6), (6, 7)),
            (
                ("ext0", {"s": [0, 3], "d": 2}),
                ("ext1", {"nbrs": [0, 1, 3], "removed": [0, 3], "d": 2}),
                ("ext1", {"nbrs": [0, 1, 5], "removed": [0, 1], "d": 2}),
                ("ext1", {"nbrs": [1, 3, 6], "removed": [1, 3], "d": 2}),
            ),
        ),
        3: (
            10,
            ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 8), (1, 3), (1, 4),
             (1, 5), (1, 8), (1, 9), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 4),
             (3, 5), (3, 7), (4, 5), (4, 6), (4, 7), (5, 8), (6, 9), (7, 9), (8, 9)),
            (
                ("ext0", {"s": [0, 2, 4], "d": 3}),
                ("ext1", {"nbrs": [1, 2, 3, 4], "removed": [1, 2], "d": 3}),
                ("ext0", {"s": [0, 1, 5], "d": 3}),
                ("ext1", {"nbrs": [1, 6, 7, 8], "removed": [1, 7], "d": 3}),
            ),
        ),
    }

    def test_pinned_outputs(self):
        for d, (n, edges, steps) in self.PINNED.items():
            g, log = henneberg_generate(d, n, seed=5)
            assert g.edges == edges
            assert [r.to_json_dict() for r in log] == [
                {"kind": kind, "params": params, "before_n": 2 * d + i, "after_n": 2 * d + i + 1}
                for i, (kind, params) in enumerate(steps)
            ]
            assert henneberg_replay(d, log) == g


def reference_henneberg(d, n, seed):
    """`henneberg_generate` as a loop of copy-on-write `one_extension` and
    `zero_extension` steps, each on the `Graph` the step before made."""
    rng = np.random.default_rng(seed)
    g = complete_graph(2 * d)
    records = []
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


def ext0(s, before_n=6, d=3):
    return OpRecord("ext0", {"s": s, "d": d}, before_n, before_n + 1)


def ext1(nbrs, removed, before_n=6, d=3):
    return OpRecord("ext1", {"nbrs": nbrs, "removed": removed, "d": d}, before_n, before_n + 1)


class TestHennebergInPlace:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_copy_on_write_reference(self, d):
        for n in sorted({2 * d, 2 * d + 1, 13, 60}):
            for seed in range(10):
                g, log = henneberg_generate(d, n, seed)
                want, want_log = reference_henneberg(d, n, seed)
                assert g == want
                assert [g.neighbors(v) for v in range(n)] == [want.neighbors(v) for v in range(n)]
                assert json.dumps([r.to_json_dict() for r in log]) == json.dumps(
                    [r.to_json_dict() for r in want_log]
                )
                assert henneberg_replay(d, log) == g

    # Logs at d = 3, each with one bad record, and the message that record
    # raises when replayed one step at a time.
    BAD_LOGS = [
        ([ext0([0, 1])], "0-extension set must have exactly 3 vertices, got 2"),
        ([ext1([0, 1, 2], [0, 1])], "1-extension needs exactly 4 neighbours, got 3"),
        ([ext0([0, 1, 1])], "0-extension set contains repeated vertices"),
        ([ext1([0, 1, 2, 2], [0, 1])], "1-extension neighbours contains repeated vertices"),
        ([ext0([0, 1, 6])], "0-extension set vertex 6 out of range"),
        ([ext1([-1, 0, 1, 2], [0, 1])], "1-extension neighbours vertex -1 out of range"),
        ([ext0([0, 2, 4]), ext1([1, 2, 3, 6], [6, 1], 7)], "removed pair (1, 6) is not an edge"),
        ([ext1([0, 1, 2, 3], [4, 5])], "removed edge endpoints must lie among the neighbours"),
        ([ext1([0, 1, 2, 3], [0, 3, 1])], "removed edge [0, 3, 1] is not a vertex pair"),
        ([ext1([0, 1, 2, 3], [0])], "removed edge [0] is not a vertex pair"),
    ]

    @pytest.mark.parametrize("log, message", BAD_LOGS)
    def test_replay_rejects_bad_records(self, log, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            henneberg_replay(3, log)
        g = complete_graph(6)
        with pytest.raises(ValueError, match=re.escape(message)):
            for rec in log:
                g = apply_record(g, rec)

    # Params a JSON log may hold, each missing or of the wrong type.
    BAD_PARAMS = [
        ("ext0", {"d": 3}),
        ("ext0", {"s": [0, 1]}),
        ("ext0", {"s": 5, "d": 3}),
        ("ext0", {"s": [0, 1.5, 2], "d": 3}),
        ("ext0", {"s": [0, True, 2], "d": 3}),
        ("ext0", {"s": [0, 1, 2], "d": 3.0}),
        ("ext1", {"nbrs": [0, 1, 2, 3], "d": 3}),
        ("ext1", {"nbrs": [0, 1, 2, 3], "removed": None, "d": 3}),
        ("ext1", {"nbrs": [0, 1, 2, 3], "removed": [0, "1"], "d": 3}),
    ]

    @pytest.mark.parametrize("kind, params", BAD_PARAMS)
    def test_replay_rejects_bad_params(self, kind, params):
        rec = OpRecord(kind, params, 7, 8)
        with pytest.raises(ValueError, match="record 1 has a missing or bad parameter"):
            henneberg_replay(3, [ext0([0, 2, 4]), rec])
        with pytest.raises(ValueError, match=f"'{kind}' record has a missing or bad parameter"):
            apply_record(complete_graph(7), rec)

    def test_replay_checks_where_a_record_starts(self):
        g, log = henneberg_generate(3, 14, seed=2)
        with pytest.raises(ValueError, match="record 0 starts from 6 vertices, not 8"):
            henneberg_replay(4, log)
        with pytest.raises(ValueError, match="record 3 starts from 10 vertices, not 9"):
            henneberg_replay(3, log[:3] + log[4:])
        with pytest.raises(ValueError, match="'ext[01]' record starts from 6 vertices, not 8"):
            apply_record(complete_graph(8), log[0])
        assert henneberg_replay(3, log) == g

    def test_replay_takes_only_extensions(self):
        cone_record = cone(complete_graph(7))[1]
        with pytest.raises(ValueError, match="record 1 is a 'cone' operation"):
            henneberg_replay(3, [ext0([0, 2, 4]), cone_record])
        # apply_record still replays it
        assert apply_record(complete_graph(7), cone_record) == complete_graph(8)


class TestIndependenceTransfer:
    """Small sampled checks; the acceptance suite runs the full battery."""

    def _independent_input(self, d, n, seed):
        g, _ = henneberg_generate(d, n, seed)
        assert verdict(g, LqSpace(d, 3.0), seed=seed).independent
        return g

    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_all_operations_preserve_independence(self, q):
        rng = np.random.default_rng(17)
        for trial in range(6):
            d = 2
            g = self._independent_input(d, int(rng.integers(4, 8)), trial)
            ops = []
            ops.append(cone(g)[0])                      # verdict in d+1
            s = [int(x) for x in rng.choice(g.n, 2 * d, replace=False)]
            ops.append(brace(g, s, d)[0])               # verdict in d+1
            for out, dd in [(ops[0], d + 1), (ops[1], d + 1)]:
                assert verdict(out, LqSpace(dd, q), seed=trial).independent
            s0 = [int(x) for x in rng.choice(g.n, d, replace=False)]
            fixed = [zero_extension(g, s0, d)[0]]
            v = int(rng.integers(g.n))
            nb = sorted(g.neighbors(v))
            if len(nb) >= d + 1:
                nbrs = nb[: d + 1]
                inside = [
                    (x, y)
                    for i, x in enumerate(nbrs)
                    for y in nbrs[i + 1 :]
                    if g.has_edge(x, y)
                ]
                if inside:
                    fixed.append(one_extension(g, nbrs, inside[0], d)[0])
            v0 = max(range(g.n), key=g.degree)
            nb0 = sorted(g.neighbors(v0))
            fixed.append(vertex_split(g, v0, nb0[: d - 1], nb0[d - 1 :], d)[0])
            fixed.append(vertex_split(g, v0, nb0[:d], nb0[d:], d, spider=True)[0])
            fixed.append(substitute(g, v0, complete_graph(4))[0])
            for out in fixed:
                assert verdict(out, LqSpace(d, q), seed=trial).independent


def reference_count_sparse(params, n, seed):
    """`random_count_sparse` as a loop that judges each candidate by building
    the graph and asking `is_sparse`."""
    rng = np.random.default_rng(seed)
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    cap = (params.k * n - params.l) // params.edge_multiplier
    target = int(rng.integers(1, max(cap, 1) + 1))
    accepted: list = []
    for u, v in pairs:
        if len(accepted) >= target:
            break
        if is_sparse(Graph(n, accepted + [(u, v)]), params):
            accepted.append((u, v))
    return Graph(n, accepted)


def reference_degree_bounded(d, n, seed):
    """`random_degree_bounded_sparse` as a loop that lists every open pair
    before each edge draw."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        g = Graph(1)
        while g.n < n:
            cand = [v for v in range(g.n) if g.degree(v) < d + 2]
            take = int(rng.integers(1, min(d, len(cand)) + 1))
            g = g.with_vertex([int(x) for x in rng.choice(cand, size=take, replace=False)])
        for _ in range(int(rng.integers(0, 2 * d + 1))):
            open_pairs = [
                (x, y)
                for x, y in combinations(range(g.n), 2)
                if not g.has_edge(x, y) and g.degree(x) < d + 2 and g.degree(y) < d + 2
            ]
            if not open_pairs:
                break
            x, y = open_pairs[int(rng.integers(len(open_pairs)))]
            if edge_addable(g, d, x, y) and g.with_edge(x, y).min_degree() <= d + 1:
                g = g.with_edge(x, y)
        if (
            g.is_connected()
            and g.min_degree() <= d + 1
            and g.max_degree() <= d + 2
            and is_sparse(g, SparsityParams(d, d))
        ):
            return g
    raise RuntimeError("failed to generate a degree-bounded sparse graph")


class TestRandomGenerators:
    @pytest.mark.parametrize(
        "count", [(5, 7, 2), (3, 3, 1), (2, 3, 1), (2, 2, 2), (1, 1, 1)], ids=lambda c: "-".join(map(str, c))
    )
    def test_count_sparse_matches_reference(self, count):
        params = SparsityParams(*count)
        for n in (5, 12, 40):
            for seed in range(20):
                want = reference_count_sparse(params, n, seed)
                assert random_count_sparse(params, n, seed) == want, (count, n, seed)

    @pytest.mark.parametrize("n", list(range(5, 15)) + [80])
    def test_degree_bounded_matches_reference(self, n):
        for seed in range(50):
            want = reference_degree_bounded(3, n, seed)
            assert random_degree_bounded_sparse(3, n, seed) == want, (n, seed)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_degree_bounded_properties(self, d):
        # The generator checks none of these; its construction proves them.
        for n in list(range(1, 31)) + [80]:
            for seed in range(50):
                g = random_degree_bounded_sparse(d, n, seed)
                assert g.n == n and g.is_connected(), (d, n, seed)
                assert g.min_degree() <= d + 1 and g.max_degree() <= d + 2, (d, n, seed)
                # a fresh graph plays its own game, not the one handed on
                assert is_sparse(Graph(n, g.edges), SparsityParams(d, d)), (d, n, seed)

    def test_count_sparse_properties(self):
        params = SparsityParams(5, 7, edge_multiplier=2)
        for seed in range(12):
            g = random_count_sparse(params, 8, seed)
            assert g.m >= 1
            assert is_sparse(g, params)
            if g.n <= 8:
                assert brute_sparse(g, params, cap=8)


def json_round_trip(records: list) -> list:
    """Records through the JSON list that the CLI writes as a log."""
    text = json.dumps([rec.to_json_dict() for rec in records])
    return [OpRecord.from_json_dict(obj) for obj in json.loads(text)]


class TestRecords:
    def test_log_json_round_trip(self):
        _, log = henneberg_generate(3, 9, seed=2)
        assert log and json_round_trip(log) == log
        obj = log[0].to_json_dict()
        for key, value in [("before_n", 6.5), ("after_n", 7.0), ("after_n", True)]:
            with pytest.raises(ValueError, match="malformed operation record object"):
                OpRecord.from_json_dict({**obj, key: value})

    def test_every_record_replays(self):
        g = wheel_graph(5)
        ext1 = one_extension(g, [1, 2, 3], (1, 2), d=2)[0]
        red = one_reduce(ext1, 5, 2)
        assert red is not None
        cases = [
            (g, *op)
            for op in (
                cone(g),
                brace(g, [0, 1, 2, 4], d=2),
                zero_extension(g, [1, 2], d=2),
                one_extension(g, [1, 2, 3], (1, 2), d=2),
                vertex_split(g, 0, [1], [3], d=2),
                vertex_split(g, 0, [1, 2], [3], d=2, spider=True),
                substitute(g, 0, complete_graph(3), {1: 0, 2: 1, 3: 2, 4: 0}),
            )
        ]
        cases.append((ext1, *red))
        for surface, base in ((PROJECTIVE_PLANE, "K6"), (SPHERE, "K4")):
            src = base_complex(base)
            t, log = generate_triangulation(surface, src.n + 1, seed=0, base=base)
            cases.append((src.graph, t.graph, log[0]))
        records = json_round_trip([rec for _, _, rec in cases])
        assert len(records) == len(cases)
        for (src, out, rec), back in zip(cases, records):
            assert apply_record(src, back) == out, rec.kind
            assert rec.before_n == src.n and rec.after_n == out.n


def assert_fresh(out: Graph) -> None:
    """`out` equals the graph built from scratch on its edges, down to the
    hash and every neighbour set."""
    fresh = Graph(out.n, out.edges)
    assert out == fresh and hash(out) == hash(fresh)
    for v in range(out.n):
        assert out.neighbors(v) == fresh.neighbors(v)
        assert type(out.neighbors(v)) is frozenset


class TestDerivedGraphs:
    """Operations derive their graph from the parent's edges and adjacency
    and check only the new edges; a fresh build is the reference."""

    # Params for every operation kind on the wheel W5, at d = 2.
    PARAMS = {
        "cone": {},
        "brace": {"s": [0, 1, 2, 4], "d": 2},
        "ext0": {"s": [1, 2], "d": 2},
        "ext1": {"nbrs": [1, 2, 3], "removed": [1, 2], "d": 2},
        "vsplit": {"v0": 0, "shared": [1], "moved": [3, 4], "d": 2},
        "spider": {"v0": 0, "shared": [1, 2], "moved": [3], "d": 2},
        "subst": {
            "v0": 0,
            "h": complete_graph(3).to_json_dict(),
            "assign": {"1": 0, "2": 1, "3": 2, "4": 0},
        },
        "reduce1": {"v": 1, "d": 2},
    }

    def test_every_operation_kind(self):
        assert set(self.PARAMS) == set(OPERATIONS)
        g = wheel_graph(5)
        before = (g.edges, [g.neighbors(v) for v in range(g.n)], hash(g))
        for kind, params in self.PARAMS.items():
            made = OPERATIONS[kind].apply(g, params)
            assert made is not None, kind
            assert_fresh(made[0])
        assert (g.edges, [g.neighbors(v) for v in range(g.n)], hash(g)) == before

    def test_with_edge_and_vertex(self):
        g = wheel_graph(5)
        for out in (
            g.with_edge(1, 3),
            g.with_edge(4, 2),
            g.with_vertex([4, 0, 2]),
            g.with_vertex(),
            Graph(0).with_vertex(),
            Graph(2).with_edge(1, 0),
            g.without_edges_at(0),
            g.without_edges_at(3),
            g.with_vertex([0]).without_edges_at(5),
        ):
            assert_fresh(out)
        assert g.without_edges_at(0) == Graph(g.n, [e for e in g.edges if 0 not in e])
        with pytest.raises(ValueError, match="out of range"):
            g.without_edges_at(5)

    def test_read_order(self):
        # m, equality, hashing and pickling of a derived graph whose sorted
        # edges were never read
        g = wheel_graph(5)
        fresh = Graph(6, [*g.edges, (1, 3), (0, 5), (2, 5)])
        for read in ("m", "eq", "hash", "pickle"):
            out = g.with_edge(3, 1).with_vertex([2, 0])
            assert out._edges is None
            if read == "m":
                assert out.m == fresh.m == 11
            elif read == "eq":
                assert out == fresh and fresh == out
                assert out != g.with_edge(3, 1).with_vertex([2, 4])
            elif read == "hash":
                assert hash(out) == hash(fresh)
            else:
                back = pickle.loads(pickle.dumps(out))
                assert back == fresh and back.edges == fresh.edges
            assert_fresh(out)

    def test_removed_then_added(self):
        g = wheel_graph(5)
        out = g._derive(g.n, [(2, 1)], [(1, 2)])
        assert out == g and out.m == g.m
        assert_fresh(out)
        out = g._derive(g.n + 1, [(5, 2), (1, 2)], [(2, 1), (0, 2)])
        assert out == Graph(6, [e for e in g.edges if e != (0, 2)] + [(2, 5)])
        assert_fresh(out)

    def test_removed_edges_checked(self):
        g = wheel_graph(5)
        for removed in ([(1, 3)], [(2, 2)], [(0, 5)], [(-1, 4)], [(1, 2), (2, 1)],
                        [(0, 1), (0, 1)]):
            with pytest.raises(ValueError, match="is not an edge"):
                g._derive(g.n + 1, [], removed)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_steps(self, data):
        # Steps on graphs whose sorted edges are never read until the end,
        # against an edge set kept beside them.
        n = data.draw(st.integers(2, 6))
        pairs = list(combinations(range(n), 2))
        g = Graph(n, data.draw(st.sets(st.sampled_from(pairs))))
        model = set(g.edges)
        made = []
        for step in data.draw(st.lists(st.sampled_from(["edge", "vertex", "ext1", "vsplit"]),
                                       max_size=12)):
            n = g.n
            if step == "edge":
                free = [e for e in combinations(range(n), 2) if not g.has_edge(*e)]
                if not free:
                    continue
                u, v = data.draw(st.sampled_from(free))
                g = g.with_edge(v, u)
                model.add((u, v))
            elif step == "vertex":
                nbrs = data.draw(st.lists(st.integers(0, n - 1), unique=True))
                g = g.with_vertex(nbrs)
                model |= {(w, n) for w in nbrs}
            elif step == "ext1":
                ends = [(u, v) for u in range(n) for v in sorted(g.neighbors(u)) if u < v]
                if not ends:
                    continue
                x, y = data.draw(st.sampled_from(ends))
                others = data.draw(st.lists(
                    st.sampled_from([w for w in range(n) if w not in (x, y)] or [x]),
                    unique=True, max_size=2,
                ))
                nbrs = [x, y] + [w for w in others if w not in (x, y)]
                g, _ = one_extension(g, nbrs, (y, x), len(nbrs) - 1)
                model = (model - {(x, y)}) | {(w, n) for w in nbrs}
            else:
                v0 = data.draw(st.integers(0, n - 1))
                nb = sorted(g.neighbors(v0))
                d = data.draw(st.integers(1, len(nb) + 1))
                shared = nb[: d - 1]
                moved = data.draw(st.lists(st.sampled_from(nb[d - 1 :] or [v0]), unique=True))
                moved = [w for w in moved if w != v0]
                g, _ = vertex_split(g, v0, shared, moved, d)
                model = (model - {(min(v0, w), max(v0, w)) for w in moved}) | {
                    (w, n) for w in shared + moved + [v0]
                }
            assert g._edges is None and g.m == len(model)
            made.append((g, set(model)))
        for out, edges in made:
            assert set(out.edges) == edges
            assert_fresh(out)

    def test_triangulation_index_ignored(self):
        # A triangulation carries no face index, only its surface, n and
        # faces, and the graph built from those, so the one rebuilt from its
        # faces equals it throughout.
        t, _ = generate_triangulation(PROJECTIVE_PLANE, 12, seed=4)
        assert [f.name for f in fields(SurfaceTriangulation)] == ["surface", "n", "faces", "graph"]
        again = from_faces(t.surface, t.n, t.faces)
        assert again == t and hash(again) == hash(t)
        assert repr(again) == repr(t) and again.to_json_dict() == t.to_json_dict()

    def test_new_edges_checked(self):
        g = wheel_graph(5)
        bad_edges = [(1, 2, "duplicate"), (2, 1, "duplicate"), (3, 3, "self-loop"),
                     (1, 5, "out of range"), (-1, 2, "out of range")]
        for u, v, message in bad_edges:
            with pytest.raises(ValueError, match=message):
                g.with_edge(u, v)
        bad_nbrs = [([1, 1], "duplicate"), ([0, 5], "self-loop"), ([6], "out of range"),
                    ([-1], "out of range")]
        for nbrs, message in bad_nbrs:
            with pytest.raises(ValueError, match=message):
                g.with_vertex(nbrs)

    def test_grown_graphs(self):
        for d in (2, 3):
            g, log = henneberg_generate(d, 30, seed=d)
            replayed = complete_graph(2 * d)
            for rec in log:
                replayed = apply_record(replayed, rec)
                assert_fresh(replayed)
            assert replayed == g
        for surface, base in ((SPHERE, "K4"), (PROJECTIVE_PLANE, "K6"),
                              (PROJECTIVE_PLANE, "K7_minus_K3")):
            for n in (base_complex(base).n + 1, 12, 25):
                t, _ = generate_triangulation(surface, n, seed=n, base=base)
                assert_fresh(t.graph)
                assert t.graph == from_faces(surface, t.n, t.faces).graph
