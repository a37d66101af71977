import copy
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqrig.graphs import (
    Graph,
    SparsityParams,
    _PebbleGame,
    complete_graph,
    count_basis,
    count_rank,
    edge_addable,
    f_count,
    is_sparse,
    is_tight,
    isolated_at,
    path_graph,
    wheel_graph,
    with_addable_edge,
)
from lqrig.operations import one_reduction_search

from bruteforce import (
    all_graphs,
    brute_addable,
    brute_count_rank,
    brute_critical_sets,
    brute_sparse,
    random_graph,
)

PARAM_GRID = [
    SparsityParams(1, 1),
    SparsityParams(2, 2),
    SparsityParams(2, 3),
    SparsityParams(3, 3),
    SparsityParams(5, 7, edge_multiplier=2),
]


def edge_by_edge(n, edges):
    """Graph(n, edges) built by one `with_edge` call per edge."""
    g = Graph(n)
    for u, v in edges:
        g = g.with_edge(u, v)
    return g


def built_or_error(build, n, edges):
    """The graph `build(n, edges)` makes, or the message of its ValueError."""
    try:
        return build(n, edges)
    except ValueError as exc:
        return str(exc)


@st.composite
def edge_lists(draw):
    """(n, edges) whose endpoints may repeat or fall one outside 0..n-1."""
    n = draw(st.integers(0, 6))
    ends = st.integers(-1, n)
    return n, draw(st.lists(st.tuples(ends, ends), max_size=12))


@settings(max_examples=300, deadline=None)
@given(edge_lists())
@example((3, [(0, 1), (2, 2)]))
@example((3, [(0, 1), (1, 3)]))
@example((3, [(1, 2), (0, 1), (2, 1)]))
@example((3, [(0, 2), (0, 2)]))
def test_edge_list_matches_edge_by_edge(case):
    # An edge list and successive `with_edge` calls go through one routine:
    # the same graph, or the same error on the first bad edge.
    n, edges = case
    got = built_or_error(Graph, n, edges)
    assert got == built_or_error(edge_by_edge, n, edges)
    if isinstance(got, Graph):
        assert got.edges == tuple(sorted({(min(e), max(e)) for e in edges}))
        assert got.m == len(got.edges) == len(edges)
        assert got._adj == edge_by_edge(n, edges)._adj


class TestGraph:
    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (2, 2)], "self-loop at vertex 2"),
            ([(0, 3)], "edge (0,3) out of range for n=3"),
            ([(-1, 0)], "edge (-1,0) out of range for n=3"),
            ([(0, 1), (1, 0)], "duplicate edge (0, 1)"),
            ([(2, 1), (2, 1)], "duplicate edge (1, 2)"),
        ],
    )
    def test_bad_edge_list_message(self, edges, message):
        for build in (Graph, edge_by_edge):
            with pytest.raises(ValueError) as exc:
                build(3, edges)
            assert str(exc.value) == message

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_adjacency_consistent_with_edges(self):
        g = wheel_graph(5)
        for u, v in g.edges:
            assert v in g.neighbors(u) and u in g.neighbors(v)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m

    def test_edges_canonical(self):
        a = Graph(4, [(3, 1), (0, 2), (2, 1)])
        b = Graph(4, [(0, 2), (1, 2), (1, 3)])
        assert a.edges == b.edges == ((0, 2), (1, 2), (1, 3))
        assert a == b and hash(a) == hash(b)
        assert a != Graph(5, b.edges)

    def test_has_edge_out_of_range(self):
        g = Graph(3, [(0, 2), (1, 2)])
        assert g.has_edge(0, 2) and g.has_edge(2, 1) and not g.has_edge(0, 1)
        # -1 must not wrap to vertex 2
        for u, v in [(-1, 0), (0, -1), (-1, 1), (3, 0), (0, 3), (-1, -1)]:
            assert not g.has_edge(u, v)

    def test_json_round_trip(self):
        g = wheel_graph(6)
        assert Graph.from_json_dict(g.to_json_dict()) == g

    def test_json_reader_rejects_malformed(self):
        with pytest.raises(ValueError):
            Graph.from_json_dict({"n": 3})
        with pytest.raises(ValueError):
            Graph.from_json_dict({"n": 2, "edges": [[0, 0]]})
        # a float or bool field is rejected, never truncated
        for obj in [
            {"n": 3.9, "edges": [[0, 2]]},
            {"n": 3, "edges": [[0.9, 2]]},
            {"n": 3, "edges": [[True, 2]]},
            {"n": True, "edges": []},
        ]:
            with pytest.raises(ValueError, match="malformed graph object"):
                Graph.from_json_dict(obj)

    def test_delete_vertex_reindexes(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        h = g.delete_vertex(1)
        assert h.n == 3 and h.edges == ((1, 2),)

    def test_factories(self):
        assert complete_graph(4).m == 6
        assert wheel_graph(5).m == 8
        assert path_graph(3).edges == ((0, 1), (1, 2))


class TestCounts:
    def test_f_count_k4(self):
        assert f_count(complete_graph(4), 2) == 2

    def test_f_count_k7_minus_k3(self):
        g = Graph(7, [e for e in complete_graph(7).edges if not (e[0] >= 4 and e[1] >= 4)])
        assert g.m == 18
        assert f_count(g, 3) == 3

    def test_f_count_single_vertex(self):
        assert f_count(Graph(1), 3) == 3

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SparsityParams(2, 4)
        with pytest.raises(ValueError):
            SparsityParams(2, 2, edge_multiplier=3)
        with pytest.raises(ValueError):
            SparsityParams(0, 0)


class TestSparsity:
    def test_k4_22(self):
        g = complete_graph(4)
        assert brute_sparse(g, SparsityParams(2, 2))
        assert is_sparse(g, SparsityParams(2, 2))

    def test_k5_22_fails(self):
        assert not is_sparse(complete_graph(5), SparsityParams(2, 2))

    def test_k4_57_half_integer(self):
        g = complete_graph(4)
        params = SparsityParams(5, 7, edge_multiplier=2)
        assert brute_sparse(g, params)
        assert is_sparse(g, params)

    def test_tightness(self):
        k4 = complete_graph(4)
        assert brute_sparse(k4, SparsityParams(2, 2)) and f_count(k4, 2) == 2
        assert is_tight(k4, 2)
        assert is_tight(wheel_graph(5), 2)
        k4_minus = Graph(4, list(k4.edges)[:-1])
        assert is_sparse(k4_minus, SparsityParams(2, 2))
        assert not is_tight(k4_minus, 2)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_pebble_matches_brute_force(self, params):
        rng = np.random.default_rng(hash((params.k, params.l)) % 2**32)
        for _ in range(120):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(0, n * (n - 1) // 2 + 1))
            g = random_graph(n, m, rng)
            assert is_sparse(g, params) == brute_sparse(g, params), g.edges

    def test_critical_set_min_degree(self):
        # every critical set of a (d,d)-sparse graph induces min degree >= d
        rng = np.random.default_rng(7)
        seen = 0
        while seen < 60:
            n = int(rng.integers(3, 7))
            d = int(rng.integers(1, 4))
            g = random_graph(n, int(rng.integers(1, 3 * n)), rng)
            if not is_sparse(g, SparsityParams(d, d)):
                continue
            for crit in brute_critical_sets(g, d):
                sub = set(crit)
                for v in crit:
                    assert len(g.neighbors(v) & sub) >= d
            seen += 1


class TestEdgeAddable:
    def test_missing_pair_of_k4(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert brute_addable(g, 2, 2, 3)
        assert edge_addable(g, 2, 2, 3)

    def test_adjacent_pair(self):
        assert not edge_addable(complete_graph(4), 2, 0, 1)

    def test_missing_pair_of_k5(self):
        edges = [e for e in complete_graph(5).edges if e != (3, 4)]
        assert not edge_addable(Graph(5, edges), 2, 3, 4)

    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            edge_addable(complete_graph(3), 2, 1, 1)

    @pytest.mark.parametrize("x, y", [(0, -1), (-1, 0), (0, 4), (7, 0), (0, 7), (-2, 9)])
    def test_rejects_out_of_range(self, x, y):
        # -1 must not alias vertex 3, and the check comes before any game loads
        g = path_graph(4)
        with pytest.raises(ValueError, match="out of range"):
            edge_addable(g, 2, x, y)
        assert g._games == {}

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            d = int(rng.integers(1, 4))
            g = random_graph(n, int(rng.integers(0, 2 * n)), rng)
            x, y = rng.choice(n, size=2, replace=False)
            assert edge_addable(g, d, int(x), int(y)) == brute_addable(g, d, int(x), int(y))


@pytest.fixture(scope="module")
def small_classes():
    """(n, edges) of one graph per isomorphism class on up to 6 vertices."""
    return [(g.n, g.edges) for n in range(7) for g in all_graphs(n)]


def non_edges(g):
    return [(x, y) for x in range(g.n) for y in range(x + 1, g.n) if not g.has_edge(x, y)]


def game_state(g):
    """Pebbles, free count, orientation and taken edges of every game played on g."""
    return {
        key: (game.pebbles[:], game.free, [o[:] for o in game.out], taken)
        for key, (game, taken) in g._games.items()
    }


class TestPebbleCache:
    """Each graph loads its pebble game once per count; answers must not
    depend on what was asked before, on the same graph or its parent."""

    def test_classes_cover_small_graphs(self, small_classes):
        assert len(small_classes) == 1 + 1 + 2 + 4 + 11 + 34 + 156

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_edge_addable_in_two_orders(self, small_classes, d):
        for n, edges in small_classes:
            g = Graph(n, edges)
            pairs = non_edges(g)
            want = [brute_addable(g, d, x, y) for x, y in pairs]
            assert [edge_addable(Graph(n, edges), d, x, y) for x, y in pairs] == want, edges
            assert [edge_addable(g, d, x, y) for x, y in pairs] == want, edges
            state = game_state(g)
            back = [edge_addable(g, d, y, x) for x, y in reversed(pairs)]
            assert back[::-1] == want, edges
            # the loaded game is never moved by a query
            assert game_state(g) == state, edges

    def test_counts_on_one_object(self, small_classes):
        # Counts that differ only in the multiplier share k and l, and
        # `is_tight` loads the game `edge_addable` then reads.
        grid = [
            SparsityParams(2, 2, edge_multiplier=2),
            SparsityParams(2, 2),
            SparsityParams(5, 7, edge_multiplier=2),
            SparsityParams(5, 7),
            SparsityParams(1, 1),
            SparsityParams(2, 3),
        ]
        for n, edges in small_classes:
            g = Graph(n, edges)
            for params in grid + grid[::-1]:
                assert is_sparse(g, params) == brute_sparse(g, params), (edges, params)
            assert is_tight(g, 2) == (f_count(g, 2) == 2 and brute_sparse(g, SparsityParams(2, 2)))
            for x, y in non_edges(g):
                assert edge_addable(g, 2, x, y) == brute_addable(g, 2, x, y), (edges, x, y)

    def test_derived_graphs_load_their_own_game(self):
        forest = SparsityParams(1, 1)
        parent = Graph(4, [(0, 1), (1, 2)])
        assert is_sparse(parent, forest) and edge_addable(parent, 1, 0, 3)
        path = parent.with_edge(2, 3)
        assert not edge_addable(path, 1, 0, 3)
        assert not is_sparse(path.with_edge(0, 3), forest)
        assert not is_sparse(parent.with_edge(0, 2), forest)
        assert not is_sparse(parent.with_vertex([0, 2]), forest)
        assert is_sparse(parent, forest) and edge_addable(parent, 1, 0, 3)

    @pytest.mark.parametrize("d", [1, 2])
    def test_grown_graph_takes_the_answering_game(self, small_classes, d):
        for n, edges in small_classes:
            g = Graph(n, edges)
            is_sparse(g, SparsityParams(d, d))
            state = game_state(g)
            for x, y in non_edges(g):
                child = with_addable_edge(g, d, x, y)
                assert (child is not None) == edge_addable(g, d, x, y), (edges, x, y)
                if child is None:
                    continue
                assert child == g.with_edge(x, y) and list(child._games) == [(d, d, 1)]
                # the handed game answers as the child's own loaded game would
                fresh = Graph(child.n, child.edges)
                pairs = non_edges(child)
                got = [edge_addable(child, d, a, b) for a, b in pairs]
                assert got == [edge_addable(fresh, d, a, b) for a, b in pairs], (edges, x, y)
            assert game_state(g) == state, edges

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_reduction_masks_take_the_parents_game(self, small_classes, d):
        for n, edges in small_classes:
            g = Graph(n, edges)
            sparse = is_sparse(g, SparsityParams(d, d))
            state = game_state(g)
            for v in range(n):
                masked = isolated_at(g, d, v)
                fresh = Graph(n, g.without_edges_at(v).edges)
                assert masked == fresh and (list(masked._games) == [(d, d, 1)]) == sparse
                pairs = non_edges(masked)
                got = [edge_addable(masked, d, x, y) for x, y in pairs]
                assert got == [edge_addable(fresh, d, x, y) for x, y in pairs], (edges, v)
                if g.degree(v) != d + 1:
                    continue
                link = [(x, y) for x, y in non_edges(g) if {x, y} <= g.neighbors(v)]
                want = next((e for e in link if edge_addable(Graph(n, fresh.edges), d, *e)), None)
                assert one_reduction_search(g, v, d) == want, (edges, v)
            assert game_state(g) == state, edges

    def test_tight_graph_answers_without_a_search(self, small_classes, monkeypatch):
        tight = [(Graph(n, edges), d) for n, edges in small_classes for d in (1, 2, 3)]
        tight = [(g, d) for g, d in tight if is_tight(g, d) and non_edges(g)]
        assert len(tight) > 20

        def refuse(*args):
            raise AssertionError("the game searched or was copied")

        monkeypatch.setattr(_PebbleGame, "_free_pebble", refuse)
        monkeypatch.setattr(_PebbleGame, "copy", refuse)
        for g, d in tight:
            assert not any(edge_addable(g, d, x, y) for x, y in non_edges(g)), g.edges

    def test_identity_unaffected(self):
        fresh = wheel_graph(6)
        queried = wheel_graph(6)
        assert is_tight(queried, 2) and not edge_addable(queried, 2, 1, 3)
        assert queried == fresh and hash(queried) == hash(fresh)
        for other in (copy.copy(queried), pickle.loads(pickle.dumps(queried))):
            assert other == fresh and hash(other) == hash(fresh)
            assert is_tight(other, 2) and not edge_addable(other, 2, 1, 3)
        # the loaded game is not pickled
        assert pickle.dumps(queried) == pickle.dumps(fresh)

    def test_concurrent_readers(self):
        # More threads than cores, switching often, all collecting on one
        # graph's game: each must see the answers of a fresh graph.
        g = random_graph(24, 42, np.random.default_rng(3))
        pairs = non_edges(g)
        want = [edge_addable(Graph(g.n, g.edges), 2, x, y) for x, y in pairs]
        assert any(want) and not all(want)
        got: list = []
        interval = sys.getswitchinterval()

        def reader():
            for _ in range(5):
                got.append([edge_addable(g, 2, x, y) for x, y in pairs])

        threads = [threading.Thread(target=reader) for _ in range(4)]
        try:
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 20


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_free_counts_the_pebbles(data):
    n = data.draw(st.integers(2, 7))
    k = data.draw(st.integers(1, 3))
    games = [_PebbleGame(n, k, data.draw(st.integers(0, 2 * k - 1)))]
    for _ in range(data.draw(st.integers(0, 30))):
        game = data.draw(st.sampled_from(games))
        step = data.draw(st.sampled_from(["insert", "delete", "copy"]))
        if step == "copy":
            games.append(game.copy())
        elif step == "insert":
            u, v = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            game.insert(u, v, data.draw(st.integers(1, 2)))
        else:
            placed = [(u, w) for u in range(n) for w in game.out[u]]
            if placed:
                game.delete(*data.draw(st.sampled_from(placed)))
        assert [g.free for g in games] == [sum(g.pebbles) for g in games]


def greedy_basis(g, params):
    """Indices of the edges kept in order while the kept set stays sparse
    under `params`, by brute force."""
    kept: list = []
    for i, e in enumerate(g.edges):
        if brute_sparse(Graph(g.n, [g.edges[j] for j in kept] + [e]), params):
            kept.append(i)
    return tuple(kept)


class TestCountRank:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_largest_sparse_subset(self, small_classes, d):
        for n, edges in small_classes:
            if n <= 5:
                g = Graph(n, edges)
                assert count_rank(g, d) == brute_count_rank(g, d), edges

    @pytest.mark.parametrize(
        "params",
        [pytest.param(SparsityParams(d, d), id=str(d)) for d in (1, 2, 3)]
        + [pytest.param(SparsityParams(k, l, 2), id=f"{k}-{l}-2") for k, l in ((2, 2), (3, 3), (5, 7))],
    )
    def test_greedy_on_brute_force(self, small_classes, params):
        # The multiplier-2 counts insert both copies of an edge or neither.
        # Only (3, 3, 2) meets, on these classes, a refused edge whose first
        # copy alone would fit and a later edge that the stray copy blocks.
        key = (params.k, params.l, params.edge_multiplier)
        for n, edges in small_classes:
            g = Graph(n, edges)
            want = greedy_basis(g, params)
            assert is_sparse(g, params) == (want == tuple(range(g.m))), (edges, params)
            assert g._games[key][1] == want, (edges, params)
            if params.l == params.k and params.edge_multiplier == 1:
                assert count_basis(g, params.k) == want and count_rank(g, params.k) == len(want)

    def test_sparse_graph_reads_its_game(self, small_classes):
        for n, edges in small_classes:
            g = Graph(n, edges)
            if is_sparse(g, SparsityParams(2, 2)):
                state = game_state(g)
                assert count_rank(g, 2) == g.m
                assert count_basis(g, 2) == tuple(range(g.m))
                assert count_basis(g, 2) is g._games[(2, 2, 1)][1]
                assert game_state(g) == state and list(g._games) == [(2, 2, 1)], edges

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_basis_is_sparse_and_maximal(self, small_classes, d):
        for n, edges in small_classes:
            g = Graph(n, edges)
            basis = count_basis(g, d)
            kept = Graph(n, [g.edges[i] for i in basis])
            assert len(basis) == count_rank(g, d) and is_sparse(kept, SparsityParams(d, d))
            for i in set(range(g.m)) - set(basis):
                assert not edge_addable(kept, d, *g.edges[i]), (edges, d)

    def test_kept_once_per_graph_and_d(self):
        g = complete_graph(5)
        assert [count_rank(g, d) for d in (1, 2, 3, 2)] == [4, 8, 10, 8]
        # the star at 0, then the first eight edges in lexicographic order
        taken = {key: record[1] for key, record in g._games.items()}
        assert taken == {(1, 1, 1): (0, 1, 2, 3), (2, 2, 1): tuple(range(8)), (3, 3, 1): tuple(range(10))}
        state = game_state(g)
        assert not is_sparse(g, SparsityParams(2, 2)) and is_sparse(g, SparsityParams(3, 3))
        assert not edge_addable(g, 2, 0, 1) and count_basis(g, 2) is taken[(2, 2, 1)]
        assert game_state(g) == state
        assert g.with_vertex([0])._games == {}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subset_edge_identity(data):
    # i(U) + i(W) + d(U, W) = i(U u W) + i(U n W)
    n = data.draw(st.integers(3, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs)))
    g = Graph(n, edges)
    us = data.draw(st.sets(st.integers(0, n - 1)))
    ws = data.draw(st.sets(st.integers(0, n - 1)))
    lhs = g.induced_count(us) + g.induced_count(ws) + g.cross_count(us, ws)
    rhs = g.induced_count(us | ws) + g.induced_count(us & ws)
    assert lhs == rhs
