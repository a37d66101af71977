import numpy as np
import pytest

from lqrig.geometry import LqSpace, Placement, rigidity_matrix
from lqrig.graphs import Graph, complete_graph, count_rank, path_graph, wheel_graph
from lqrig.oracles import (
    wheel_corner_submatrix,
    wheel_degenerate_placement,
    wheel_placement,
)
from lqrig.rank import (
    _RESAMPLE_BUDGET,
    _sample,
    cokernel_basis,
    max_rank_sample,
    numerical_rank,
    sample_placement,
    verdict,
)

from bruteforce import all_graphs, brute_count_rank


def octahedron() -> Graph:
    missing = {(0, 1), (2, 3), (4, 5)}
    return Graph(6, [e for e in complete_graph(6).edges if e not in missing])


def k5_plus_isolated() -> Graph:
    """Rank 8 in l_q^2, below min(10, 2*6 - 2) = 10 and at its count rank 8."""
    return Graph(6, complete_graph(5).edges)


def k4_plus_isolated() -> Graph:
    """Rank 5 in the Euclidean plane, below its count rank 6 = |E|."""
    return Graph(5, complete_graph(4).edges)


def reference_trials(g, space, trials, seed):
    """(rank, placement, cutoff) of every trial of the one-placement-at-a-time
    loop, and the number of trials up to the second that reaches
    min(|E|, target rank, count rank), the count rank found by brute force."""
    ceiling = min(g.m, space.target_rank(g.n), brute_count_rank(g, space.d))
    out, cut = [], trials
    for i in range(trials):
        p = sample_placement(g, space, np.random.default_rng([seed, i]))
        res = numerical_rank(rigidity_matrix(g, p, space))
        out.append((res.rank, p, res.tolerance_used))
        if cut == trials and sum(r >= ceiling for r, _, _ in out) == 2:
            cut = i + 1
    return out, cut


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)).rank == 3

    def test_zero(self):
        res = numerical_rank(np.zeros((4, 5)))
        assert res.rank == 0

    def test_empty(self):
        assert numerical_rank(np.zeros((0, 5))).rank == 0

    def test_wheel_corner_submatrix_q3(self):
        # det M = 2^{q-1} - 2 = 2 at q = 3, so full rank 8
        res = numerical_rank(wheel_corner_submatrix(3.0))
        assert res.rank == 8

    def test_rank_counts_singular_values(self):
        a = np.diag([1.0, 1e-3, 0.0])
        res = numerical_rank(a)
        sv = np.linalg.svd(a, compute_uv=False)
        assert res.rank == np.count_nonzero(sv > res.tolerance_used) == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            numerical_rank(np.array([[1.0, np.inf]]))

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            numerical_rank(np.eye(2), rel_tol=0.0)


class TestMaxRankSample:
    def test_wheel_rank_8(self):
        res = max_rank_sample(wheel_graph(5), LqSpace(2, 3.0), seed=0)
        assert res.rank == 8 and res.stable
        assert res.witness is not None and res.witness.n == 5

    def test_k4_rank_6(self):
        assert max_rank_sample(complete_graph(4), LqSpace(2, 1.5), seed=1).rank == 6

    def test_path3_rank_2(self):
        g = path_graph(3)
        space = LqSpace(2, 2.5)
        p = Placement(2, [[0.0, 0.0], [1.0, 0.5], [2.0, -0.3]])
        assert numerical_rank(rigidity_matrix(g, p, space)).rank == 2
        assert max_rank_sample(g, space, seed=2).rank == 2

    def test_rank_upper_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            g = complete_graph(n)
            res = max_rank_sample(g, LqSpace(d, 3.0), trials=2, seed=int(rng.integers(100)))
            assert res.rank <= min(g.m, d * n - d)

    def test_monotone_trials(self):
        g = wheel_graph(6)
        space = LqSpace(2, 1.5)
        prev = 0
        for t in range(1, 5):
            rank = max_rank_sample(g, space, trials=t, seed=3).rank
            assert rank >= prev
            prev = rank

    def test_determinism(self):
        g = wheel_graph(6)
        space = LqSpace(3, 3.0)
        a = max_rank_sample(g, space, trials=4, seed=9)
        b = max_rank_sample(g, space, trials=4, seed=9)
        assert a.rank == b.rank and a.trial_ranks == b.trial_ranks
        assert np.allclose(a.witness.coords, b.witness.coords)

    def test_scale_robustness(self):
        g = wheel_graph(5)
        space = LqSpace(2, 3.0)
        res = max_rank_sample(g, space, seed=4)
        doubled = numerical_rank(rigidity_matrix(g, res.witness.scaled(2.0), space))
        assert doubled.rank == res.rank

    def test_never_at_ceiling_runs_every_trial(self):
        for trials in (1, 3, 8):
            res = max_rank_sample(k4_plus_isolated(), LqSpace(2, 2.0), trials=trials, seed=6)
            assert res.rank == 5 and len(res.trial_ranks) == trials

    def test_stops_at_count_rank(self):
        # Below min(|E|, target rank) = 10, but at the count rank 8.
        res = max_rank_sample(k5_plus_isolated(), LqSpace(2, 1.5), trials=8, seed=6)
        assert res.trial_ranks == (8, 8) and res.rank == 8 and res.stable

    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_no_trial_exceeds_count_rank(self, q):
        # The early exit at the count rank is sound only if no sampled
        # placement's rank exceeds it.
        for n in range(2, 6):
            for g in all_graphs(n):
                for d in (1, 2, 3):
                    space = LqSpace(d, q)
                    for i in range(2):
                        _, m = _sample(g, space, np.random.default_rng([n, d, i]))
                        assert numerical_rank(m).rank <= count_rank(g, d), (g.edges, d)

    @pytest.mark.parametrize("trials", [1, 2, 3, 8])
    def test_matches_reference_loop(self, trials):
        cases = [
            (wheel_graph(5), LqSpace(2, 3.0)),
            (complete_graph(5), LqSpace(3, 1.5)),
            (octahedron(), LqSpace(3, 3.0)),
            (path_graph(3), LqSpace(2, 2.5)),
            (complete_graph(3), LqSpace(2, 2.0)),
            (k5_plus_isolated(), LqSpace(2, 6.0)),
        ]
        for g, space in cases:
            for seed in (0, 7):
                ref, cut = reference_trials(g, space, trials, seed)
                ranks = [r for r, _, _ in ref]
                top = ranks.index(max(ranks))
                res = max_rank_sample(g, space, trials=trials, seed=seed)
                # The early exit keeps a prefix and the full loop's verdict.
                assert res.trial_ranks == tuple(ranks[:cut])
                assert res.rank == ranks[top] and res.stable == (ranks.count(res.rank) >= 2)
                assert res.tolerance_used == ref[top][2]
                assert np.array_equal(res.witness.coords, ref[top][1].coords)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            max_rank_sample(wheel_graph(5), LqSpace(2, 3.0), trials=0)


class OriginFirst:
    """Generator stand-in whose first `bad` draws put every vertex at the origin."""

    def __init__(self, bad: int):
        self.bad, self.calls = bad, 0

    def uniform(self, low, high, size):
        self.calls += 1
        if self.calls <= self.bad:
            return np.zeros(size)
        return np.random.default_rng(self.calls).uniform(low, high, size)


class TestSamplePlacement:
    def test_redraws_until_well_positioned(self):
        g, space = wheel_graph(5), LqSpace(2, 3.0)
        for bad in (0, 1, _RESAMPLE_BUDGET - 1):
            rng = OriginFirst(bad)
            p, m = _sample(g, space, rng)
            assert rng.calls == bad + 1 and p.well_positioned(g)
            assert np.array_equal(m.entries, rigidity_matrix(g, p, space).entries)
            assert np.array_equal(sample_placement(g, space, OriginFirst(bad)).coords, p.coords)

    def test_budget(self):
        rng = OriginFirst(_RESAMPLE_BUDGET)
        with pytest.raises(RuntimeError, match="well-positioned"):
            sample_placement(wheel_graph(5), LqSpace(2, 3.0), rng)
        assert rng.calls == _RESAMPLE_BUDGET == 64


class TestVerdict:
    def test_wheel_minimally_rigid(self):
        for q in (1.5, 3.0):
            vd = verdict(wheel_graph(5), LqSpace(2, q), seed=0)
            assert vd.minimally_rigid and vd.independent and vd.rigid
            assert vd.stress_dim == 0 and vd.target_rank == 8

    def test_k5_dependent(self):
        vd = verdict(complete_graph(5), LqSpace(2, 1.5), seed=0)
        assert not vd.independent
        assert vd.rank == 8 and vd.stress_dim == 2

    def test_octahedron_independent_not_rigid(self):
        vd = verdict(octahedron(), LqSpace(3, 3.0), seed=0)
        assert vd.independent and not vd.rigid
        assert vd.rank == 12 and vd.target_rank == 15

    def test_euclidean_flag_changes_target(self):
        # K3 is minimally rigid in the Euclidean plane but not for q != 2
        g = complete_graph(3)
        assert verdict(g, LqSpace(2, 2.0), seed=0).minimally_rigid
        vd = verdict(g, LqSpace(2, 3.0), seed=0)
        assert vd.independent and not vd.rigid

    def test_verdict_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            g = complete_graph(n)
            vd = verdict(g, LqSpace(2, 1.5), trials=4, seed=int(rng.integers(100)))
            assert vd.minimally_rigid == (vd.independent and vd.rigid)
            assert vd.stress_dim == g.m - vd.rank


class TestCokernel:
    def test_wheel_regular_no_stress(self):
        m = rigidity_matrix(wheel_graph(5), wheel_placement(), LqSpace(2, 3.0))
        assert cokernel_basis(m).shape == (0, 8)

    def test_k5_two_stresses(self):
        g = complete_graph(5)
        space = LqSpace(2, 3.0)
        res = max_rank_sample(g, space, seed=5)
        m = rigidity_matrix(g, res.witness, space)
        basis = cokernel_basis(m)
        assert basis.shape == (2, 10)
        assert np.allclose(basis @ m.entries, 0, atol=1e-9)
        assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-9)

    def test_rejects_bad_tol(self):
        m = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]
        assert cokernel_basis(m).shape == (1, 2)
        for rel_tol in (0.0, -1.0):
            with pytest.raises(ValueError, match="rel_tol"):
                cokernel_basis(m, rel_tol=rel_tol)
            with pytest.raises(ValueError, match="rel_tol"):
                cokernel_basis(np.zeros((2, 3)), rel_tol=rel_tol)

    def test_degenerate_shapes(self):
        assert cokernel_basis(np.zeros((0, 4))).shape == (0, 0)
        assert np.array_equal(cokernel_basis(np.zeros((3, 0))), np.eye(3))
        assert np.array_equal(cokernel_basis(np.zeros((3, 4))), np.eye(3))

    def test_degenerate_wheel_has_stress(self):
        for q in (1.5, 3.0):
            m = rigidity_matrix(wheel_graph(5), wheel_degenerate_placement(), LqSpace(2, q))
            assert cokernel_basis(m).shape[0] >= 1
