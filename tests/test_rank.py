from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lqrig import rank
from lqrig.geometry import LqSpace, Placement, _edge_differences, rigidity_matrix
from lqrig.graphs import Graph, complete_graph, count_basis, count_rank, path_graph, wheel_graph
from lqrig.operations import henneberg_generate, random_degree_bounded_sparse
from lqrig.surfaces import SPHERE, generate_triangulation
from lqrig.oracles import (
    wheel_corner_submatrix,
    wheel_degenerate_placement,
    wheel_placement,
)
from lqrig.rank import (
    _INVERSE_ROWS,
    _RESAMPLE_BUDGET,
    DEFAULT_REL_TOL,
    _Cell,
    _altered,
    _certify,
    _entry_error,
    _equilibrate,
    _gamma,
    _identity_slab,
    _inverse_bound,
    _normal_entries,
    _positive_definite,
    _sample,
    _shift,
    _shift_terms,
    _slab_width,
    _square_basis,
    _verified_inverse,
    cokernel_basis,
    max_rank_sample,
    max_rank_samples,
    numerical_rank,
    sample_placement,
    verdict,
)

from bruteforce import BRUTE_CAP, all_graphs, brute_count_rank, exact_rank


def octahedron() -> Graph:
    missing = {(0, 1), (2, 3), (4, 5)}
    return Graph(6, [e for e in complete_graph(6).edges if e not in missing])


def k5_plus_isolated() -> Graph:
    """Rank 8 in l_q^2, below min(10, 2*6 - 2) = 10 and at its count rank 8."""
    return Graph(6, complete_graph(5).edges)


def k4_plus_isolated() -> Graph:
    """Rank 5 in the Euclidean plane, below its count rank 6 = |E|."""
    return Graph(5, complete_graph(4).edges)


def cell_at(g, space, p, ceiling, rel_tol=DEFAULT_REL_TOL):
    """A verdict's cell whose current draw is p, at the given ceiling."""
    cell = _Cell(g, space, 0, rel_tol)
    cell.ceiling, cell.draw = ceiling, (p, _edge_differences(g, p.coords)[0])
    return cell


def certificate(g, space, p, ceiling, rel_tol=DEFAULT_REL_TOL):
    """Whether the Gram certificate of `max_rank_sample` passes at p, taken
    as the loop takes it, before any SVD."""
    return _certify([cell_at(g, space, p, ceiling, rel_tol)])[0]


def inverse_certificate(g, space, p, ceiling):
    """Whether the verified inverse of `max_rank_sample` passes at p, taken
    as the loop takes it after a failed Gram certificate."""
    return _verified_inverse(cell_at(g, space, p, ceiling))


def reference_trials(g, space, trials, seed, rel_tol=DEFAULT_REL_TOL):
    """(rank, placement, cutoff) of every trial of the one-placement-at-a-time
    loop; the number of trials up to the first certified at the ceiling
    min(|E|, target rank, count rank), the count rank found by brute
    force, or else up to the second that reaches it; and the certificate
    that ended the run: "gram", "inverse" or None.  Every trial takes its
    SVD first.  A Gram pass must be a trial whose SVD keeps the ceiling; a
    trial with no Gram pass that passes the verified inverse has the
    ceiling as its rank, whatever its SVD keeps.  Above the brute-force cap
    the count rank is `graphs.count_rank`'s."""
    count = brute_count_rank(g, space.d) if g.n <= BRUTE_CAP else count_rank(g, space.d)
    ceiling = min(g.m, space.target_rank(g.n), count)
    out, cut, certified = [], None, None
    for i in range(trials):
        p = sample_placement(g, space, np.random.default_rng([seed, i]))
        res = numerical_rank(rigidity_matrix(g, p, space), rel_tol)
        rank = res.rank
        if cut is None:
            if certificate(g, space, p, ceiling, rel_tol):
                assert rank >= ceiling, (g.edges, space, seed, i)
                certified = "gram"
            elif inverse_certificate(g, space, p, ceiling):
                rank, certified = ceiling, "inverse"
        out.append((rank, p, res.tolerance_used))
        if cut is None and (certified or sum(r >= ceiling for r, _, _ in out) == 2):
            cut = i + 1
    return out, cut or trials, certified


def exact_row(g, p, d, edge):
    """The altered row of `edge` at q = 3 in Fractions: sgn(x) x^2 = x |x|
    of the exact differences x of p's float coordinates."""
    v, w = edge
    row = [Fraction(0)] * (d * g.n)
    for k in range(d):
        x = Fraction(float(p.coords[v, k])) - Fraction(float(p.coords[w, k]))
        row[d * v + k], row[d * w + k] = x * abs(x), -x * abs(x)
    return row


class TestNumericalRank:
    def test_identity(self):
        res = numerical_rank(np.eye(3))
        # equilibrated to 0.5 I: nothing below the cutoff
        assert res.rank == 3 and res.smallest_kept == 0.5 and res.largest_dropped is None

    def test_zero(self):
        res = numerical_rank(np.zeros((4, 5)))
        assert res.rank == 0 and res.smallest_kept is None and res.largest_dropped == 0.0

    @pytest.mark.parametrize("shape", [(3, 3), (4, 5)], ids=["3x3", "4x5"])
    def test_zero_has_no_gap(self, shape):
        # every singular value is 0, so the cutoff is 0 and there is no ratio
        res = numerical_rank(np.zeros(shape))
        assert res.tolerance_used == 0 and res.sv_gap == (None, None)

    def test_empty(self):
        assert numerical_rank(np.zeros((0, 5))).rank == 0

    def test_wheel_corner_submatrix_q3(self):
        # det M = 2^{q-1} - 2 = 2 at q = 3, so full rank 8
        res = numerical_rank(wheel_corner_submatrix(3.0))
        assert res.rank == 8

    def test_rank_counts_singular_values(self):
        a = np.diag([1.0, 1e-3, 0.0])
        res = numerical_rank(a)
        # the rows are scaled by 2^-1 and 2^9 before the SVD
        sv = np.linalg.svd(np.diag([0.5, 1e-3 * 2.0**9, 0.0]), compute_uv=False)
        assert res.rank == np.count_nonzero(sv > res.tolerance_used) == 2
        assert res.tolerance_used == 1e-10 * sv.max() * 3
        assert (res.smallest_kept, res.largest_dropped) == (sv[1], 0.0)
        assert res.sv_gap == (sv[1] / res.tolerance_used, 0.0)

    def test_rank_of_equilibrated_matrix(self):
        # The rows are 2^-60 apart in size: the second is below the unscaled
        # cutoff, but after row scaling both singular values are 0.5.
        a = np.diag([1.0, 2.0**-60, 0.0])
        res = numerical_rank(a)
        assert res.rank == 2 and res.tolerance_used == 1e-10 * 0.5 * 3
        assert np.array_equal(a, np.diag([1.0, 2.0**-60, 0.0]))

    def test_overwrite_equilibrates_in_place(self):
        a = np.array([[4.0, -1.0], [2.0, 0.0], [0.0, 0.0]])
        assert numerical_rank(a.copy()) == numerical_rank(a, overwrite=True)
        # rows by 2^-3 and 2^-2, then the second column by 2^2
        assert np.array_equal(a, [[0.5, -0.5], [0.5, 0.0], [0.0, 0.0]])

    def test_rejects_nonfinite(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                numerical_rank(np.array([[1.0, bad]]))
            with pytest.raises(ValueError, match="non-finite"):
                numerical_rank(np.array([[0.0, 1.0], [bad, 0.0]]).T, overwrite=True)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            numerical_rank(np.eye(2), rel_tol=0.0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_power_of_two_row_scaling_is_invisible(data):
    # Equilibration makes each row's largest |entry| a mantissa in
    # [0.5, 1), which scaling the row by 2^k does not change; so the
    # equilibrated matrix, its rank and cutoff are the same bits.  Columns
    # may all be scaled by one common power of two (a placement scaled by
    # 2^k at integer q, for one).  Distinct column factors move the row
    # maxima, and a row-then-column pass then picks other scales.
    n = data.draw(st.integers(2, 7), label="n")
    d = data.draw(st.integers(1, 3), label="d")
    q = data.draw(st.sampled_from([1.5, 3.0, 6.0, 10.0]), label="q")
    g = Graph(n, data.draw(st.sets(st.sampled_from(complete_graph(n).edges), min_size=1)))
    space = LqSpace(d, q)
    p = sample_placement(g, space, np.random.default_rng(data.draw(st.integers(0, 99))))
    m = rigidity_matrix(g, p, space)
    exps = st.integers(-60, 60)
    rows = np.array(data.draw(st.lists(exps, min_size=g.m, max_size=g.m), label="rows"))
    common = data.draw(exps, label="columns")
    scaled = np.ldexp(m.entries, rows[:, None] + common)
    assert numerical_rank(scaled) == numerical_rank(m)


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_equilibrate_is_idempotent(a):
    # A certificate equilibrates a trial's matrix before its SVD; when it
    # fails, `numerical_rank` equilibrates a fresh copy, which must give
    # the same bits a second pass over the first would.
    once = a.copy()
    _equilibrate(once)
    twice = once.copy()
    _equilibrate(twice)
    assert np.array_equal(once, twice)


class SvdCounter:
    """Stand-in for np.linalg.svd that counts its calls."""

    def __init__(self, monkeypatch):
        self.calls, self._svd = 0, np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", self)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._svd(*args, **kwargs)


class TestMaxRankSample:
    @pytest.mark.parametrize(
        "read", ["tolerance_used", "sv_gap", "witness_svd_rank", "to_json_dict"]
    )
    def test_certified_first_trial_takes_svd_on_read(self, read, monkeypatch):
        # A first trial certified before its SVD takes none; the witness's
        # SVD runs when its cutoff or gap is first read, and only once.
        g, space = wheel_graph(5), LqSpace(2, 3.0)
        counter = SvdCounter(monkeypatch)
        res = max_rank_sample(g, space, seed=0)
        assert res.trial_ranks == (8,) and res.certified and res.independent
        assert counter.calls == 0
        value = getattr(res, read)
        if read == "to_json_dict":
            value = value()
        assert counter.calls == 1
        witness = numerical_rank(rigidity_matrix(g, res.witness, space))
        assert (res.tolerance_used, res.sv_gap) == (witness.tolerance_used, witness.sv_gap)
        assert res.to_json_dict()["tolerance_used"] == witness.tolerance_used
        # A Gram pass keeps the witness's SVD at the rank.
        assert res.witness_svd_rank == witness.rank == res.rank
        assert counter.calls == 2  # the reference above, and no second read

    def test_certified_on_all_rows_plays_no_pebble_game(self):
        # The count rank is computed only once a certificate fails.
        g = wheel_graph(5)
        assert max_rank_sample(g, LqSpace(2, 3.0), seed=0).certified
        assert g._games == {}

    @pytest.mark.parametrize(
        "case, svds",
        [
            # K5 in l_q^2: |E| = 10 above the target rank 8, certified on
            # the rows of its count basis.
            ((complete_graph(5), LqSpace(2, 1.5), 0), 0),
            # Fails on all 10 rows, then passes on its count basis of 8.
            ((k5_plus_isolated(), LqSpace(2, 1.5), 6), 0),
            # The graphs of the two high-q tests below: the Gram fails at
            # the first trial and the verified inverse passes.
            ((henneberg_generate(3, 10, 1016164991)[0], LqSpace(3, 10.0), 1667914287), 0),
            ((henneberg_generate(3, 30, 629145196)[0], LqSpace(3, 10.0), 904496091), 0),
            # Both fail at the first trial, which takes its SVD (rank 32
            # of 33), and one passes at the second.
            ((henneberg_generate(3, 12, 27)[0], LqSpace(3, 10.0), 27), 1),
            # K4 in the Euclidean plane has no count basis of its rank 5.
            ((complete_graph(4), LqSpace(2, 2.0), 1), 2),
        ],
        ids=["k5", "k5_plus_isolated", "henneberg10", "henneberg30", "henneberg12", "k4_euclidean"],
    )
    def test_one_svd_per_uncertified_trial(self, case, svds, monkeypatch):
        # A trial takes its SVD only when its certificate fails, and the
        # verdict's cutoff takes at most the witness's.
        g, space, seed = case
        counter = SvdCounter(monkeypatch)
        res = max_rank_sample(g, space, seed=seed)
        assert counter.calls == len(res.trial_ranks) - res.certified == svds
        res.to_json_dict()
        assert counter.calls - svds <= 1

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
        # Below min(|E|, target rank) = 10, but at the count rank 8, and
        # certified on the rows of the greedy count basis.
        res = max_rank_sample(k5_plus_isolated(), LqSpace(2, 1.5), trials=8, seed=6)
        assert res.trial_ranks == (8,) and res.rank == 8 and res.certified and res.stable

    def test_target_below_count_rank_is_not_certified(self):
        # K4 in the Euclidean plane: rank 5 = target rank, below its count
        # rank 6 = |E|, so no count basis has the trial's size and the
        # two-trial rule decides.
        res = max_rank_sample(complete_graph(4), LqSpace(2, 2.0), trials=8, seed=1)
        assert res.trial_ranks == (5, 5) and not res.certified and res.stable

    @pytest.mark.parametrize("q", [1.5, 3.0, 6.0, 10.0])
    def test_no_trial_exceeds_count_rank(self, q):
        # The early exit at the count rank is sound only if no sampled
        # placement's rank exceeds it.
        for n in range(2, 6):
            for g in all_graphs(n):
                for d in (1, 2, 3):
                    space = LqSpace(d, q)
                    for i in range(2):
                        p = sample_placement(g, space, np.random.default_rng([n, d, i]))
                        m = rigidity_matrix(g, p, space)
                        assert numerical_rank(m).rank <= count_rank(g, d), (g.edges, d)

    @pytest.mark.parametrize("trials", [1, 2, 3, 8])
    def test_matches_reference_loop(self, trials):
        # The reference takes every SVD before its certificates, so a trial
        # that the Gram certifies before its SVD must be one that the SVD at
        # the same placement keeps at the ceiling, at every rel_tol.  K7 at
        # d = 1 has |E| = 21 rows far above its count basis of 6 edges,
        # which is square once vertex 0's column is dropped, as W5's 8 rows
        # are in the plane.
        cases = [
            (wheel_graph(5), LqSpace(2, 3.0)),
            (complete_graph(5), LqSpace(3, 1.5)),
            (octahedron(), LqSpace(3, 3.0)),
            (path_graph(3), LqSpace(2, 2.5)),
            (complete_graph(3), LqSpace(2, 2.0)),
            (k5_plus_isolated(), LqSpace(2, 6.0)),
            (complete_graph(7), LqSpace(1, 3.0)),
        ]
        methods = Counter()
        for (g, space), seed, rel_tol in product(cases, (0, 7), (DEFAULT_REL_TOL, 1e-6, 1e-3)):
            ref, cut, certified = reference_trials(g, space, trials, seed, rel_tol)
            methods[certified] += 1
            ranks = [r for r, _, _ in ref]
            top = ranks.index(max(ranks))
            res = max_rank_sample(g, space, trials=trials, seed=seed, rel_tol=rel_tol)
            # The early exit keeps a prefix and the full loop's verdict,
            # which a certificate makes stable.
            assert res.trial_ranks == tuple(ranks[:cut]) and res.certified == bool(certified)
            assert res.rank == ranks[top]
            assert res.stable == (bool(certified) or ranks.count(res.rank) >= 2)
            assert res.tolerance_used == ref[top][2]
            assert np.array_equal(res.witness.coords, ref[top][1].coords)
        # At rel_tol 1e-3 the Gram's shift covers a cutoff too large for
        # some square bases, which the inverse then proves.
        assert methods["gram"] > 0 and methods["inverse"] > 0 and methods[None] > 0

    def test_high_q_tight_graph_independent(self):
        # A (3,3)-tight graph, so independent for q != 2.  Without
        # equilibration the cutoff dropped rows of small (q-1)-th powers:
        # trial ranks (24, 26, 22, 24, 25, 26, 26, 26), a stable rank 26.
        # The first trial's smallest singular value, about 1.2e-7, is too
        # close to the rounding for the Gram certificate, which needs about
        # kappa^2 |B| u < 1; the verified inverse needs kappa |B| u < 1.
        g = henneberg_generate(3, 10, 1016164991)[0]
        res = verdict(g, LqSpace(3, 10.0), seed=1667914287)
        assert res.trial_ranks == (27,) and res.independent and res.certified
        assert res.witness_svd_rank == 27

    def test_certified_at_the_one_trial_at_full_rank(self):
        # A (3,3)-tight graph at q = 10 whose SVDs reach |E| = 87 only once
        # in eight trials: (86, 86, 85, 87, 86, 86, 86, 86).  With two
        # trials, two SVDs agreed on a stable, wrong rank 86, which read as
        # a candidate counterexample.  The verified inverse proves the
        # first trial at 87, though its SVD keeps 86, and that placement
        # stays the witness.
        g = henneberg_generate(3, 30, 629145196)[0]
        res = verdict(g, LqSpace(3, 10.0), trials=2, seed=904496091)
        assert res.trial_ranks == (87,) and res.rank == g.m == 87
        assert res.certified and res.stable and res.independent
        assert res.witness_svd_rank == res.to_json_dict()["witness_svd_rank"] == 86

    def test_certified_above_512_rows(self):
        # A 200-vertex tight graph in l_q^3 has a 597-row basis.  Its one
        # trial fails the Gram certificate, and the SVD keeps 596 rows: a
        # candidate counterexample.  The inverse, solved in two slabs,
        # proves 597.
        g = henneberg_generate(3, 200, 1099128569)[0]
        res = max_rank_sample(g, LqSpace(3, 1.5), trials=1, seed=535214420)
        assert res.trial_ranks == (597,) and res.certified and res.independent
        assert res.witness_svd_rank == 596

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            max_rank_sample(wheel_graph(5), LqSpace(2, 3.0), trials=0)

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-10, np.nan])
    def test_rel_tol_validation(self, rel_tol):
        # checked at entry, as trials is, not when the verdict's cutoff is read
        g, space = complete_graph(4), LqSpace(2, 3.0)
        with pytest.raises(ValueError, match="rel_tol must be positive"):
            max_rank_sample(g, space, rel_tol=rel_tol)
        with pytest.raises(ValueError, match="rel_tol must be positive"):
            max_rank_samples([(g, space, 0)], rel_tol=rel_tol)


def beside(a: Graph, b: Graph) -> Graph:
    """The disjoint union of a and b, b's vertices numbered after a's."""
    return Graph(a.n + b.n, list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges])


class OriginOnce:
    """Generator wrapper whose first draw puts every vertex at the origin."""

    def __init__(self, rng):
        self.rng, self.first = rng, True

    def uniform(self, low, high, size):
        if self.first:
            self.first = False
            return np.zeros(size)
        return self.rng.uniform(low, high, size)


def mixed_cells():
    """(graph, space, seed) cells of several shapes, d and q, in shuffled
    order: tight graphs stacked with the two high-q graphs below, which the
    verified inverse proves after a failed Gram certificate; a third,
    whose first trial takes its SVD and whose second is certified; two
    K8s beside a sphere triangulation, whose ceilings drop to the count
    rank; K5, certified on a count basis from the start; and K4 in the
    Euclidean plane, never certified."""
    sphere = [generate_triangulation(SPHERE, 9, s)[0].graph for s in (0, 1)]
    tight = [henneberg_generate(3, 10, s)[0] for s in range(3)]
    tight += [random_degree_bounded_sparse(3, 9, s) for s in range(3)]
    k8 = [beside(generate_triangulation(SPHERE, 8, s)[0].graph, complete_graph(8)) for s in (0, 1)]
    cells = [
        (g, LqSpace(3, q), seed)
        for seed, g in enumerate(sphere + tight + k8)
        for q in (1.5, 3.0, 10.0)
    ]
    plane = (wheel_graph(5), complete_graph(5))
    cells += [(g, LqSpace(2, q), 3) for g in plane for q in (1.5, 3.0)]
    cells += [
        (complete_graph(4), LqSpace(2, 2.0), 1),
        (henneberg_generate(3, 10, 1016164991)[0], LqSpace(3, 10.0), 1667914287),
        (henneberg_generate(3, 30, 629145196)[0], LqSpace(3, 10.0), 904496091),
        (henneberg_generate(3, 12, 27)[0], LqSpace(3, 10.0), 27),
    ]
    return [cells[i] for i in np.random.default_rng(0).permutation(len(cells))]


class TestMaxRankSamples:
    @pytest.mark.parametrize("trials", [1, 8])
    def test_matches_one_call_per_cell(self, trials, monkeypatch):
        # Stacking changes no verdict.  Every draw for the three cells of
        # the sphere triangulation with seed 0 first puts all its vertices
        # at the origin, is coincident, and is drawn again from the same
        # generator.
        cells = mixed_cells()
        real, redrawn = np.random.default_rng, []

        def seeded(key):
            if key[0] != 0:
                return real(key)
            redrawn.append(key)
            return OriginOnce(real(key))

        monkeypatch.setattr(np.random, "default_rng", seeded)
        got = max_rank_samples(cells, trials)
        stacked = len(redrawn)
        assert stacked > 0
        for (g, space, seed), vd in zip(cells, got):
            want = max_rank_sample(g, space, trials, seed)
            assert (vd.rank, vd.trial_ranks, vd.certified) == (
                want.rank, want.trial_ranks, want.certified
            )
            assert np.array_equal(vd.witness.coords, want.witness.coords)
            assert vd.witness.well_positioned(g)
            assert vd.tolerance_used == want.tolerance_used
        # The three q cells of each graph share each trial's draw.
        assert 3 * stacked == len(redrawn) - stacked
        # The mix covers what it claims.
        lowered = [vd for (g, _, _), vd in zip(cells, got) if g.n == 16]
        assert len(lowered) == 6 and all(vd.rank == vd.target_rank - 6 for vd in lowered)
        assert sum(vd.certified for vd in lowered) >= 5
        assert any(not vd.certified for vd in got)
        if trials > 1:
            assert any(vd.certified and len(vd.trial_ranks) > 1 for vd in got)

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            max_rank_samples([(wheel_graph(5), LqSpace(2, 3.0), 0)], trials=0)
        with pytest.raises(ValueError, match="seed"):
            max_rank_samples([(wheel_graph(5), LqSpace(2, 3.0), -1)])
        assert max_rank_samples([]) == []


class TestCertificate:
    def test_refuses_exactly_deficient_basis(self):
        # The rows of a cycle in l_q^1 are exactly dependent at every
        # placement, as row vw is a multiple of e_v - e_w.  At some
        # placements a Cholesky of their rounded Gram matrix passes all the
        # same; the shift, even at its smallest trace and with no cutoff
        # term (rel_tol 0), must refuse them.
        g, space = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), LqSpace(1, 3.0)
        s = _shift(_shift_terms(g, space, 0.0), 5, 5 / 4)
        passed = 0
        for seed in range(100):
            m = rigidity_matrix(g, sample_placement(g, space, np.random.default_rng(seed)), space)
            assert numerical_rank(m, overwrite=True).rank == 4
            b = m.entries
            if _positive_definite((b @ b.T)[None], np.zeros(1)) == [True]:
                passed += 1
                assert _positive_definite((b @ b.T)[None], np.array([s])) == [False]
        assert passed > 0

    def test_refuses_entries_near_underflow(self, monkeypatch):
        # |x|^9 of a difference x = 2^-150 is 2^-1350, which would underflow
        # to zero at q = 10; at q = 3 it is 2^-300, a normal double.
        g = complete_graph(3)
        p = Placement(2, [[0.0, 0.0], [2.0**-150, 0.5], [-0.5, 0.25]])
        diffs = _edge_differences(g, p.coords)[0][None]
        assert _normal_entries(diffs, 3.0) == [True] and _normal_entries(diffs, 10.0) == [False]
        m = rigidity_matrix(g, p, LqSpace(2, 10.0))
        assert numerical_rank(m, overwrite=True).rank == 3
        # In a stack, the guard drops that cell and keeps the other.
        cells = [_Cell(g, LqSpace(2, 10.0), 0, DEFAULT_REL_TOL) for _ in range(3)]
        fine = Placement(2, [[0.0, 0.0], [1.0, 0.5], [-0.5, 0.25]])
        for c, at in zip(cells, (fine, p, fine)):
            c.draw = (at, _edge_differences(g, at.coords)[0])
        assert _certify(cells) == [True, False, True]
        # The ceiling |E| = 3 has a count basis: only the guard refuses,
        # with no Cholesky.
        factored = []
        monkeypatch.setattr(np.linalg, "cholesky", factored.append)
        assert not certificate(g, LqSpace(2, 10.0), p, 3) and not factored
        assert certificate(g, LqSpace(2, 3.0), p, 3) and len(factored) == 1

    def test_sound_on_small_graphs(self):
        # At q = 3 an entry sgn(x) x^2 is exact in Fractions of the float
        # coordinates, so each basis certified before any SVD, as the loop
        # takes it, can be checked for full rank.  Graphs of every class up
        # to 6 vertices, d = 1-3: many are dependent, and their certificates
        # run on a greedy count basis.
        certified = Counter()
        for n in range(2, 7):
            for g in all_graphs(n):
                for d in (1, 2, 3):
                    space = LqSpace(d, 3.0)
                    p = sample_placement(g, space, np.random.default_rng([n, d, g.m]))
                    ceiling = min(g.m, space.target_rank(n), count_rank(g, d))
                    if not certificate(g, space, p, ceiling):
                        continue
                    rows = range(g.m) if ceiling == g.m else count_basis(g, d)
                    exact = [exact_row(g, p, d, g.edges[i]) for i in rows]
                    assert exact_rank(exact) == len(exact) == ceiling, (g.edges, d)
                    certified[ceiling < g.m] += 1
        assert certified[True] > 100 and certified[False] > 100


def tree(n, rng):
    """A random tree on n vertices: (1,1)-tight."""
    return Graph(n, [(int(rng.integers(0, v)), v) for v in range(1, n)])


def integer_placement_outcomes():
    """(exact full rank, inverse passed) of tight graphs at q = 3 and
    integer coordinates in [-2, 2], where every altered entry x|x| is a
    small integer, exact in floats and in Fractions, and many placements
    make the rows exactly dependent."""
    rng = np.random.default_rng(0)
    outcome = Counter()
    for d, sizes in ((1, range(3, 8)), (2, range(4, 9)), (3, range(6, 10))):
        space = LqSpace(d, 3.0)
        for n, s in product(sizes, range(12)):
            g = tree(n, rng) if d == 1 else henneberg_generate(d, n, s)[0]
            for _ in range(8):
                p = Placement(d, rng.integers(-2, 3, size=(n, d)).astype(float))
                if not p.well_positioned(g):
                    continue
                full = exact_rank([exact_row(g, p, d, e) for e in g.edges]) == g.m
                passed = inverse_certificate(g, space, p, g.m)
                assert full or not passed, (g.edges, p.coords.tolist())
                outcome[full, passed] += 1
    return outcome


class TestVerifiedInverse:
    def test_sound_on_integer_placements(self):
        # A pass must mean full rank of the exact rows; the dependent ones,
        # over 200 of them, must all be refused.
        outcome = integer_placement_outcomes()
        assert outcome[False, False] >= 200 and outcome[True, True] >= 200

    def test_sound_in_slabs(self, monkeypatch):
        # The same corpus with every basis (2 to 27 rows) solved in two
        # column slabs.
        sizes, solve = [], np.linalg.solve
        monkeypatch.setattr(rank, "_INVERSE_ROWS", 1)
        monkeypatch.setattr(
            np.linalg, "solve", lambda a, b: sizes.append((len(a), b.shape[1])) or solve(a, b)
        )
        outcome = integer_placement_outcomes()
        assert outcome[False, False] >= 200 and outcome[True, True] >= 200
        assert sizes and all(cols < rows for rows, cols in sizes)

    @pytest.mark.parametrize("width", [25, 7, 1])
    def test_slabs_bound_as_one(self, width, monkeypatch):
        # Over column slabs of one X the bound adds up the same terms as
        # over all columns at once, in another order.  Here every sum is
        # exact: b is a random integer matrix near 8I, and X its inverse
        # rounded to multiples of 2^-30, so the residual is not 0.  The
        # bound must then be the same, whatever the width.  (Real solves of
        # narrower slabs may round X otherwise, and the residual, made of
        # rounding errors, with it.)
        rng = np.random.default_rng(width)
        for _ in range(10):
            b = 8 * np.eye(50) + rng.integers(-1, 2, (50, 50))
            x = np.round(np.linalg.inv(b) * 2.0**30) / 2.0**30
            bounds = []
            for w in (50, width):
                with monkeypatch.context() as m:
                    m.setattr(rank, "_slab_width", lambda k: w)
                    m.setattr(np.linalg, "inv", lambda a: x.copy())
                    m.setattr(np.linalg, "solve", lambda a, eye: x @ eye)
                    bounds.append(_inverse_bound(b.copy(), 3.0))
            whole, slabbed = bounds
            assert _gamma(50) < whole < 1 and slabbed == whole

    def test_refuses_a_singular_matrix_within_the_entry_error(self):
        # At q = 10 a built entry may be off by eps = _entry_error(10),
        # about 11u, relative.  b is nonsingular and its computed residual
        # is small, but the all-ones matrix lies within eps |b| and is
        # singular, so the bound must not fall below 1.  At q = 3 eps is
        # below delta, no singular matrix is that close, and b passes.
        delta = 5 * 2.0**-52
        b = np.array([[1 + delta, 1 - delta], [1 - delta, 1 + delta]])
        assert Fraction(delta) <= Fraction(_entry_error(10.0)) * Fraction(1 - delta)
        assert Fraction(delta) > Fraction(_entry_error(3.0))
        assert _inverse_bound(b.copy(), 10.0) >= 1
        assert _inverse_bound(b.copy(), 3.0) < 1

    @pytest.mark.parametrize("k", [1, 64, _INVERSE_ROWS, 600])
    def test_bound_keeps_the_a_priori_terms(self, k):
        # The computed residual of 0.5 I and its inverse 2 I is exactly 0,
        # which proves nothing of the exact products: the bound keeps
        # (gamma_k + eps) || |b||X| ||_inf, here gamma_k + eps, for the
        # rounding of fl(b X) and of the built entries.  At 600 rows X is
        # solved in two slabs.
        for q in (1.5, 3.0, 10.0):
            bound = _inverse_bound(0.5 * np.eye(k), q)
            assert _gamma(k) + _entry_error(q) <= bound < 1

    def test_refuses_a_failed_inverse(self):
        # LAPACK finds the zero pivot; 1 / 2^-1070 overflows.
        assert _inverse_bound(np.zeros((3, 3)), 3.0) == np.inf
        assert _inverse_bound(np.array([[2.0**-1070]]), 3.0) == np.inf

    def test_refuses_entries_near_underflow(self, monkeypatch):
        # As for the Gram, no inverse is tried where an entry could be
        # subnormal: |x|^9 of x = 2^-150 underflows at q = 10.  The path on
        # 3 vertices is (1,1)-tight, with 2 rows.
        inverted, inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
        g, p = path_graph(3), Placement(1, [[0.0], [2.0**-150], [0.5]])
        assert not inverse_certificate(g, LqSpace(1, 10.0), p, 2) and not inverted
        assert inverse_certificate(g, LqSpace(1, 3.0), p, 2) and len(inverted) == 1

    def test_slabs_above_the_cap(self, monkeypatch):
        # Up to 512 rows X is one slab of all columns, taken by numpy's
        # inv; above, it is solved in slabs of at most `_slab_width`
        # columns.  A 171-vertex tight graph in l_q^3 has 510 rows, a
        # 172-vertex one 513; at q = 10 the Gram fails on both and the
        # inverse is tried.
        assert _slab_width(510) == 510 and _slab_width(513) == 257
        sizes, inv, solve = [], np.linalg.inv, np.linalg.solve
        monkeypatch.setattr(np.linalg, "inv", lambda a: sizes.append(("inv", *a.shape)) or inv(a))
        monkeypatch.setattr(
            np.linalg, "solve", lambda a, b: sizes.append(("solve", *b.shape)) or solve(a, b)
        )
        for n in (171, 172):
            g = henneberg_generate(3, n, 0)[0]
            max_rank_sample(g, LqSpace(3, 10.0), trials=1, seed=0)
        assert sizes == [("inv", 510, 510), ("solve", 513, 257), ("solve", 513, 256)]

    def test_identity_slab_solves_as_inv(self):
        # The slab is a view of k + w - 1 doubles with the entries of the
        # identity's columns j to j + w; all k columns solve as inv does.
        rng = np.random.default_rng(1)
        for k in (1, 2, 64, 357):
            b = rng.standard_normal((k, k))
            assert np.array_equal(np.linalg.solve(b, _identity_slab(k, 0, k)), np.linalg.inv(b))
            for j, w in ((0, 1), (k - 1, 1), (k // 3, k - k // 3)):
                assert np.array_equal(_identity_slab(k, j, w), np.eye(k, w, -j))

    @pytest.mark.parametrize("q", [1.5, 3.0, 10.0])
    def test_square_basis_is_the_equilibrated_rows(self, q):
        # _square_basis scales without |B| x |B| temporaries, exactly as
        # _equilibrate scales the basis rows without vertex 0's columns;
        # integer coordinates make some entries 0.
        rng = np.random.default_rng(int(q))
        compared = zeros = 0
        for d, n, s in ((1, 6, 0), (2, 9, 1), (3, 12, 2), (3, 40, 3)):
            g = tree(n, rng) if d == 1 else henneberg_generate(d, n, s)[0]
            space = LqSpace(d, q)
            for _ in range(4):
                for coords in (rng.uniform(-1, 1, (n, d)), rng.integers(-2, 3, (n, d)) * 1.0):
                    p = Placement(d, coords)
                    if not p.well_positioned(g):
                        continue
                    cell = cell_at(g, space, p, g.m)
                    rows = count_basis(g, d)
                    a = _altered([g], cell.draw[1][None], q)[0][np.asarray(rows), d:]
                    _equilibrate(a)
                    assert np.array_equal(_square_basis(cell, rows), a)
                    compared += 1
                    zeros += (cell.draw[1] == 0).any()
        assert compared >= 20 and zeros > 0


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
            p, diff = _sample(g, space, rng)
            assert rng.calls == bad + 1 and p.well_positioned(g)
            assert np.array_equal(diff, [p.coords[v] - p.coords[w] for v, w in g.edges])
            assert np.array_equal(sample_placement(g, space, OriginFirst(bad)).coords, p.coords)

    def test_endpoint_arrays_kept_per_graph(self):
        g, space = wheel_graph(5), LqSpace(2, 3.0)
        first = _sample(g, space, np.random.default_rng(0))[1]
        ends = g._ends
        assert np.array_equal(ends.T, g.edges) and not ends.flags.writeable
        second = _sample(g, space, np.random.default_rng(0))[1]
        assert g._ends is ends and np.array_equal(first, second)
        # a derived graph has other edges, so it makes its own
        assert g.with_edge(2, 4)._ends is None

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
        # 8 of 10 singular values kept, far from the cutoff on both sides
        kept, dropped = vd.sv_gap
        assert dropped < 1e-3 and kept > 1e3

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

    @pytest.mark.parametrize("q", [1.5, 3.0, 6.0, 10.0])
    def test_dimension_is_stress_dim(self, q):
        # The cokernel takes its rank from `numerical_rank`, so it has one
        # row per self-stress the verdict counts.
        wheel_k5 = Graph(10, list(wheel_graph(5).edges) + [(u + 5, v + 5) for u, v in complete_graph(5).edges])
        for g, d in ((complete_graph(5), 2), (k5_plus_isolated(), 2), (wheel_k5, 2), (complete_graph(7), 3)):
            space = LqSpace(d, q)
            v = verdict(g, space, seed=3)
            basis = cokernel_basis(rigidity_matrix(g, v.witness, space))
            assert v.stress_dim > 0 and basis.shape == (v.stress_dim, g.m)

    def test_degenerate_wheel_has_stress(self):
        for q in (1.5, 3.0):
            m = rigidity_matrix(wheel_graph(5), wheel_degenerate_placement(), LqSpace(2, q))
            assert cokernel_basis(m).shape[0] >= 1
