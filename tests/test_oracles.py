import numpy as np
import pytest

from lqrig.geometry import LqSpace, Placement, rigidity_matrix
from lqrig.graphs import complete_graph, wheel_graph
from lqrig.operations import brace, cone
from lqrig.oracles import (
    bracing_placement,
    circulant_det,
    circulant_matrix,
    cone_placement,
    k4_gamma_det,
    k4_gamma_matrix,
    k4_gamma_placement,
    k7_minus_k3_graph,
    k7k3_chain,
    k7k3_chain_from_matrix,
    k7k3_corner_submatrix,
    k7k3_detR,
    k7k3_f,
    k7k3_placement,
    power_gap,
    select_gamma,
    special_bracing_base,
    wheel_corner_submatrix,
    wheel_det,
)
from lqrig.rank import max_rank_sample, numerical_rank

Q_GRID = (1.5, 2.5, 3.0, 4.0)


class TestWheelOracle:
    def test_closed_form_values(self):
        assert wheel_det(2.0) == 0.0
        assert wheel_det(3.0) == 2.0

    @pytest.mark.parametrize("q", Q_GRID)
    def test_matches_numerical_determinant(self, q):
        num = np.linalg.det(wheel_corner_submatrix(q))
        assert np.isclose(num, wheel_det(q), rtol=1e-10, atol=1e-14)


class TestCirculantOracle:
    def test_euclidean_degeneracy(self):
        for d in range(2, 6):
            assert circulant_det(d, 2.0) == 0.0

    def test_small_value(self):
        assert np.isclose(circulant_det(2, 3.0), 0.75)

    @pytest.mark.parametrize("q", (1.5, 3.0, 4.0))
    def test_matches_numerical_determinant(self, q):
        for d in range(1, 9):
            num = np.linalg.det(circulant_matrix(d, q))
            assert np.isclose(num, circulant_det(d, q), rtol=1e-10, atol=1e-14)


class TestK4GammaOracle:
    def test_half_and_q3(self):
        assert np.isclose(k4_gamma_det(0.5, 3.0), -3.0 / 32.0)

    def test_euclidean_degeneracy(self):
        for gamma in (0.2, 0.5, 0.8):
            assert np.isclose(k4_gamma_det(gamma, 2.0), 0.0)

    def test_matrix_is_submatrix_of_altered(self):
        for q in Q_GRID:
            for gamma in (0.25, 1 / 3, 0.5, 0.75):
                mat = rigidity_matrix(
                    complete_graph(4), k4_gamma_placement(gamma), LqSpace(2, q)
                )
                assert np.allclose(mat.entries[:, 2:], k4_gamma_matrix(gamma, q))

    def test_matches_numerical_determinant(self):
        for q in Q_GRID:
            for gamma in (0.25, 1 / 3, 0.5, 0.75):
                num = np.linalg.det(k4_gamma_matrix(gamma, q))
                assert np.isclose(num, k4_gamma_det(gamma, q), rtol=1e-10)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            k4_gamma_det(0.0, 3.0)
        with pytest.raises(ValueError):
            k4_gamma_placement(1.0)


class TestK7K3Oracle:
    def test_graph_shape(self):
        g = k7_minus_k3_graph()
        assert g.n == 7 and g.m == 18

    def test_f_at_one(self):
        for q in Q_GRID:
            assert np.isclose(k7k3_f(1.0, q), 2 ** (q - 1) - 2)

    def test_f_domain(self):
        for q in (1.5, 3.0):
            assert k7k3_f(0.0, q) == 0.0
            for gamma in (-0.5, 1.5, float("nan"), float("inf"), 1e300):
                with pytest.raises(ValueError, match="gamma"):
                    k7k3_f(gamma, q)

    def test_gamma_half_is_always_a_root(self):
        for q in (1.3, 1.5, 2.5, 3.0, 4.7):
            assert abs(k7k3_f(0.5, q)) < 1e-12

    def test_selector_skips_half(self):
        for q in (1.5, 3.0):
            gamma = select_gamma(q)
            assert gamma != 0.5
            assert abs(k7k3_f(gamma, q)) > 1e-6

    def test_detR_zero_at_euclidean(self):
        for gamma in (0.25, 0.5, 0.75):
            assert np.isclose(k7k3_detR(gamma, 2.0), 0.0, atol=1e-13)

    def test_chain_M_matches_altered_submatrix(self):
        for q in (1.5, 3.0):
            gamma = select_gamma(q)
            chain = k7k3_chain(gamma, q)
            assert np.allclose(chain["M"], k7k3_corner_submatrix(gamma, q))

    def test_numeric_reduction_matches_displayed_chain(self):
        for q in (1.5, 3.0, 2.5):
            gamma = select_gamma(q)
            chain = k7k3_chain(gamma, q)
            reduced = k7k3_chain_from_matrix(chain["M"])
            for name in ("N", "O", "P", "Q", "R"):
                assert np.allclose(reduced[name], chain[name]), name

    def test_determinant_relations(self):
        # det Q = -det P as displayed; the paper's prose swaps the last
        # relation, the reduction actually gives det Q = (1 - 2^{q-1}) det R.
        for q in (1.5, 3.0):
            gamma = select_gamma(q)
            chain = k7k3_chain(gamma, q)
            det_o = np.linalg.det(chain["O"])
            det_p = np.linalg.det(chain["P"])
            det_q = np.linalg.det(chain["Q"])
            det_r = np.linalg.det(chain["R"])
            assert np.isclose(det_q, -det_p, rtol=1e-9)
            assert np.isclose(det_o, det_p, rtol=1e-9)
            assert np.isclose(det_q, (1 - 2 ** (q - 1)) * det_r, rtol=1e-9)

    def test_closed_form_matches_chain(self):
        for q in (1.5, 3.0):
            gamma = select_gamma(q)
            reduced = k7k3_chain_from_matrix(k7k3_chain(gamma, q)["M"])
            assert np.isclose(
                np.linalg.det(reduced["R"]), k7k3_detR(gamma, q), rtol=1e-9
            )

    def test_full_framework_rank_18(self):
        for q in (1.5, 3.0):
            gamma = select_gamma(q)
            assert abs(k7k3_detR(gamma, q)) > 1e-9
            m = rigidity_matrix(k7_minus_k3_graph(), k7k3_placement(gamma), LqSpace(3, q))
            assert numerical_rank(m).rank == 18

    def test_nonvanishing_at_selector(self):
        for q in (1.5, 3.0):
            gamma = select_gamma(q)
            assert abs(k4_gamma_det(gamma, q)) > 1e-9
            assert abs(k7k3_detR(gamma, q)) > 1e-9


class TestRankTracksClosedForms:
    def test_full_rank_iff_nonzero_determinant(self):
        # away from the Euclidean point, the numerical engine and the
        # closed forms must agree on full rank vs degeneracy
        for q in (1.5, 2.5, 3.0, 4.0):
            assert abs(wheel_det(q)) > 1e-9
            assert numerical_rank(wheel_corner_submatrix(q)).rank == 8
            for d in (2, 4):
                assert abs(circulant_det(d, q)) > 1e-9
                assert numerical_rank(circulant_matrix(d, q)).rank == d
            gamma = select_gamma(q)
            assert abs(k4_gamma_det(gamma, q)) > 1e-9
            assert numerical_rank(k4_gamma_matrix(gamma, q)).rank == 6
            # gamma = 1/2 kills det R for every q: the matrix must drop rank
            assert abs(k7k3_detR(0.5, q)) < 1e-9
            assert numerical_rank(k7k3_chain(0.5, q)["R"]).rank < 3

    def test_euclidean_point_degenerates(self):
        assert numerical_rank(wheel_corner_submatrix(2.0)).rank < 8
        assert numerical_rank(circulant_matrix(3, 2.0)).rank < 3
        assert numerical_rank(k4_gamma_matrix(0.4, 2.0)).rank < 6


class TestBracingWitness:
    def test_k2_quoted_coordinates(self):
        p = Placement(1, [[0.0], [1.0]])
        out = bracing_placement(complete_graph(2), p, lam=1.0)
        assert out.d == 2 and out.n == 4
        assert np.allclose(out.coords[2], [0.0, -1.0])
        assert np.allclose(out.coords[3], [1.0, 1.0])

    def test_special_base_coordinates(self):
        p = special_bracing_base(2)
        assert np.allclose(p.coords, [[0.0, 0.5], [0.5, 0.0], [1.0, 0.5], [0.5, 1.0]])

    def test_bracing_rows_independent_at_special_placement(self):
        # the proof's placement certifies the 2|S|+1 new rows
        for q in (1.5, 3.0, 4.0):
            d = 2
            base = special_bracing_base(d)
            braced, _ = brace(complete_graph(2 * d), list(range(2 * d)), d)
            p = bracing_placement(complete_graph(2 * d), base, lam=1.0)
            mat = rigidity_matrix(braced, p, LqSpace(d + 1, q))
            rows = [i for i, e in enumerate(mat.edge_order) if e[1] >= 2 * d]
            assert len(rows) == 2 * (2 * d) + 1
            assert numerical_rank(mat.entries[rows]).rank == len(rows)

    def test_braced_k6_reaches_full_rank(self):
        # generic base + the quoted v0/v1 rows: rank 15 = 3*6 - 3 at q = 3
        rng = np.random.default_rng(1)
        braced, _ = brace(complete_graph(4), [0, 1, 2, 3], d=2)
        base = Placement(2, rng.uniform(-1, 1, size=(4, 2)))
        p = bracing_placement(complete_graph(4), base, lam=1.0)
        assert numerical_rank(rigidity_matrix(braced, p, LqSpace(3, 3.0))).rank == 15
        assert max_rank_sample(braced, LqSpace(3, 3.0), seed=0).rank == 15

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            bracing_placement(complete_graph(2), Placement(1, [[0.0], [1.0]]), lam=0.0)


class TestConeWitness:
    def test_coned_wheel_stays_independent(self):
        g = wheel_graph(5)
        space2 = LqSpace(2, 3.0)
        res = max_rank_sample(g, space2, seed=0)
        assert res.rank == g.m
        coned, _ = cone(g)
        witness = cone_placement(res.witness, apex_height=1.0)
        assert numerical_rank(rigidity_matrix(coned, witness, LqSpace(3, 3.0))).rank == coned.m

    def test_apex_height_validation(self):
        with pytest.raises(ValueError):
            cone_placement(Placement(2, [[0.0, 0.0]]), apex_height=0.0)


class TestPowerInequality:
    def test_direction_by_exponent(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            y = float(rng.uniform(0.01, 5.0))
            x = y + float(rng.uniform(0.01, 5.0))
            for k in (0.3, 0.5, 1.5, 2.0, 3.0):
                gap = power_gap(x, y, k)
                if k > 1:
                    assert gap > 0
                else:
                    assert gap < 0

    def test_domain(self):
        with pytest.raises(ValueError):
            power_gap(1.0, 2.0, 2.0)
