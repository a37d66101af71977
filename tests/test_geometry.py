import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqrig.geometry import (
    IllPositionedError,
    LqSpace,
    Placement,
    lq_norm,
    rigidity_matrix,
    signed_pow,
    support_row,
)
from lqrig.graphs import Graph, complete_graph, wheel_graph
from lqrig.operations import henneberg_generate
from lqrig.oracles import WHEEL_EDGE_ORDER, wheel_altered_matrix, wheel_placement
from lqrig.rank import numerical_rank, sample_placement

PINNED_QS = (1.1, 1.5, 3.0, 6.0, 10.0, 24.0)


def per_edge_matrix(g: Graph, p: Placement, space: LqSpace, form: str) -> np.ndarray:
    """The rigidity matrix built one edge at a time, as the reference for
    the array build."""
    d, q = space.d, space.q
    m = np.zeros((g.m, d * g.n))
    for r, (v, w) in enumerate(g.edges):
        diff = p.coords[v] - p.coords[w]
        row = signed_pow(diff, q - 1.0) if form == "altered" else support_row(diff, q)
        m[r, d * v : d * v + d] = row
        m[r, d * w : d * w + d] = -row
    return m


def pinned_cases():
    """(graph, space, placement) over several graphs, dimensions, scales and q."""
    rng = np.random.default_rng(11)
    graphs = [
        complete_graph(6),
        wheel_graph(7),
        henneberg_generate(3, 12, 4)[0],
        Graph(5, [(0, 3), (1, 4)]),
        Graph(3),
    ]
    for g in graphs:
        for d in (1, 2, 3):
            for q in PINNED_QS:
                space = LqSpace(d, q)
                for scale in (1.0, 1e-3, 1e3):
                    yield g, space, sample_placement(g, space, rng).scaled(scale)


class TestSignedPow:
    def test_square(self):
        assert np.allclose(signed_pow(np.array([-2.0, 3.0]), 2), [-4.0, 9.0])

    def test_identity_exponent(self):
        assert np.allclose(signed_pow(np.array([1.0, -1.0, 0.0]), 1), [1.0, -1.0, 0.0])

    def test_unit_entries(self):
        assert np.allclose(signed_pow(np.array([-1.0, -1.0]), 3), [-1.0, -1.0])

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            signed_pow(np.ones(2), 0.0)


class TestSupportRow:
    def test_euclidean_is_identity(self):
        assert np.allclose(support_row(np.array([3.0, 4.0]), 2.0), [3.0, 4.0])

    def test_ones_at_q3(self):
        x = np.array([1.0, 1.0])
        row = support_row(x, 3.0)
        assert np.allclose(row, [2 ** (-1 / 3)] * 2)
        assert np.isclose(row @ x, lq_norm(x, 3.0) ** 2)

    def test_altered_variant_from_example(self):
        for q in (1.5, 2.5, 3.0):
            assert np.allclose(signed_pow(np.array([2.0, -1.0]), q - 1), [2 ** (q - 1), -1.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            support_row(np.zeros(3), 3.0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 5),
        st.sampled_from([1.5, 3.0]),
        st.integers(0, 2**31 - 1),
    )
    def test_normalization_and_homogeneity(self, d, q, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, size=d)
        if not np.any(x):
            x[0] = 1.0
        row = support_row(x, q)
        assert np.isclose(row @ x, lq_norm(x, q) ** 2, rtol=1e-12, atol=1e-14)
        t = float(rng.uniform(0.1, 5.0))
        assert np.allclose(support_row(t * x, q), t * row, rtol=1e-12, atol=1e-14)


class TestRigidityMatrix:
    def test_k2_row(self):
        g = Graph(2, [(0, 1)])
        p = Placement(2, [[1.0, 0.0], [0.0, 0.0]])
        for q in (1.5, 2.5, 3.0):
            m = rigidity_matrix(g, p, LqSpace(2, q), form="altered")
            assert np.allclose(m.entries, [[1.0, 0.0, -1.0, 0.0]])

    def test_shape_contract(self):
        rng = np.random.default_rng(3)
        for n, d in [(4, 2), (5, 3), (6, 1)]:
            g = complete_graph(n)
            space = LqSpace(d, 2.5)
            p = sample_placement(g, space, rng)
            m = rigidity_matrix(g, p, space)
            assert m.entries.shape == (g.m, d * n)

    def test_row_support_and_negation(self):
        g = wheel_graph(5)
        space = LqSpace(2, 3.0)
        p = wheel_placement()
        m = rigidity_matrix(g, p, space)
        for r, (v, w) in enumerate(m.edge_order):
            row = m.entries[r].reshape(g.n, 2)
            assert np.allclose(row[v], -row[w])
            others = [u for u in range(g.n) if u not in (v, w)]
            assert not np.any(row[others])

    def test_wheel_matches_displayed_matrix(self):
        # same rows as the displayed 8 x 10 matrix, up to row order
        for q in (1.5, 2.5, 3.0, 4.0):
            built = rigidity_matrix(wheel_graph(5), wheel_placement(), LqSpace(2, q))
            displayed = wheel_altered_matrix(q)
            lex = {e: i for i, e in enumerate(built.edge_order)}
            for r, e in enumerate(WHEEL_EDGE_ORDER):
                assert np.allclose(displayed[r], built.entries[lex[e]])

    def test_altered_matches_per_edge_build(self):
        for g, space, p in pinned_cases():
            built = rigidity_matrix(g, p, space, form="altered").entries
            assert np.array_equal(built, per_edge_matrix(g, p, space, "altered"))

    def test_standard_matches_per_edge_build(self):
        # The array build takes the row norms as array powers rather than
        # scalar ones, so the last bits may differ.
        for g, space, p in pinned_cases():
            built = rigidity_matrix(g, p, space, form="standard").entries
            ref = per_edge_matrix(g, p, space, "standard")
            assert built.shape == ref.shape
            assert np.all(np.abs(built - ref) <= 1e-13 * np.abs(ref))

    def test_ill_positioned_reports_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        p = Placement(2, [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(IllPositionedError) as exc:
            rigidity_matrix(g, p, LqSpace(2, 3.0))
        assert exc.value.edge == (0, 1)
        # Several coincident edges: the lexicographically first is named,
        # whatever order the edges were given in.
        g = Graph(5, [(3, 4), (2, 4), (1, 2), (0, 4), (0, 1)])
        p = Placement(2, [[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [5.0, 5.0], [5.0, 5.0]])
        with pytest.raises(IllPositionedError) as exc:
            rigidity_matrix(g, p, LqSpace(2, 3.0))
        assert exc.value.edge == (2, 4)

    def test_translation_kernel(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            q = float(rng.choice([1.5, 2.0, 3.0]))
            g = complete_graph(n)
            space = LqSpace(d, q)
            p = sample_placement(g, space, rng)
            for form in ("standard", "altered"):
                m = rigidity_matrix(g, p, space, form=form).entries
                norm = np.linalg.norm(m)
                for k in range(d):
                    vec = np.zeros(d * n)
                    vec[k::d] = 1.0
                    assert np.linalg.norm(m @ vec) <= 1e-10 * norm

    def test_standard_and_altered_same_rank(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            g = complete_graph(n)
            d = int(rng.integers(1, 4))
            q = float(rng.choice([1.5, 2.5, 3.0, 4.0]))
            space = LqSpace(d, q)
            p = sample_placement(g, space, rng)
            r_std = numerical_rank(rigidity_matrix(g, p, space, form="standard")).rank
            r_alt = numerical_rank(rigidity_matrix(g, p, space, form="altered")).rank
            assert r_std == r_alt

    def test_one_dimensional_row(self):
        g = Graph(2, [(0, 1)])
        p = Placement(1, [[1.0], [0.0]])
        m = rigidity_matrix(g, p, LqSpace(1, 1.5))
        assert m.entries.tolist() == [[1.0, -1.0]]
        assert m.edge_order == ((0, 1),)


class TestSpacesAndPlacements:
    def test_lqspace_validation(self):
        with pytest.raises(ValueError):
            LqSpace(0, 3.0)
        with pytest.raises(ValueError):
            LqSpace(2, 1.0)
        with pytest.raises(ValueError):
            LqSpace(2, float("inf"))

    def test_isometry_dimensions(self):
        assert LqSpace(3, 3.0).isometry_dim == 3
        assert not LqSpace(3, 3.0).euclidean
        assert LqSpace(3, 2.0).isometry_dim == 6
        assert LqSpace(3, 2.0).euclidean
        assert LqSpace(2, 3.0).target_rank(5) == 8

    def test_placement_validation(self):
        with pytest.raises(ValueError):
            Placement(2, [[0.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValueError):
            Placement(2, [[0.0], [1.0]])
        for d in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="malformed placement object"):
                Placement.from_json_dict({"d": d, "coords": [[0.0, 0.0], [1.0, 1.0]]})
        # A string or bool coordinate is rejected, not read as a number.
        for coords in ([["1.5", 0.0], [2.0, 1.0]], [[1.5, True], [2.0, False]], ["12", "34"]):
            with pytest.raises(ValueError, match="malformed placement object"):
                Placement.from_json_dict({"d": 2, "coords": coords})
        mixed = Placement.from_json_dict({"d": 2, "coords": [[1, 2.5], [-3, 0]]})
        assert mixed.coords.tolist() == [[1.0, 2.5], [-3.0, 0.0]]

    def test_placement_well_positioned(self):
        g = Graph(2, [(0, 1)])
        assert Placement(2, [[0.0, 0.0], [1.0, 0.0]]).well_positioned(g)
        bad = Placement(2, [[1.0, 2.0], [1.0, 2.0]])
        assert bad.offending_edge(g) == (0, 1)
        assert not bad.well_positioned(g)
        g = Graph(5, [(3, 4), (2, 4), (1, 2), (0, 4), (0, 1)])
        coords = [[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [5.0, 5.0], [5.0, 5.0]]
        assert Placement(2, coords).offending_edge(g) == (2, 4)
        coords[1] = [0.0, -0.0]
        assert Placement(2, coords).offending_edge(g) == (0, 1)
        assert Placement(2, coords).well_positioned(Graph(5, [(1, 2), (3, 0)]))

    def test_placement_json_round_trip(self):
        p = Placement(2, [[0.5, -1.0], [2.0, 3.0]])
        back = Placement.from_json_dict(p.to_json_dict())
        assert back.d == 2 and np.allclose(back.coords, p.coords)
