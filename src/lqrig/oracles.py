"""Closed-form determinants and explicit witness placements.

These are exact formulas and hand-placed frameworks used to cross-check the
numerical rank engine: the wheel example, the bracing circulant, the
gamma-parametrised K4, and the K7 - K3 determinant reduction chain with its
gamma selector.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .geometry import LqSpace, Placement, rigidity_matrix
from .graphs import Graph, wheel_graph


# -- wheel example ------------------------------------------------------------

#: row order of the displayed wheel matrix: spokes first, then the rim
#: ending with the long edge v1 v4.
WHEEL_EDGE_ORDER = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4))


def wheel_placement() -> Placement:
    """Regular placement of the 5-wheel: rim at (-1,0), (0,1), (1,0), (1,-1)."""
    return Placement(2, [[0, 0], [-1, 0], [0, 1], [1, 0], [1, -1]])


def wheel_degenerate_placement() -> Placement:
    """Same wheel with p_v4 = (0,-1); non-regular for every q != 2."""
    return Placement(2, [[0, 0], [-1, 0], [0, 1], [1, 0], [0, -1]])


def wheel_altered_matrix(q: float, placement: Placement | None = None) -> np.ndarray:
    """The displayed 8 x 10 altered matrix, rows in WHEEL_EDGE_ORDER."""
    p = placement or wheel_placement()
    mat = rigidity_matrix(wheel_graph(5), p, LqSpace(2, q), form="altered")
    rows = [mat.edge_order.index(e) for e in WHEEL_EDGE_ORDER]
    return mat.entries[rows]


def wheel_corner_submatrix(q: float) -> np.ndarray:
    """The square matrix M formed by the first eight columns."""
    return wheel_altered_matrix(q)[:, :8]


def wheel_det(q: float) -> float:
    """det M = 2^{q-1} - 2; zero exactly at the Euclidean point."""
    return 2.0 ** (q - 1.0) - 2.0


# -- bracing circulant ---------------------------------------------------------


def circulant_matrix(d: int, q: float) -> np.ndarray:
    """d x d matrix with unit diagonal and 1/2^{q-2} off the diagonal."""
    if d < 1:
        raise ValueError("d must be positive")
    c = np.full((d, d), 2.0 ** (2.0 - q))
    np.fill_diagonal(c, 1.0)
    return c


def circulant_det(d: int, q: float) -> float:
    """det C = (1 + (d-1)/2^{q-2}) (1 - 1/2^{q-2})^{d-1}."""
    if d < 1:
        raise ValueError("d must be positive")
    b = 2.0 ** (2.0 - q)
    return (1.0 + (d - 1) * b) * (1.0 - b) ** (d - 1)


# -- gamma-parametrised K4 ------------------------------------------------------


def k4_gamma_placement(gamma: float) -> Placement:
    """K4 at (0,0), (0,1), (-1,0), (gamma,gamma)."""
    _check_gamma(gamma)
    return Placement(2, [[0, 0], [0, 1], [-1, 0], [gamma, gamma]])


def k4_gamma_matrix(gamma: float, q: float) -> np.ndarray:
    """The 6 x 6 altered matrix of the gamma-K4 with the columns of the
    origin vertex removed."""
    _check_gamma(gamma)
    gp = gamma ** (q - 1.0)
    om = (1.0 - gamma) ** (q - 1.0)
    op = (1.0 + gamma) ** (q - 1.0)
    return np.array(
        [
            [0, 1, 0, 0, 0, 0],
            [0, 0, -1, 0, 0, 0],
            [0, 0, 0, 0, gp, gp],
            [1, 1, -1, -1, 0, 0],
            [-gp, om, 0, 0, gp, -om],
            [0, 0, -op, -gp, op, gp],
        ]
    )


def k4_gamma_det(gamma: float, q: float) -> float:
    """det M_gamma = (gamma^{q-1})^2 (2 gamma^{q-1} - (1+gamma)^{q-1} + (1-gamma)^{q-1})."""
    _check_gamma(gamma)
    gp = gamma ** (q - 1.0)
    return gp * gp * (2.0 * gp - (1.0 + gamma) ** (q - 1.0) + (1.0 - gamma) ** (q - 1.0))


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")


# -- K7 - K3 -------------------------------------------------------------------


def k7_minus_k3_graph() -> Graph:
    """K7 with the triangle on vertices {4, 5, 6} deleted: 18 edges."""
    edges = [e for e in combinations(range(7), 2) if not (e[0] >= 4 and e[1] >= 4)]
    return Graph(7, edges)


def k7k3_placement(gamma: float) -> Placement:
    """The explicit 7-point placement: the gamma-K4 in the z = 0 plane plus
    (0,0,-1), (1,1,1), (1,0,1)."""
    _check_gamma(gamma)
    return Placement(
        3,
        [
            [0, 0, 0],
            [0, 1, 0],
            [-1, 0, 0],
            [gamma, gamma, 0],
            [0, 0, -1],
            [1, 1, 1],
            [1, 0, 1],
        ],
    )


def k7k3_f(gamma: float, q: float) -> float:
    """f(gamma) = (2^{q-1} - 1) gamma^{q-1} + (1-gamma)^{q-1} - 1; the
    second factor of det R.  f(1) = 2^{q-1} - 2."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    two = 2.0 ** (q - 1.0)
    return (two - 1.0) * gamma ** (q - 1.0) + (1.0 - gamma) ** (q - 1.0) - 1.0


def k7k3_detR(gamma: float, q: float) -> float:
    """det R = ((1 - gamma^{q-1}) - (1-gamma)^{q-1})
    ((1-gamma)^{q-1} + (2 gamma)^{q-1} - (1 + gamma^{q-1}))."""
    _check_gamma(gamma)
    gp = gamma ** (q - 1.0)
    om = (1.0 - gamma) ** (q - 1.0)
    return ((1.0 - gp) - om) * (om + (2.0 * gamma) ** (q - 1.0) - (1.0 + gp))


def select_gamma(q: float, threshold: float = 1e-6) -> float:
    """First gamma in the scan 1/2, 1/3, 2/3, ..., 62/63 with |f(gamma)| >
    threshold; ValueError when none qualifies, as at q = 2, where f = 0.

    gamma = 1/2 is always a root of f (2^{q-1} (1/2)^{q-1} = 1), so the
    scan moves on; away from q = 2 it ends early, because f is continuous
    with f(1) = 2^{q-1} - 2 != 0 for q != 2.
    """
    for den in range(2, 64):
        for num in range(1, den):
            if math.gcd(num, den) != 1:
                continue
            gamma = num / den
            if abs(k7k3_f(gamma, q)) > threshold:
                return gamma
    raise ValueError(f"no gamma in the scan has |f(gamma)| > {threshold} at q = {q}")


def k7k3_chain(gamma: float, q: float) -> dict[str, np.ndarray]:
    """The matrices M, N, O, P, Q, R of the determinant reduction chain,
    built entry-by-entry from their displayed forms."""
    _check_gamma(gamma)
    gp = gamma ** (q - 1.0)
    om = (1.0 - gamma) ** (q - 1.0)
    two = 2.0 ** (q - 1.0)
    ax = np.array([0.0, 0.0, 1.0, -gp]).reshape(4, 1)
    ay = np.array([0.0, -1.0, 0.0, -gp]).reshape(4, 1)
    bx = np.array([1.0, 1.0, two, om]).reshape(4, 1)
    by = np.array([1.0, 0.0, 1.0, om]).reshape(4, 1)
    cx, cy = bx, ay
    i4 = np.eye(4)
    z = np.zeros((4, 1))
    ones = np.ones((4, 1))
    m = np.block(
        [
            [i4, ax, ay, z, z, z, z, -ones, z, z],
            [-i4, z, z, bx, by, z, z, z, ones, z],
            [-i4, z, z, z, z, cx, cy, z, z, ones],
        ]
    )
    nn = np.block(
        [
            [ax, ay, bx, by, z, z, -ones, ones, z],
            [ax, ay, z, z, cx, cy, -ones, z, ones],
        ]
    )
    o = np.array(
        [
            [0, 0, 1, 1, 0, 0, -1, 0],
            [0, -1, 1, 0, 0, 0, -1, 0],
            [1, 0, two, 1, 0, 0, -1, 0],
            [-gp, -gp, om, om, 0, 0, -1, 0],
            [0, 0, -1, -1, 1, 0, 0, 1],
            [0, 0, -1, 0, 1, -1, 0, 1],
            [0, 0, -two, -1, two, 0, 0, 1],
            [0, 0, -om, -om, om, -gp, 0, 1],
        ]
    )
    p = np.array(
        [
            [0, -1, 0, -1, 0, 0],
            [1, 0, two - 1, 0, 0, 0],
            [-gp, -gp, om - 1, om - 1, 0, 0],
            [0, 0, 0, 1, 0, -1],
            [0, 0, -two + 1, 0, two - 1, 0],
            [0, 0, -om + 1, -om + 1, om - 1, -gp],
        ]
    )
    qq = np.array(
        [
            [1, two - 1, 0, 0],
            [-gp, om - 1, om - 1 + gp, 0],
            [0, -two + 1, 0, two - 1],
            [0, -om + 1, -om + 1 - gp, om - 1],
        ]
    )
    r = np.array(
        [
            [1, two - 1, 0],
            [-gp, om - 1, om - 1 + gp],
            [0, 0, -om + 1 - gp],
        ]
    )
    return {"M": m, "N": nn, "O": o, "P": p, "Q": qq, "R": r}


def k7k3_chain_from_matrix(m: np.ndarray) -> dict[str, np.ndarray]:
    """Numerically replay the row/column reductions M -> N -> O -> P -> Q -> R."""
    if m.shape != (12, 13):
        raise ValueError("chain starts from the 12 x 13 matrix M")
    w = m.copy()
    for i in range(4):
        w[4 + i] += w[i]
        w[8 + i] += w[i]
    n = w[4:, 4:].copy()
    w = n.copy()
    w[:, 7] = w[:, 7] + w[:, 6] + w[:, 8]
    w[4:] -= w[:4]
    o = np.delete(w, 7, axis=1)
    w = o.copy()
    for i in (1, 2, 3):
        w[i] -= w[0]
    for i in (5, 6, 7):
        w[i] -= w[4]
    p = np.delete(np.delete(w, [0, 4], axis=0), [6, 7], axis=1)
    w = p.copy()
    w[:, 3] = w[:, 3] - w[:, 1] + w[:, 5]
    q = np.delete(np.delete(w, [0, 3], axis=0), [1, 5], axis=1)
    w = q.copy()
    w[:, 1] = w[:, 1] + w[:, 3]
    r = np.delete(np.delete(w, 2, axis=0), 3, axis=1)
    return {"N": n, "O": o, "P": p, "Q": q, "R": r}


def k7k3_corner_submatrix(gamma: float, q: float) -> np.ndarray:
    """Extract M from the full 18 x 21 altered matrix: rows v_i a, v_i b,
    v_i c; columns z of v_0..v_3 then x, y of a, b, c then z of a, b, c."""
    g = k7_minus_k3_graph()
    mat = rigidity_matrix(g, k7k3_placement(gamma), LqSpace(3, q), form="altered")
    edges = list(mat.edge_order)
    rows = [edges.index((i, t)) for t in (4, 5, 6) for i in range(4)]
    cols = [2, 5, 8, 11, 12, 13, 15, 16, 18, 19, 14, 17, 20]
    return mat.entries[np.ix_(rows, cols)]


# -- dimension-hopping witnesses -------------------------------------------------


def bracing_placement(g: Graph, p: Placement, lam: float = 1.0) -> Placement:
    """Placement for the braced graph: base points lifted to the hyperplane
    x_{d+1} = 0, v0 at (0,...,0,-lam) and v1 at (1,...,1,lam)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if p.n != g.n:
        raise ValueError("placement does not match the graph")
    if g.n < 2 * p.d:
        raise ValueError(f"bracing needs at least {2 * p.d} base vertices")
    d = p.d
    lifted = np.hstack([p.coords, np.zeros((p.n, 1))])
    v0 = np.concatenate([np.zeros(d), [-lam]])
    v1 = np.concatenate([np.ones(d), [lam]])
    return Placement(d + 1, np.vstack([lifted, v0, v1]))


def special_bracing_base(d: int) -> Placement:
    """The proof's base placement of 2d vertices w_1..w_d, w~_1..w~_d:
    coordinate j of w_i is 0 if i = j else 1/2, of w~_i is 1 if i = j else 1/2."""
    if d < 1:
        raise ValueError("d must be positive")
    coords = np.full((2 * d, d), 0.5)
    for i in range(d):
        coords[i, i] = 0.0
        coords[d + i, i] = 1.0
    return Placement(d, coords)


def cone_placement(p: Placement, apex_height: float = 1.0) -> Placement:
    """Placement for the coned graph: base lifted to x_{d+1} = 0 and the
    apex on the axis with nonzero last coordinate."""
    if apex_height == 0:
        raise ValueError("apex must have nonzero last coordinate")
    lifted = np.hstack([p.coords, np.zeros((p.n, 1))])
    apex = np.concatenate([np.zeros(p.d), [apex_height]])
    return Placement(p.d + 1, np.vstack([lifted, apex]))


# -- power inequality -------------------------------------------------------------


def power_gap(x: float, y: float, k: float) -> float:
    """x^k - y^k - (x - y)^k for x > y > 0: positive iff k > 1, negative
    iff k < 1, zero at k = 1."""
    if not x > y > 0:
        raise ValueError("need x > y > 0")
    return x**k - y**k - (x - y) ** k
