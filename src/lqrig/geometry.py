"""Placements in l_q space, support functionals and rigidity matrices.

The matrix of a framework has one row per edge and d columns per vertex.
For the edge vw with v < w the v-block carries the coefficients of the
support functional of p_v - p_w and the w-block carries their negation.
The "altered" form drops the norm scaling of each row (a positive factor
||p_v - p_w||^{q-2}), so both forms have the same row space; the altered
form is better conditioned and is the default everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, json_int

#: conjecture-facing code refuses exponents closer to the Euclidean point
#: than this gap unless explicitly overridden.
DEFAULT_Q_GAP = 0.05


class IllPositionedError(ValueError):
    """A placement puts both endpoints of some edge at the same point."""

    def __init__(self, edge: tuple[int, int]):
        super().__init__(f"edge {edge} has coincident endpoints")
        self.edge = edge


@dataclass(frozen=True)
class LqSpace:
    """d-dimensional real space with the l_q norm, 1 < q < inf."""

    d: int
    q: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not (1.0 < self.q < math.inf):
            raise ValueError("q must lie in (1, inf)")

    @property
    def euclidean(self) -> bool:
        return self.q == 2.0

    @property
    def isometry_dim(self) -> int:
        """Dimension of the rigid-motion tangent space: d for q != 2,
        d(d+1)/2 at the Euclidean point."""
        if self.euclidean:
            return self.d * (self.d + 1) // 2
        return self.d

    def target_rank(self, n: int) -> int:
        """Rank of the rigidity matrix of a rigid framework on n vertices."""
        return max(self.d * n - self.isometry_dim, 0)


@dataclass(frozen=True)
class Placement:
    """Coordinates for vertices 0..n-1 in R^d (64-bit floats)."""

    d: int
    coords: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.coords, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.d:
            raise ValueError(f"coords must have shape (n, {self.d})")
        if not np.isfinite(arr).all():
            raise ValueError("coordinates must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def offending_edge(self, g: Graph) -> Optional[tuple[int, int]]:
        """First edge (lexicographically) whose endpoints coincide, if any."""
        return _edge_differences(g, self.coords)[1]

    def well_positioned(self, g: Graph) -> bool:
        return self.offending_edge(g) is None

    def scaled(self, t: float) -> "Placement":
        return Placement(self.d, self.coords * t)

    def to_json_dict(self) -> dict:
        return {"d": self.d, "coords": [list(map(float, row)) for row in self.coords]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Placement":
        try:
            d = json_int(obj["d"])
            coords = [[_json_number(x) for x in row] for row in obj["coords"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed placement object: {exc}") from exc
        return cls(d, np.array(coords, dtype=float).reshape(len(coords), d))


def _json_number(value: object) -> float:
    """A coordinate of a JSON placement, which must be an int or a float: a
    string or a bool raises `TypeError` rather than being converted."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _ends(g: Graph) -> np.ndarray:
    """The 2 x |E| endpoint arrays v < w of g's edges in lexicographic
    order, made once per graph and kept on it, read-only."""
    if g._ends is None:
        flat = np.fromiter(chain.from_iterable(g.edges), dtype=np.intp, count=2 * g.m)
        ends = flat.reshape(g.m, 2).T
        ends.setflags(write=False)
        g._ends = ends
    return g._ends


def _edge_differences(
    g: Graph, coords: np.ndarray
) -> tuple[np.ndarray, Optional[tuple[int, int]]]:
    """The rows p_v - p_w of g's edges vw, v < w, in lexicographic order,
    and the first edge whose endpoints coincide (None if none)."""
    v, w = _ends(g)
    diff = coords[v] - coords[w]
    apart = diff.any(axis=1)
    if apart.all():
        return diff, None
    return diff, g.edges[int(np.argmin(apart))]


def signed_pow(x: np.ndarray, s: float) -> np.ndarray:
    """Componentwise sgn(x_k) |x_k|^s; zero maps to zero."""
    if s <= 0:
        raise ValueError("exponent must be positive")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** s


def lq_norm(x: np.ndarray, q: float) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.sum(np.abs(x) ** q) ** (1.0 / q))


def support_row(x: np.ndarray, q: float) -> np.ndarray:
    """Coefficient vector of the support functional of a nonzero x:
    signed_pow(x, q-1) / ||x||_q^{q-2}, so that pairing with x gives ||x||^2."""
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ValueError("support functional undefined at the zero vector")
    return signed_pow(x, q - 1.0) / lq_norm(x, q) ** (q - 2.0)


@dataclass(frozen=True)
class RigidityMatrix:
    """|E| x d|V| rigidity matrix with its rows in edge order."""

    entries: np.ndarray = field(repr=False)
    edge_order: tuple[tuple[int, int], ...]


def rigidity_matrix(
    g: Graph,
    placement: Placement,
    space: LqSpace,
    form: str = "altered",
) -> RigidityMatrix:
    """Build the standard or altered rigidity matrix of (g, placement)."""
    if form not in ("standard", "altered"):
        raise ValueError(f"unknown form {form!r}")
    if placement.n != g.n:
        raise ValueError(f"placement has {placement.n} points for {g.n} vertices")
    if placement.d != space.d:
        raise ValueError("placement dimension does not match the space")
    q = space.q
    diff, bad = _edge_differences(g, placement.coords)
    if bad is not None:
        raise IllPositionedError(bad)
    rows = signed_pow(diff, q - 1.0)
    if form == "standard":
        rows /= (np.sum(np.abs(diff) ** q, axis=1) ** (1.0 / q))[:, None] ** (q - 2.0)
    return RigidityMatrix(_place_rows([g], rows[None])[0], g.edges)


def _place_rows(graphs: Sequence[Graph], rows: np.ndarray) -> np.ndarray:
    """The k matrices whose row e carries rows[i, e] in the block of the
    first endpoint of edge e of graphs[i] and its negation in the block of
    the second: shape (k, |E|, d|V|), for k graphs that share |E| and |V|
    and rows of shape (k, |E|, d)."""
    k, m, d = rows.shape
    n = graphs[0].n
    out = np.zeros((k * m, n, d))
    v, w = np.concatenate([_ends(g) for g in graphs], axis=1)
    r = np.arange(k * m)
    rows = rows.reshape(k * m, d)
    out[r, v], out[r, w] = rows, -rows
    return out.reshape(k, m, n * d)
