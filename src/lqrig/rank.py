"""Numerical rank with an explicit tolerance policy, and framework verdicts.

`RankResult` is the rank of one matrix.  `Verdict` is the record of a
sampled generic rank: every trial's rank, the cutoff and the placement
that reached the maximum, and the independence and rigidity verdicts read
from them.

Generic (maximal) rank is estimated by sampling random well-positioned
placements: regular placements form an open dense set, so any absolutely
continuous sampling distribution finds one almost surely.

Every rank is taken after exact power-of-two equilibration: the rows and
then the columns are scaled by powers of two so that the largest |entry|
of each lies in [0.5, 1).  Such scaling rounds nothing (unless an entry
leaves the range of doubles) and leaves the rank unchanged, but it keeps
the cutoff from dropping rows whose signed (q-1)-th powers are many orders
of magnitude below the largest, as they are at high q (van der Sluis 1969).

Every row of the altered matrix is a difference of two vertex blocks, so
the d translations lie in the kernel of every subgraph's rows: at any
placement, an independent edge set is (d,d)-sparse, and the rank is at
most the (d,d) count rank (`graphs.count_rank`).  No placement can raise
the rank above the ceiling min(|E|, target rank, count rank).

Each trial is certified before any SVD, when it can be, in two steps on
the rows B that form a (d,d) count basis of the ceiling's size.  First a
shifted floating-point Cholesky factorisation of their Gram matrix (Rump,
"Verification of positive definiteness", BIT 46, 2006; see `_certify`);
its shift also covers the SVD's cutoff, so the trial's SVD would keep |B|
singular values.  It needs about kappa^2 |B| u < 1, and at high q, where
kappa reaches 1e8-1e12, it often fails.  Then, when B is square once one
vertex's d columns are dropped (|B| = d|V| - d, as for every tight graph),
a verified approximate inverse (Oishi and Rump 2002; see
`_verified_inverse`), which needs only about kappa |B| u < 1.  Its X is
solved in one column slab up to 512 rows and in two above, so that it
holds no more memory than the Gram's Cholesky of the same basis, and the
bound is summed over the slabs.  Either pass proves that the exact matrix
at that float placement has full rank on B: the rank is then the generic
rank, and sampling stops.  A trial that fails both takes its SVD.
Sampling stops once two placements reach the ceiling, and the rank is
"stable" when two trials agree on it, as a float verdict with no
certificate.

The witness is the first placement that reached the verdict's rank, proved
or not.  A verdict whose witness was certified takes the witness's SVD
(`tolerance_used`, `sv_gap`, `witness_svd_rank`) only when one of them is
first read.  After an inverse pass that SVD may keep fewer rows than the
proved rank; `witness_svd_rank` shows the shortfall.

`max_rank_samples` takes many (graph, space, seed) cells at once and runs
their trials in rounds.  The Gram certificates of a round are stacked by
(|E|, |V|, d, q, ceiling): one numpy call builds, equilibrates,
multiplies and factors every matrix of a stack, and each matrix rounds as
it would alone, so every verdict is the one its cell gets alone.
The inverse runs one cell at a time, after its Gram certificate fails.
`max_rank_sample` is its one-cell call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .geometry import (
    LqSpace,
    Placement,
    RigidityMatrix,
    _edge_differences,
    _ends,
    _place_rows,
    rigidity_matrix,
    signed_pow,
)
from .graphs import Graph, count_basis, count_rank

DEFAULT_REL_TOL = 1e-10
DEFAULT_TRIALS = 8
_RESAMPLE_BUDGET = 64
# Unit roundoff of doubles.
_U = 2.0**-53
# The verified inverse solves for X one column slab at a time.  Up to
# this many rows X is one slab, numpy's `inv`, whose four |B| x |B| arrays
# (B, LAPACK's copies of it and of the identity, and X) hold at most 8
# MiB.  Above it a slab of w = ceil(|B| / 2) columns is solved from a view
# of the identity (`_identity_slab`), holding 2|B|^2 + 2|B|w doubles: no
# more than the three |B| x |B| arrays of the Gram's Cholesky on the same
# basis, give or take |B| (see `_slab_width`).
_INVERSE_ROWS = 512
# Rows of E X - I formed at a time, so the residual needs no |B| x |B|
# array beside X.
_SLAB = 64


@dataclass(frozen=True)
class RankResult:
    """Rank of one matrix: the singular values above `tolerance_used`, with
    the smallest of them and the largest below (None where there is none)."""

    rank: int
    tolerance_used: float
    smallest_kept: Optional[float]
    largest_dropped: Optional[float]

    @property
    def sv_gap(self) -> tuple[Optional[float], Optional[float]]:
        """`smallest_kept` and `largest_dropped` divided by the cutoff; both
        None when the cutoff is 0, as for a zero matrix."""
        return tuple(
            None if sv is None or self.tolerance_used == 0 else sv / self.tolerance_used
            for sv in (self.smallest_kept, self.largest_dropped)
        )


@dataclass(frozen=True)
class Verdict:
    """Sampled generic rank of a graph's altered rigidity matrix.

    `rank` is the largest of `trial_ranks`, one per sampled placement;
    `witness` is the first placement that reached it.  `certified` says
    that a trial's rank was proved to be the count-basis size, by the Gram
    certificate or else the verified inverse, so `rank` is the generic
    rank.  independent <=> rank = |E|; rigid <=> rank = d|V| -
    dim(isometries), which is d|V| - d for q != 2 and d|V| - d(d+1)/2 at
    q = 2.

    `witness_rank` returns the witness's `numerical_rank`: the trial's own,
    or, for a witness certified with no SVD, one taken on the first read of
    `tolerance_used`, `sv_gap` or `witness_svd_rank` and kept.  A Gram
    pass implies that this SVD keeps `rank` singular values; an inverse
    pass does not, so `witness_svd_rank` can lie below `rank`.
    """

    rank: int
    edge_count: int
    target_rank: int
    trial_ranks: tuple[int, ...]
    witness: Placement
    certified: bool
    witness_rank: Callable[[], RankResult] = field(repr=False, compare=False)

    @cached_property
    def _witness_svd(self) -> RankResult:
        return self.witness_rank()

    @property
    def tolerance_used(self) -> float:
        """The singular-value cutoff of the witness's equilibrated matrix."""
        return self._witness_svd.tolerance_used

    @property
    def sv_gap(self) -> tuple[Optional[float], Optional[float]]:
        """The witness's smallest kept and largest dropped singular values
        divided by `tolerance_used`."""
        return self._witness_svd.sv_gap

    @property
    def witness_svd_rank(self) -> int:
        """The rank the witness's SVD keeps at `tolerance_used`: `rank`,
        unless the witness was proved by the verified inverse (see
        `_verified_inverse`) and its SVD falls short."""
        return self._witness_svd.rank

    @property
    def stable(self) -> bool:
        """Certified, or two trials agree on the rank."""
        return self.certified or self.trial_ranks.count(self.rank) >= 2

    @property
    def independent(self) -> bool:
        return self.rank == self.edge_count

    @property
    def rigid(self) -> bool:
        return self.rank == self.target_rank

    @property
    def minimally_rigid(self) -> bool:
        return self.independent and self.rigid

    @property
    def stress_dim(self) -> int:
        return self.edge_count - self.rank

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "edge_count": self.edge_count,
            "target_rank": self.target_rank,
            "independent": self.independent,
            "rigid": self.rigid,
            "minimally_rigid": self.minimally_rigid,
            "stress_dim": self.stress_dim,
            "stable": self.stable,
            "certified": self.certified,
            "trial_ranks": list(self.trial_ranks),
            "tolerance_used": self.tolerance_used,
            "sv_gap": list(self.sv_gap),
            "witness_svd_rank": self.witness_svd_rank,
            "witness_placement": self.witness.to_json_dict(),
        }


def _as_array(m: Union[RigidityMatrix, np.ndarray]) -> np.ndarray:
    if isinstance(m, RigidityMatrix):
        return m.entries
    return np.asarray(m, dtype=float)


def _equilibrate(a: np.ndarray) -> None:
    """Scale the rows of `a`, then its columns, by powers of two in place,
    so that the largest |entry| of each nonzero row and column lies in
    [0.5, 1); of each matrix, for a stack of them.  Raises ValueError on a
    non-finite entry."""
    top = np.maximum.reduce(np.abs(a), axis=-1, initial=0.0)
    if not math.isfinite(np.maximum.reduce(top, axis=None, initial=0.0)):
        raise ValueError("matrix has non-finite entries")
    np.ldexp(a, -np.frexp(top)[1][..., None], out=a)
    cols = np.maximum.reduce(np.abs(a), axis=-2, initial=0.0)
    np.ldexp(a, -np.frexp(cols)[1][..., None, :], out=a)


def numerical_rank(
    m: Union[RigidityMatrix, np.ndarray],
    rel_tol: float = DEFAULT_REL_TOL,
    *,
    overwrite: bool = False,
) -> RankResult:
    """Rank = number of singular values of the equilibrated matrix above
    rel_tol * sigma_max * max(rows, cols); rel_tol must be positive.
    `tolerance_used` is that cutoff.  The matrix is equilibrated by exact
    power-of-two row, then column, scaling (see the module docstring); with
    `overwrite` that is done in place in `m`'s own array, so no second copy
    exists during the SVD."""
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    a = _as_array(m)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if not overwrite:
        a = a.copy()
    _equilibrate(a)
    sv = np.linalg.svd(a, compute_uv=False)
    cutoff = rel_tol * float(sv.max(initial=0.0)) * max(a.shape)
    rank = int(np.count_nonzero(sv > cutoff))
    # svd returns the singular values in descending order.
    return RankResult(
        rank,
        cutoff,
        float(sv[rank - 1]) if rank else None,
        float(sv[rank]) if rank < sv.size else None,
    )


def sample_placement(
    g: Graph, space: LqSpace, rng: np.random.Generator
) -> Placement:
    """Uniform [-1, 1]^d coordinates, resampled while some edge is coincident."""
    return _sample(g, space, rng)[0]


def _sample(g: Graph, space: LqSpace, rng: np.random.Generator) -> tuple[Placement, np.ndarray]:
    """`sample_placement` and its edge differences p_v - p_w, one row per
    edge of g.  Finding them is the one coincidence check of each draw."""
    for _ in range(_RESAMPLE_BUDGET):
        p = Placement(space.d, rng.uniform(-1.0, 1.0, size=(g.n, space.d)))
        diff, bad = _edge_differences(g, p.coords)
        if bad is None:
            return p, diff
    raise RuntimeError("failed to sample a well-positioned placement")


def _altered(graphs: Sequence[Graph], diffs: np.ndarray, q: float) -> np.ndarray:
    """The altered rigidity matrices of `graphs`, which share |E| and |V|,
    from their stacked edge differences."""
    return _place_rows(graphs, signed_pow(diffs, q - 1.0))


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the bound on k rounding errors."""
    return k * _U / (1.0 - k * _U)


def _entry_error(q: float) -> float:
    """e/(1-e), e = gamma_{ceil(q)+1}: |E - A| <= e/(1-e) |A| for a built
    altered matrix A and the exact one E at the same float placement (see
    `_certify`)."""
    e = _gamma(math.ceil(q) + 1)
    return e / (1.0 - e)


def _shift_terms(g: Graph, space: LqSpace, rel_tol: float) -> tuple[float, float, float]:
    """The terms of `_shift` that g, the space and `rel_tol` fix, read once
    per verdict.  g's equilibrated altered matrix A has |E| rows of d|V|
    columns, |entries| < 1, 2d nonzeros a row and at most max_degree a
    column, so || |A| ||_2^2 <= || |A| ||_1 || |A| ||_inf <= 2d max_degree,
    and so for any rows B of A.  The terms are c2 and (e/(1-e))^2 || |B|
    ||_2^2 of `_certify`, and (2 rel_tol max(|E|, d|V|))^2 2d max_degree,
    the square of twice the largest SVD cutoff of A at `rel_tol`."""
    cols = space.d * g.n
    norm = 2.0 * space.d * g.max_degree()
    return (
        _gamma(cols) * norm,
        _entry_error(space.q) ** 2 * norm,
        (2.0 * rel_tol * max(g.m, cols)) ** 2 * norm,
    )


def _shift(terms: tuple[float, float, float], rows: int, trace: float) -> float:
    """The diagonal shift s under which a passing Cholesky of fl(B B^T) - sI
    certifies `rows` rows B of a graph's equilibrated altered matrix (see
    `_certify`): c1 for `trace`, an upper bound on tr(fl(B B^T)), plus the
    graph's `_shift_terms`."""
    gamma = _gamma(rows + 1)
    cholesky = gamma / (1.0 - 2.0 * gamma) * trace
    gram, entries, cutoff = terms
    # Rounding s up covers the few roundings made computing it, and the
    # underflow terms of the bounds (multiples of 2^-1074 by a polynomial
    # in the sizes), far below 2^-40 s.
    return (cholesky + gram + entries + cutoff) * (1.0 + 2.0**-40)


def _normal_entries(diffs: np.ndarray, q: float) -> list[bool]:
    """For each of a stack of edge differences (k, |E|, d): True when the
    altered matrix built from them has only normal nonzero entries, also
    once each row is scaled to a largest |entry| in [0.5, 1): then building
    and equilibrating it rounds as `_certify` assumes.  Checked on the
    differences x, as 2^-1000 <= |x|^(q-1) and its ratio to the largest (or
    to 1, if all are smaller)."""
    x = np.abs(diffs).reshape(len(diffs), -1)
    low = x.min(axis=1)
    if not low.all():
        low = np.where(x > 0, x, np.inf).min(axis=1)
    return [
        (q - 1.0) * (math.frexp(lo)[1] - 1 - max(math.frexp(hi)[1], 0)) > -1000
        for lo, hi in zip(low.tolist(), x.max(axis=1).tolist())
    ]


def _factors(a: np.ndarray) -> bool:
    """Whether the Cholesky factorisation of `a`, or of each matrix of a
    stack, passes."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _positive_definite(grams: np.ndarray, shifts: np.ndarray) -> list[bool]:
    """Whether the Cholesky factorisation of gram - sI passes, the diagonal
    rounded down, for each of a stack of Gram matrices and its shift s:
    one stacked factorisation, and one per matrix to find those that fail
    when it does.  `grams` is overwritten."""
    diagonals = np.einsum("kii->ki", grams)  # a writable view
    np.nextafter(diagonals - shifts[:, None], -np.inf, out=diagonals)
    if _factors(grams):
        return [True] * len(grams)
    if len(grams) == 1:
        return [False]
    return [_factors(a) for a in grams]


class _Cell:
    """A verdict in progress: a graph, space and seed, the ceiling, the
    ranks of the trials run, and the placement and edge differences of the
    current trial's draw."""

    __slots__ = (
        "g", "space", "seed", "target", "ceiling", "terms",
        "ranks", "draw", "top", "witness", "certified",
    )

    def __init__(self, g: Graph, space: LqSpace, seed: int, rel_tol: float):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.g, self.space, self.seed = g, space, seed
        self.target = space.target_rank(g.n)
        self.ceiling = min(g.m, self.target)
        self.terms = _shift_terms(g, space, rel_tol)
        self.ranks: list[int] = []
        self.draw: Optional[tuple[Placement, np.ndarray]] = None
        self.top: Optional[RankResult] = None
        self.witness: Optional[Placement] = None
        self.certified = False

    def basis(self) -> Optional[Sequence[int]]:
        """The rows of the certificate at the ceiling: all rows when it is
        |E|, else the edges of `graphs.count_basis` when it is their number;
        None when it is neither (the target rank below the count rank, at
        q = 2) or when it is 0."""
        g, d = self.g, self.space.d
        if not self.ceiling:
            return None
        if self.ceiling == g.m:
            return range(g.m)
        if self.ceiling == count_rank(g, d):
            return count_basis(g, d)
        return None

    def record(self, rank: int, res: Optional[RankResult]) -> None:
        """End the current trial at `rank`, with its SVD unless certified."""
        if not self.ranks or rank > max(self.ranks):
            self.top, self.witness = res, self.draw[0]
        self.ranks.append(rank)
        self.draw = None

    @property
    def open(self) -> bool:
        """Not certified, and fewer than two trials reached the ceiling."""
        return not self.certified and sum(r >= self.ceiling for r in self.ranks) < 2

    def verdict(self, rel_tol: float) -> Verdict:
        g, space, top, witness = self.g, self.space, self.top, self.witness

        def witness_rank() -> RankResult:
            if top is not None:
                return top
            return numerical_rank(rigidity_matrix(g, witness, space), rel_tol, overwrite=True)

        return Verdict(
            max(self.ranks), g.m, self.target, tuple(self.ranks), witness, self.certified,
            witness_rank,
        )


def _certify(cells: Sequence[_Cell]) -> list[bool]:
    """Whether the certificate passes for each cell's current draw at its
    ceiling: fl(B B^T) and the shift s of `_shift`, for the rows B of the
    equilibrated altered matrix A at the draw given by `_Cell.basis`, and
    the Cholesky of `_positive_definite`.  Cells that share (|E|, |V|, d,
    q, ceiling) are stacked: each stack's matrices are built, equilibrated,
    multiplied and factored in one numpy call each, and freed before the
    next stack's.  The stacked steps round each matrix as they would alone.
    q is in the key so that a stack is raised to one scalar power q - 1:
    numpy's `**` takes a fast path for some scalar exponents (a square root
    at q = 1.5) that an array of exponents would not.
    A cell fails with no Cholesky when `_Cell.basis` is None or when
    `_normal_entries` fails.

    If the Cholesky of fl(B B^T) - sI passes, with the diagonal rounded
    down, the exact altered matrix at the draw has full rank on those rows,
    so rank >= |B|.  Proof: the passing factorisation gives
    lambda_min(fl(B B^T)) >= s - c1, c1 = gamma_{|B|+1} / (1 - 2
    gamma_{|B|+1}) tr (Rump 2006); |fl(B B^T) - B B^T| <= gamma_cols |B||B|^T,
    so lambda_min(B B^T) >= s - c1 - c2, c2 = gamma_cols || |B| ||_2^2; and
    the exact rows E (scaled by the same powers of two) differ from B by |B
    - E| <= e/(1-e) |B|, so sigma_min(E) >= sigma_min(B) - e/(1-e) || |B|
    ||_2 > 0 as s - c1 - c2 > (e/(1-e))^2 || |B| ||_2^2.  Here e =
    gamma_{ceil(q)+1}, about (q+1)u, bounds the relative error of each
    built entry sgn(x)|x|^(q-1): u from the subtraction x = p_v - p_w,
    raised to the power q - 1, and 2u from a pow within 1 ulp, which is
    assumed of numpy's `**`.  The scalings round nothing while
    `_normal_entries` holds, which is required.

    The pass also gives sigma_min(B) > 2 rel_tol max(|E|, d|V|) || |A| ||_2
    at the rel_tol of the cell's `_shift_terms`, twice the SVD cutoff of
    all of A, as sigma_max(A) <= || |A| ||_2.  B is rows of A, so
    sigma_|B|(A) >= sigma_min(B), and `numerical_rank` of the trial's
    matrix keeps at least |B| singular values, as long as its SVD's error
    stays below the cutoff (assumed of LAPACK's, backward stable to a small
    multiple of u || A ||_2): a certificate taken before the SVD never
    reports a rank that the trial's SVD refuses.
    """
    passed = [False] * len(cells)
    stacks: dict[tuple, list[tuple[int, Sequence[int]]]] = {}
    for j, c in enumerate(cells):
        rows = c.basis()
        if rows is not None:
            key = (c.g.m, c.g.n, c.space.d, c.space.q, c.ceiling)
            stacks.setdefault(key, []).append((j, rows))
    for (m, _, _, q, size), members in stacks.items():
        diffs = np.array([cells[j].draw[1] for j, _ in members])
        normal = _normal_entries(diffs, q)
        if not all(normal):
            members = [e for e, ok in zip(members, normal) if ok]
            diffs = diffs[normal]
            if not members:
                continue
        stack = [cells[j] for j, _ in members]
        b = _altered([c.g for c in stack], diffs, q)
        del diffs
        _equilibrate(b)
        if size < m:
            b = b[np.arange(len(stack))[:, None], np.array([rows for _, rows in members])]
        grams = b @ b.transpose(0, 2, 1)
        del b  # freed before the Cholesky, for peak memory
        # The computed trace, a sum of |B| nonnegative terms, is within gamma_|B|.
        traces = grams.trace(axis1=1, axis2=2) / (1.0 - _gamma(size))
        shifts = np.array([_shift(c.terms, size, t) for c, t in zip(stack, traces.tolist())])
        for (j, _), ok in zip(members, _positive_definite(grams, shifts)):
            passed[j] = ok
    return passed


def _square_basis(c: _Cell, rows: Sequence[int]) -> np.ndarray:
    """The altered rows `rows` of c's graph at its current draw, without
    vertex 0's d columns, equilibrated: square when there are d|V| - d
    rows.  The scaling is `_equilibrate`'s, with no |B| x |B| temporary:
    a row's entries are its d values and their negatives, so the values
    are scaled before they are placed, and a column's largest |entry| is
    the larger of its largest entry and minus its smallest.  The entries
    are finite, as `_normal_entries` holds."""
    g, d = c.g, c.space.d
    idx = np.asarray(rows, dtype=np.intp)
    v, w = (ends[idx] - 1 for ends in _ends(g))
    values = signed_pow(c.draw[1][idx], c.space.q - 1.0)
    np.ldexp(values, -np.frexp(np.abs(values).max(axis=1))[1][:, None], out=values)
    b = np.zeros((len(idx), g.n - 1, d))
    r = np.arange(len(idx))
    # v < w, so only v can be vertex 0, now at -1.
    b[r, w] = -values
    kept = v >= 0
    b[r[kept], v[kept]] = values[kept]
    b = b.reshape(len(idx), -1)
    top = np.maximum(b.max(axis=0), -b.min(axis=0))
    np.ldexp(b, -np.frexp(top)[1], out=b)
    return b


def _slab_width(k: int) -> int:
    """Columns of X solved at a time for a k-row verified inverse: all k
    up to `_INVERSE_ROWS`, else ceil(k / 2), so 2k^2 + 2kw <= 3k^2 + k."""
    return k if k <= _INVERSE_ROWS else -(-k // 2)


def _identity_slab(k: int, j: int, w: int) -> np.ndarray:
    """Columns j to j + w of the k x k identity, as a view of k + w - 1
    doubles z, only to be read: entry (r, c) is z[w - 1 + r - c], one
    where r = j + c."""
    z = np.zeros(k + w - 1)
    z[j + w - 1] = 1.0
    step = z.itemsize
    return np.ndarray((k, w), buffer=z, offset=(w - 1) * step, strides=(step, -step))


def _inverse_bound(b: np.ndarray, q: float) -> float:
    """An upper bound on ||E X - I||_inf for X = fl(b^-1) and every E with
    |E - b| <= eps |b|, b square and eps the `_entry_error` at q; inf when
    a solve raises, X is not finite or a row of the computed residual
    reaches 1 (or is NaN).  `b` is overwritten.  See `_verified_inverse`.

    X is solved `_slab_width` columns at a time, from that slab of the
    identity, and no slab is kept: each adds the row sums of |fl(b X_slab)
    - I_slab|, formed `_SLAB` rows at a time, and of |X_slab| to two
    k-vectors.  A partial residual row sum only grows, so one that reaches
    1 refuses at once.  || |b||X| ||_inf is max(|b| (|X| 1)), taken after
    the last slab, the absolute values taken in place."""
    k = len(b)
    width = _slab_width(k)
    residual, x_sums = np.zeros(k), np.zeros(k)
    for j in range(0, k, width):
        eye = _identity_slab(k, j, min(width, k - j))
        try:
            # A single slab is numpy's inv: the same X, with less overhead.
            x = np.linalg.inv(b) if width == k else np.linalg.solve(b, eye)
        except np.linalg.LinAlgError:
            return math.inf
        if not np.isfinite(x).all():
            return math.inf
        for i in range(0, k, _SLAB):
            r = b[i : i + _SLAB] @ x
            r -= eye[i : i + _SLAB]
            rows = residual[i : i + _SLAB]  # a writable view
            rows += np.abs(r, out=r).sum(axis=1)
            if not rows.max() < 1.0:
                return math.inf
        x_sums += np.abs(x, out=x).sum(axis=1)
        del x  # freed before the next slab's solve
    spread = float((np.abs(b, out=b) @ x_sums).max())
    # Each computed sum of k nonnegative terms, also one added up over
    # slabs, is within gamma_k of the exact one, and the residual's
    # diagonal subtraction rounds once more.
    residual = float(residual.max()) / (1.0 - _gamma(k + 1))
    spread /= (1.0 - _gamma(k)) ** 2
    return (residual + (_gamma(k) + _entry_error(q)) * spread) * (1.0 + 2.0**-40)


def _verified_inverse(c: _Cell) -> bool:
    """Whether a verified inverse proves c's current draw at its ceiling:
    the ceiling is d|V| - d, with a basis (`_Cell.basis`),
    `_normal_entries` holds, and the `_inverse_bound` of its
    `_square_basis` B is below 1.  Any size is tried: above `_INVERSE_ROWS`
    rows X is solved in column slabs, and the bound is taken over them.

    Then the exact altered matrix at the draw has full rank on those rows
    (Oishi and Rump, "Fast verification of solutions of matrix
    equations", Numer. Math. 90, 2002).  Proof: every row is a difference
    of two vertex blocks, so vertex 0's columns are minus the sum of the
    others, and dropping them keeps the rank; B is then square.
    Let E be the exact rows at the draw on the same columns, scaled by
    the same powers of two: |E - B| <= eps |B|, eps = e/(1-e) with e =
    gamma_{ceil(q)+1}, the entry bound of `_certify`.  For any X, E X - I
    = (E - B) X + (B X - fl(B X)) + (fl(B X) - I), and |fl(B X) - B X| <=
    gamma_|B| |B||X|, so ||E X - I||_inf <= ||fl(B X) - I||_inf +
    (gamma_|B| + eps) || |B||X| ||_inf.  Both norms are maxima of row
    sums over X's columns, so they add up over the column slabs that X is
    solved in, and no slab is kept.  Each computed norm is rounded up
    by its gamma factor and the sum by `_shift`'s 1 + 2^-40, which also
    covers underflow: that adds at most |B| 2^-1074 to an entry of fl(B
    X), while the bound is at least gamma_|B| times an entry of |B||X| >=
    |B X| on the diagonal, at least 1 minus the residual.  Below 1, E X
    is nonsingular, so E is, and the rows have rank |B|.  It needs about
    kappa(B) |B| u < 1, where the Gram certificate needs about kappa(B)^2
    |B| u < 1.

    Unlike the Gram's, a pass says nothing of the SVD cutoff: the trial's
    SVD may keep fewer than |B| singular values.
    """
    g, space = c.g, c.space
    size = space.d * (g.n - 1)
    if c.ceiling != size:
        return False
    rows = c.basis()
    if rows is None or not _normal_entries(c.draw[1][None], space.q)[0]:
        return False
    return _inverse_bound(_square_basis(c, rows), space.q) < 1.0


def max_rank_samples(
    cells: Sequence[tuple[Graph, LqSpace, int]],
    trials: int = DEFAULT_TRIALS,
    rel_tol: float = DEFAULT_REL_TOL,
) -> list[Verdict]:
    """`max_rank_sample` of each (graph, space, seed) cell, in order.

    Trials run in rounds: round i draws trial i of every open cell, once
    for cells that share the graph object, dimension and seed, as the draw
    depends on nothing else, and certifies the draws together (`_certify`).
    A cell that fails goes on alone: with a ceiling lowered to the count
    rank it tries the same placement again (in a second stacked pass), and
    otherwise tries the verified inverse (`_verified_inverse`) and, if
    that fails too, takes the trial's SVD.  Each cell's verdict is the one
    it gets alone.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    states = [_Cell(g, space, seed, rel_tol) for g, space, seed in cells]
    open_cells = states
    for i in range(trials):
        draws: dict[tuple, tuple[Placement, np.ndarray]] = {}
        for c in open_cells:
            key = (id(c.g), c.space.d, c.seed)
            if key not in draws:
                draws[key] = _sample(c.g, c.space, np.random.default_rng([c.seed, i]))
            c.draw = draws[key]
        del draws
        trying = open_cells
        while trying:
            retry = []
            for c, passed in zip(trying, _certify(trying)):
                if not passed:
                    lowered = min(c.ceiling, count_rank(c.g, c.space.d))
                    if lowered < c.ceiling:
                        c.ceiling = lowered
                        retry.append(c)
                        continue
                    passed = _verified_inverse(c)
                if passed:
                    c.certified = True
                    c.record(c.ceiling, None)
                    continue
                a = _altered([c.g], c.draw[1][None], c.space.q)[0]
                res = numerical_rank(a, rel_tol, overwrite=True)
                del a  # freed before the next SVD
                c.record(res.rank, res)
            trying = retry
        open_cells = [c for c in open_cells if c.open]
        if not open_cells:
            break
    return [c.verdict(rel_tol) for c in states]


def max_rank_sample(
    g: Graph,
    space: LqSpace,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    rel_tol: float = DEFAULT_REL_TOL,
) -> Verdict:
    """Verdict from the maximum altered-matrix rank over at most `trials`
    sampled placements: the one-cell call of `max_rank_samples`, which
    runs many cells' trials in rounds and stacks their certificates.

    Trial i draws from its own generator seeded by (seed, i), so results are
    identical regardless of evaluation order and extending the trial count
    only appends new samples.  Each trial first tries the certificate of
    `_certify` on the count basis of the ceiling, min(|E|, target rank)
    until one fails and min(|E|, target rank, count rank) after: the count
    rank is computed only then, or when a target rank below |E| needs a
    count basis.  If a failure lowers the ceiling, the same placement tries
    again.  Once the Gram fails at the final ceiling, a ceiling of d|V| -
    d rows tries the verified inverse of `_verified_inverse` on the same
    placement, solved in column slabs above 512 rows (`_INVERSE_ROWS`) so
    that it holds no more memory than the Gram's Cholesky.  A pass
    of either gives the trial the ceiling as its rank, proved, and ends
    sampling; otherwise the trial takes its SVD.  Sampling also stops at
    the second trial that reaches the ceiling: no trial exceeds it, so
    `trial_ranks` is then a prefix of the full run's, and the rank, cutoff
    and witness are the full run's.

    A trial's matrix is built from its edge differences for the
    certificate and freed before the Cholesky; the inverse builds its own
    square rows, and the SVD builds the matrix again.  A witness certified
    with no SVD takes its SVD only when the verdict's cutoff is first
    read.  The witness is the first trial that reached the verdict's rank,
    also when an inverse pass proved it and its SVD keeps fewer rows
    (`Verdict.witness_svd_rank`).
    """
    return max_rank_samples([(g, space, seed)], trials, rel_tol)[0]


# The same function under the name that callers asking for a verdict use.
verdict = max_rank_sample


def cokernel_basis(
    m: Union[RigidityMatrix, np.ndarray], rel_tol: float = DEFAULT_REL_TOL
) -> np.ndarray:
    """Orthonormal basis of the left null space (self-stresses), one per
    row: the last left singular vectors of the matrix as given, as many as
    |rows| minus its `numerical_rank`."""
    rank = numerical_rank(m, rel_tol).rank
    u = np.linalg.svd(_as_array(m), full_matrices=True)[0]
    return np.ascontiguousarray(u[:, rank:].T)
