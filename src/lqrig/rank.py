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

Each trial is certified before any SVD, when it can be: a shifted
floating-point Cholesky factorisation of the Gram matrix of the rows that
form a (d,d) count basis of the ceiling's size proves that the exact
matrix at that float placement has full rank on those rows (Rump,
"Verification of positive definiteness", BIT 46, 2006; see `_basis_gram`).
The rank is then the generic rank, proved, and sampling stops; the shift
also covers the SVD's cutoff, so the trial's SVD would keep that rank.  A
trial that fails takes its SVD.  Sampling stops once two placements reach
the ceiling, and the rank is "stable" when two trials agree on it, as a
float verdict with no certificate.  A verdict whose witness was certified
takes the witness's SVD (`tolerance_used`, `sv_gap`) only when one of them
is first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .geometry import (
    IllPositionedError,
    LqSpace,
    Placement,
    RigidityMatrix,
    _edge_differences,
    rigidity_matrix,
)
from .graphs import Graph, count_basis, count_rank

DEFAULT_REL_TOL = 1e-10
DEFAULT_TRIALS = 8
_RESAMPLE_BUDGET = 64
# Unit roundoff of doubles.
_U = 2.0**-53


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
        """`smallest_kept` and `largest_dropped` divided by the cutoff."""
        return tuple(
            None if sv is None else sv / self.tolerance_used
            for sv in (self.smallest_kept, self.largest_dropped)
        )


@dataclass(frozen=True)
class Verdict:
    """Sampled generic rank of a graph's altered rigidity matrix.

    `rank` is the largest of `trial_ranks`, one per sampled placement;
    `witness` is the first placement that reached it.  `certified` says
    that a trial's rank was proved to be the count-basis size, so `rank` is
    the generic rank.  independent <=> rank = |E|; rigid <=> rank = d|V| -
    dim(isometries), which is d|V| - d for q != 2 and d|V| - d(d+1)/2 at
    q = 2.

    `witness_rank` returns the witness's `numerical_rank`: the trial's own,
    or, for a witness certified with no SVD, one taken on the first read of
    `tolerance_used` or `sv_gap` and kept.
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
            "witness_placement": self.witness.to_json_dict(),
        }


def _as_array(m: Union[RigidityMatrix, np.ndarray]) -> np.ndarray:
    if isinstance(m, RigidityMatrix):
        return m.entries
    return np.asarray(m, dtype=float)


def _equilibrate(a: np.ndarray) -> None:
    """Scale the rows of `a`, then its columns, by powers of two in place,
    so that the largest |entry| of each nonzero row and column lies in
    [0.5, 1).  Raises ValueError on a non-finite entry."""
    top = np.abs(a).max(axis=1, initial=0.0)
    if not math.isfinite(top.max(initial=0.0)):
        raise ValueError("matrix has non-finite entries")
    np.ldexp(a, -np.frexp(top)[1][:, None], out=a)
    np.ldexp(a, -np.frexp(np.abs(a).max(axis=0, initial=0.0))[1], out=a)


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


def _sample(g: Graph, space: LqSpace, rng: np.random.Generator) -> tuple[Placement, RigidityMatrix]:
    """`sample_placement` and its altered rigidity matrix.  Building the
    matrix is the one coincidence check of each draw."""
    for _ in range(_RESAMPLE_BUDGET):
        p = Placement(space.d, rng.uniform(-1.0, 1.0, size=(g.n, space.d)))
        try:
            return p, rigidity_matrix(g, p, space)
        except IllPositionedError:
            continue
    raise RuntimeError("failed to sample a well-positioned placement")


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the bound on k rounding errors."""
    return k * _U / (1.0 - k * _U)


def _shift(g: Graph, space: LqSpace, rows: int, trace: float, rel_tol: float) -> float:
    """The diagonal shift s under which a passing Cholesky of fl(B B^T) - sI
    certifies `rows` rows B of g's equilibrated altered matrix A (see
    `_basis_gram`), `trace` an upper bound on tr(fl(B B^T)).  A has |E|
    rows of d|V| columns, |entries| < 1, 2d nonzeros a row and at most
    max_degree a column, so || |A| ||_2^2 <= || |A| ||_1 || |A| ||_inf <=
    2d max_degree, and so for B.  The last term, (2 rel_tol max(|E|,
    d|V|))^2 2d max_degree, is the square of twice the largest SVD cutoff
    of A at `rel_tol`."""
    cols = space.d * g.n
    norm = 2.0 * space.d * g.max_degree()
    gamma = _gamma(rows + 1)
    cholesky = gamma / (1.0 - 2.0 * gamma) * trace
    gram = _gamma(cols) * norm
    entry = _gamma(math.ceil(space.q) + 1)
    entries = (entry / (1.0 - entry)) ** 2 * norm
    cutoff = (2.0 * rel_tol * max(g.m, cols)) ** 2 * norm
    # Rounding s up covers the few roundings made computing it, and the
    # underflow terms of the bounds (multiples of 2^-1074 by a polynomial
    # in the sizes), far below 2^-40 s.
    return (cholesky + gram + entries + cutoff) * (1.0 + 2.0**-40)


def _normal_entries(g: Graph, p: Placement, q: float) -> bool:
    """True when g's altered matrix at p has only normal nonzero entries,
    also once each row is scaled to a largest |entry| in [0.5, 1): then
    building and equilibrating it rounds as `_basis_gram` assumes.  Checked
    on the coordinate differences x, as 2^-1000 <= |x|^(q-1) and its ratio
    to the largest (or to 1, if all are smaller)."""
    diff = np.abs(_edge_differences(g, p.coords)[2])
    low = diff.min()
    if not low:
        low = diff[diff > 0].min()
    high = max(math.frexp(diff.max())[1], 0)
    return (q - 1.0) * (math.frexp(low)[1] - 1 - high) > -1000


def _basis_gram(
    g: Graph, space: LqSpace, p: Placement, a: np.ndarray, ceiling: int, rel_tol: float
) -> Optional[tuple[np.ndarray, float]]:
    """fl(B B^T) and the shift s of `_shift`, for the rows B of the
    equilibrated matrix `a` of g at p that form a (d,d) count basis of size
    `ceiling`: all rows when it is |E|, else the edges of
    `graphs.count_basis` when it is their number.  None when it is neither
    (the target rank below the count rank, at q = 2), when it is 0, or when
    `_normal_entries` fails.

    If the Cholesky of fl(B B^T) - sI passes, with the diagonal rounded
    down, the exact altered matrix at p has full rank on those rows, so
    rank >= |B|.  Proof: the passing factorisation gives lambda_min(fl(B B^T))
    >= s - c1, c1 = gamma_{|B|+1} / (1 - 2 gamma_{|B|+1}) tr (Rump 2006);
    |fl(B B^T) - B B^T| <= gamma_cols |B||B|^T, so lambda_min(B B^T) >=
    s - c1 - c2, c2 = gamma_cols || |B| ||_2^2; and the exact rows E (scaled
    by the same powers of two) differ from B by |B - E| <= e/(1-e) |B|, so
    sigma_min(E) >= sigma_min(B) - e/(1-e) || |B| ||_2 > 0 as s - c1 - c2 >
    (e/(1-e))^2 || |B| ||_2^2.  Here e = gamma_{ceil(q)+1}, about (q+1)u,
    bounds the relative error of each built entry sgn(x)|x|^(q-1): u from
    the subtraction x = p_v - p_w, raised to the power q - 1, and 2u from a
    pow within 1 ulp, which is assumed of numpy's `**`.  The scalings
    round nothing while `_normal_entries` holds, which is required.

    The pass also gives sigma_min(B) > 2 rel_tol max(|E|, d|V|) || |a| ||_2,
    twice the SVD cutoff of all of `a`, as sigma_max(a) <= || |a| ||_2.  B
    is rows of `a`, so sigma_|B|(a) >= sigma_min(B), and `numerical_rank`
    of the trial's matrix keeps at least |B| singular values, as long as
    its SVD's error stays below the cutoff (assumed of LAPACK's, backward
    stable to a small multiple of u || a ||_2): a certificate taken before
    the SVD never reports a rank that the trial's SVD refuses.
    """
    if ceiling == g.m:
        rows = None
    elif ceiling == count_rank(g, space.d):
        rows = count_basis(g, space.d)
    else:
        return None
    if not ceiling or not _normal_entries(g, p, space.q):
        return None
    b = a if rows is None else a[list(rows)]
    gram = b @ b.T
    # The computed trace, a sum of |B| nonnegative terms, is within gamma_|B|.
    trace = float(np.trace(gram)) / (1.0 - _gamma(ceiling))
    return gram, _shift(g, space, ceiling, trace, rel_tol)


def _positive_definite(gram: np.ndarray, s: float) -> bool:
    """Whether the Cholesky factorisation of gram - sI passes, the diagonal
    rounded down; `gram` is overwritten."""
    np.fill_diagonal(gram, np.nextafter(gram.diagonal() - s, -np.inf))
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def max_rank_sample(
    g: Graph,
    space: LqSpace,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    rel_tol: float = DEFAULT_REL_TOL,
) -> Verdict:
    """Verdict from the maximum altered-matrix rank over at most `trials`
    sampled placements.

    Trial i draws from its own generator seeded by (seed, i), so results are
    identical regardless of evaluation order and extending the trial count
    only appends new samples.  Each trial first tries the certificate of
    `_basis_gram` on the count basis of the ceiling, min(|E|, target rank)
    until one fails and min(|E|, target rank, count rank) after: the count
    rank is computed only then, or when a target rank below |E| needs a
    count basis.  If a failure lowers the ceiling, the same placement tries
    again.  A pass gives the trial the ceiling as its rank, proved, and
    ends sampling; otherwise the trial takes its SVD.  Sampling also stops
    at the second trial that reaches the ceiling: no trial exceeds it, so
    `trial_ranks` is then a prefix of the full run's, and the rank, cutoff
    and witness are the full run's.

    Each trial's matrix is equilibrated in place and dropped before the
    Cholesky, and built again from the placement when the certificate
    fails.  A witness certified with no SVD takes its SVD only when the
    verdict's cutoff is first read.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    target = space.target_rank(g.n)
    ceiling = min(g.m, target)
    ranks: list[int] = []
    for i in range(trials):
        p, matrix = _sample(g, space, np.random.default_rng([seed, i]))
        while True:
            _equilibrate(matrix.entries)
            gram = _basis_gram(g, space, p, matrix.entries, ceiling, rel_tol)
            del matrix  # freed before the Cholesky, for peak memory
            certified = gram is not None and _positive_definite(*gram)
            del gram
            if certified:
                res = None
                break
            matrix = rigidity_matrix(g, p, space)
            lowered = min(ceiling, count_rank(g, space.d))
            if lowered == ceiling:
                res = numerical_rank(matrix, rel_tol, overwrite=True)
                del matrix  # freed before the next draw
                break
            ceiling = lowered
        rank = ceiling if res is None else res.rank
        if not ranks or rank > max(ranks):
            top, witness = res, p
        ranks.append(rank)
        if certified or sum(r >= ceiling for r in ranks) == 2:
            break

    def witness_rank() -> RankResult:
        if top is not None:
            return top
        return numerical_rank(rigidity_matrix(g, witness, space), rel_tol, overwrite=True)

    return Verdict(max(ranks), g.m, target, tuple(ranks), witness, certified, witness_rank)


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
