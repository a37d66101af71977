"""Numerical rank with an explicit tolerance policy, and framework verdicts.

`RankResult` is the rank of one matrix.  `Verdict` is the record of a
sampled generic rank: every trial's rank, the cutoff and the placement
that reached the maximum, and the independence and rigidity verdicts read
from them.

Generic (maximal) rank is estimated by sampling random well-positioned
placements: regular placements form an open dense set, so any absolutely
continuous sampling distribution finds one almost surely.  A rank value is
reported "stable" when at least two sampled placements agree on it.

Every rank is taken after exact power-of-two equilibration: the rows and
then the columns are scaled by powers of two so that the largest |entry|
of each lies in [0.5, 1).  Such scaling rounds nothing (unless an entry
leaves the range of doubles) and leaves the rank unchanged, but it keeps
the cutoff from dropping rows whose signed (q-1)-th powers are many orders
of magnitude below the largest, as they are at high q (van der Sluis 1969).

Every row of the altered matrix is a difference of two vertex blocks, so
the d translations lie in the kernel of every subgraph's rows: at any
placement, an independent edge set is (d,d)-sparse, and the rank is at
most the (d,d) count rank (`graphs.count_rank`).  Sampling stops once two
placements reach the ceiling min(|E|, target rank, count rank): no further
placement can raise the rank, and it is already stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .geometry import IllPositionedError, LqSpace, Placement, RigidityMatrix, rigidity_matrix
from .graphs import Graph, count_rank

DEFAULT_REL_TOL = 1e-10
DEFAULT_TRIALS = 8
_RESAMPLE_BUDGET = 64


@dataclass(frozen=True)
class RankResult:
    """Rank of one matrix: the singular values above `tolerance_used`."""

    rank: int
    tolerance_used: float


@dataclass(frozen=True)
class Verdict:
    """Sampled generic rank of a graph's altered rigidity matrix.

    `rank` is the largest of `trial_ranks`, one per sampled placement;
    `witness` is the first placement that reached it and `tolerance_used`
    the singular-value cutoff of its equilibrated matrix.  independent <=>
    rank = |E|; rigid <=> rank = d|V| - dim(isometries), which is d|V| - d
    for q != 2 and d|V| - d(d+1)/2 at q = 2.
    """

    rank: int
    edge_count: int
    target_rank: int
    trial_ranks: tuple[int, ...]
    tolerance_used: float
    witness: Placement

    @property
    def stable(self) -> bool:
        return self.trial_ranks.count(self.rank) >= 2

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
            "trial_ranks": list(self.trial_ranks),
            "tolerance_used": self.tolerance_used,
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
    return RankResult(int(np.count_nonzero(sv > cutoff)), cutoff)


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
    only appends new samples.  Sampling stops at the second trial that
    reaches min(|E|, target rank, count rank): no trial exceeds that
    ceiling, so `trial_ranks` is then a prefix of the full run's, and the
    verdict, cutoff and witness are the full run's.  The count rank is
    computed only once a trial falls short of min(|E|, target rank).
    Each trial's matrix is equilibrated in place and then dropped.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    ceiling = min(g.m, space.target_rank(g.n))
    ranks: list[int] = []
    for i in range(trials):
        rng = np.random.default_rng([seed, i])
        p, matrix = _sample(g, space, rng)
        res = numerical_rank(matrix, rel_tol, overwrite=True)
        del matrix  # freed before the next draw builds one, for peak memory
        if not ranks or res.rank > max(ranks):
            top, witness = res, p
        ranks.append(res.rank)
        if res.rank < ceiling:
            ceiling = min(ceiling, count_rank(g, space.d))
        if sum(r >= ceiling for r in ranks) == 2:
            break
    return Verdict(
        top.rank, g.m, space.target_rank(g.n), tuple(ranks), top.tolerance_used, witness
    )


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
