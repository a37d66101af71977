"""Numerical rank with an explicit tolerance policy, and framework verdicts.

Generic (maximal) rank is estimated by sampling random well-positioned
placements: regular placements form an open dense set, so any absolutely
continuous sampling distribution finds one almost surely.  A rank value is
reported "stable" when at least two sampled placements agree on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .geometry import LqSpace, Placement, RigidityMatrix, rigidity_matrix
from .graphs import Graph

DEFAULT_REL_TOL = 1e-10
DEFAULT_TRIALS = 8
_RESAMPLE_BUDGET = 64


@dataclass(frozen=True)
class RankResult:
    rank: int
    singular_values: tuple[float, ...]
    tolerance_used: float
    trials: int
    witness: Optional[Placement]
    trial_ranks: tuple[int, ...]
    stable: bool


@dataclass(frozen=True)
class Verdict:
    independent: bool
    rigid: bool
    minimally_rigid: bool
    stress_dim: int
    target_rank: int
    rank: int
    stable: bool


def _as_array(m: Union[RigidityMatrix, np.ndarray]) -> np.ndarray:
    if isinstance(m, RigidityMatrix):
        return m.entries
    return np.asarray(m, dtype=float)


def _cutoff_rank(sv: np.ndarray, shape: tuple, rel_tol: float) -> tuple[int, float]:
    """Rank and cutoff under the rule of `numerical_rank`, for `cokernel_basis` too."""
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    cutoff = rel_tol * float(sv.max(initial=0.0)) * max(shape)
    return int(np.count_nonzero(sv > cutoff)), cutoff


def numerical_rank(
    m: Union[RigidityMatrix, np.ndarray], rel_tol: float = DEFAULT_REL_TOL
) -> RankResult:
    """Rank = number of singular values above rel_tol * sigma_max * max(rows, cols);
    rel_tol must be positive."""
    a = _as_array(m)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    sv = np.linalg.svd(a, compute_uv=False)
    rank, cutoff = _cutoff_rank(sv, a.shape, rel_tol)
    return RankResult(rank, tuple(float(s) for s in sv), cutoff, 1, None, (rank,), True)


def sample_placement(
    g: Graph, space: LqSpace, rng: np.random.Generator
) -> Placement:
    """Uniform [-1, 1]^d coordinates, resampled while some edge is coincident."""
    for _ in range(_RESAMPLE_BUDGET):
        p = Placement(space.d, rng.uniform(-1.0, 1.0, size=(g.n, space.d)))
        if p.well_positioned(g):
            return p
    raise RuntimeError("failed to sample a well-positioned placement")


def rank_at(
    g: Graph,
    placement: Placement,
    space: LqSpace,
    rel_tol: float = DEFAULT_REL_TOL,
    form: str = "altered",
) -> RankResult:
    """Rank of the rigidity matrix at one explicit placement."""
    res = numerical_rank(rigidity_matrix(g, placement, space, form=form), rel_tol)
    return RankResult(
        res.rank, res.singular_values, res.tolerance_used, 1, placement, (res.rank,), True
    )


def max_rank_sample(
    g: Graph,
    space: LqSpace,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    rel_tol: float = DEFAULT_REL_TOL,
) -> RankResult:
    """Maximum altered-matrix rank over `trials` sampled placements.

    Trial i draws from its own generator seeded by (seed, i), so results are
    identical regardless of evaluation order and extending the trial count
    only appends new samples.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    best: Optional[RankResult] = None
    ranks: list[int] = []
    for i in range(trials):
        rng = np.random.default_rng([seed, i])
        p = sample_placement(g, space, rng)
        res = rank_at(g, p, space, rel_tol)
        ranks.append(res.rank)
        if best is None or res.rank > best.rank:
            best = res
    assert best is not None
    top = max(ranks)
    return RankResult(
        rank=top,
        singular_values=best.singular_values,
        tolerance_used=best.tolerance_used,
        trials=trials,
        witness=best.witness,
        trial_ranks=tuple(ranks),
        stable=ranks.count(top) >= 2,
    )


def verdict(
    g: Graph,
    space: LqSpace,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    rel_tol: float = DEFAULT_REL_TOL,
) -> Verdict:
    """Independence/rigidity verdict from sampled maximal rank.

    independent <=> rank = |E|; rigid <=> rank = d|V| - dim(isometries),
    which is d|V| - d for q != 2 and d|V| - d(d+1)/2 at q = 2.
    """
    res = max_rank_sample(g, space, trials=trials, seed=seed, rel_tol=rel_tol)
    target = space.target_rank(g.n)
    independent = res.rank == g.m
    rigid = res.rank == target
    return Verdict(
        independent=independent,
        rigid=rigid,
        minimally_rigid=independent and rigid,
        stress_dim=g.m - res.rank,
        target_rank=target,
        rank=res.rank,
        stable=res.stable,
    )


def cokernel_basis(
    m: Union[RigidityMatrix, np.ndarray], rel_tol: float = DEFAULT_REL_TOL
) -> np.ndarray:
    """Orthonormal basis of the left null space (self-stresses), one per
    row, with the rank taken under the tolerance rule of `numerical_rank`."""
    a = _as_array(m)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    u, sv, _ = np.linalg.svd(a, full_matrices=True)
    rank, _ = _cutoff_rank(sv, a.shape, rel_tol)
    return np.ascontiguousarray(u[:, rank:].T)


def analysis_report(
    g: Graph,
    space: LqSpace,
    vd: Verdict,
    trials: int,
    seed: int,
) -> dict:
    """AnalysisReport object matching the documented JSON schema."""
    return {
        "graph": g.to_json_dict(),
        "d": space.d,
        "q": space.q,
        "rank": vd.rank,
        "target_rank": vd.target_rank,
        "independent": vd.independent,
        "rigid": vd.rigid,
        "minimally_rigid": vd.minimally_rigid,
        "stress_dim": vd.stress_dim,
        "trials": trials,
        "seed": seed,
        "stable": vd.stable,
    }
