"""Command-line front end: analysis, sparsity checks, operations,
generation and the conjecture scan.

Every subcommand emits a single JSON document on stdout (or --out).  Exit
codes: 0 = ran to completion (whatever the mathematical outcome), 2 =
malformed input or invalid configuration, 3 = ill-positioned explicit
placement.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import groupby, product
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .geometry import DEFAULT_Q_GAP, IllPositionedError, LqSpace, Placement, rigidity_matrix
from .graphs import Graph, SparsityParams, f_count, is_sparse
from .operations import OPERATIONS, henneberg_generate, random_degree_bounded_sparse
from .rank import DEFAULT_REL_TOL, DEFAULT_TRIALS, max_rank_samples, numerical_rank, verdict
from . import oracles, surfaces


class InputError(ValueError):
    """Malformed file, flag or configuration (exit code 2)."""


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> Graph:
    try:
        return Graph.from_json_dict(_load_json(path))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_placement(path: str) -> Placement:
    try:
        return Placement.from_json_dict(_load_json(path))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _space(d: int, q: float) -> LqSpace:
    try:
        return LqSpace(d, q)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _check_sampling(trials: int, seed: int, rel_tol: float) -> None:
    """The sampling settings that analyze and scan share."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    if seed < 0:
        raise InputError("seed must be >= 0")
    # From rel_tol = 1 on, the cutoff reaches the largest singular value and
    # every rank reads 0.
    if not 0 < rel_tol < 1:
        raise InputError("tol must lie in (0, 1)")


# -- analyze -----------------------------------------------------------------


def run_analyze(
    graph_file: str,
    d: int,
    q: float,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    placement_file: Optional[str] = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> dict:
    """Sampled-rank verdict for one graph, optionally comparing an explicit
    placement against the sampled maximum."""
    _check_sampling(trials, seed, rel_tol)
    g = _load_graph(graph_file)
    space = _space(d, q)
    vd = verdict(g, space, trials=trials, seed=seed, rel_tol=rel_tol)
    report = {
        "graph": g.to_json_dict(),
        "d": d,
        "q": q,
        **vd.to_json_dict(),
        "trials": trials,
        "seed": seed,
    }
    if placement_file is not None:
        p = _load_placement(placement_file)
        if p.d != d or p.n != g.n:
            raise InputError("placement shape does not match the graph and dimension")
        placement_rank = numerical_rank(
            rigidity_matrix(g, p, space), rel_tol=rel_tol
        ).rank
        report["placement_rank"] = placement_rank
        report["regular"] = placement_rank == vd.rank
    return report


# -- scan --------------------------------------------------------------------


class Source(NamedTuple):
    """A scan source: its smallest graph in dimension d, and how it makes
    the i-th graph on n vertices from a seed as (graph, log, base).  `base`
    names the complex a surface log starts from, and is None elsewhere."""

    lo: Callable[[int], int]
    make: Callable[[int, int, int, int], tuple[Graph, list, Optional[str]]]
    # Triangulations of this surface, which are frameworks in d = 3 only.
    surface: Optional[str] = None


def _surface_source(surface: str, lo: int, base_of: Callable[[int, int], str]) -> Source:
    def make(d: int, n: int, seed: int, i: int) -> tuple[Graph, list, str]:
        base = base_of(n, i)
        tri, log = surfaces.generate_triangulation(surface, n, seed, base=base)
        return tri.graph, log, base

    return Source(lambda d: lo, make, surface)


SOURCES: dict[str, Source] = {
    "henneberg": Source(lambda d: 2 * d, lambda d, n, s, i: (*henneberg_generate(d, n, s), None)),
    "sphere": _surface_source(surfaces.SPHERE, 4, lambda n, i: "K4"),
    "projective": _surface_source(
        surfaces.PROJECTIVE_PLANE, 6, lambda n, i: "K7_minus_K3" if n >= 7 and i % 2 else "K6"
    ),
    "degree_bounded": Source(
        lambda d: d + 2, lambda d, n, s, i: (random_degree_bounded_sparse(d, n, s), [], None)
    ),
}


@dataclass(frozen=True)
class ScanConfig:
    """Configuration of the conjecture scan."""

    d: int
    q_list: tuple[float, ...]
    max_n: int
    count: int = 5
    seed: int = 0
    trials: int = DEFAULT_TRIALS
    sources: tuple[str, ...] = ("henneberg",)
    rel_tol: float = DEFAULT_REL_TOL
    allow_near_euclidean: bool = False

    def __post_init__(self) -> None:
        _check_sampling(self.trials, self.seed, self.rel_tol)
        if self.count < 1:
            raise InputError("count must be >= 1")
        if not self.q_list:
            raise InputError("at least one exponent q is required")
        for q in self.q_list:
            _space(self.d, q)
            if abs(q - 2.0) < DEFAULT_Q_GAP and not self.allow_near_euclidean:
                raise InputError(
                    f"q={q} is within {DEFAULT_Q_GAP} of the Euclidean point; "
                    "rank verdicts there are ambiguous (override to force)"
                )
        if not self.sources:
            raise InputError("at least one source is required")
        for s in self.sources:
            if s not in SOURCES:
                raise InputError(f"unknown source {s!r}")
            if SOURCES[s].surface and self.d != 3:
                raise InputError("surface sources require d = 3")
        smallest = min(SOURCES[s].lo(self.d) for s in self.sources)
        if self.max_n < smallest:
            raise InputError(
                f"max_n={self.max_n} is below n={smallest}, the smallest graph of any source"
            )


def _scan_instances(config: ScanConfig) -> Iterator[dict]:
    """Yield the graphs to scan by source, then n, then i, each with its
    replay data: `source, n, seed, base, graph, log`.  `base` names the
    complex a surface log starts from and is None elsewhere; `log` holds
    the `OpRecord`s.  Each child seed is drawn from the master generator
    just before its graph is made."""
    master = np.random.default_rng(config.seed)
    for source in config.sources:
        src = SOURCES[source]
        for n in range(src.lo(config.d), config.max_n + 1):
            for i in range(config.count):
                s = int(master.integers(2**63))
                g, log, base = src.make(config.d, n, s, i)
                yield {"source": source, "n": n, "seed": s, "base": base, "graph": g, "log": log}


def run_scan(config: ScanConfig) -> dict:
    """Run verdicts over every (graph, q) cell and tabulate the outcomes.

    Cells where the sampled rank is stable and equals |E| count as
    "predicted" (the conjecture's prediction for sparse inputs); stable
    rank-deficient cells are dumped as replayable candidate counterexamples;
    unstable cells are "marginal".  Candidates are reported, never
    auto-classified as disproofs.

    The instances of one (source, n) are judged in one `max_rank_samples`
    call and tallied at once, so memory is bounded by one such block; each
    verdict is the one its cell gets alone, so the blocks do not change it.
    """
    graphs = predicted = marginal = 0
    candidates = []
    for _, block in groupby(_scan_instances(config), key=itemgetter("source", "n")):
        block = list(block)
        graphs += len(block)
        cells = list(product(block, config.q_list))
        verdicts = max_rank_samples(
            [(inst["graph"], _space(config.d, q), inst["seed"]) for inst, q in cells],
            config.trials,
            config.rel_tol,
        )
        for (inst, q), vd in zip(cells, verdicts):
            if not vd.stable:
                marginal += 1
            elif vd.independent:
                predicted += 1
            else:
                candidates.append(
                    {
                        **inst,
                        "graph": inst["graph"].to_json_dict(),
                        "log": [r.to_json_dict() for r in inst["log"]],
                        "q": q,
                        "d": config.d,
                        "trials": config.trials,
                        **vd.to_json_dict(),
                    }
                )

    return {
        "d": config.d,
        "q_list": list(config.q_list),
        "sources": list(config.sources),
        "max_n": config.max_n,
        "count": config.count,
        "seed": config.seed,
        "trials": config.trials,
        "totals": {
            "cells": graphs * len(config.q_list),
            "graphs": graphs,
            "predicted": predicted,
            "candidates": len(candidates),
            "marginal": marginal,
        },
        "candidates": candidates,
    }


# -- subcommands -----------------------------------------------------------------
# Each runner reads the flags of its own subparser and returns the document.


def _cmd_analyze(args: argparse.Namespace) -> dict:
    reports = [
        run_analyze(
            args.graph,
            args.d,
            q,
            trials=args.trials,
            seed=args.seed,
            placement_file=args.placement,
            rel_tol=args.tol,
        )
        for q in args.q
    ]
    return reports[0] if len(reports) == 1 else {"reports": reports}


def _cmd_scan(args: argparse.Namespace) -> dict:
    config = ScanConfig(
        d=args.d,
        q_list=args.q,
        max_n=args.max_n,
        count=args.count,
        seed=args.seed,
        trials=args.trials,
        sources=tuple(s for s in args.sources.split(",") if s),
        rel_tol=args.tol,
        allow_near_euclidean=args.allow_near_euclidean,
    )
    return run_scan(config)


def _cmd_sparsity(args: argparse.Namespace) -> dict:
    if args.d is not None and args.d < 1:
        raise InputError("d must be >= 1")
    g = _load_graph(args.graph)
    if args.k is not None:
        l = 0 if args.l is None else args.l
        multiplier = 1 if args.multiplier is None else args.multiplier
        try:
            params = SparsityParams(args.k, l, multiplier)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    else:
        if args.d is None or args.l is not None or args.multiplier is not None:
            raise InputError("need either -d or --k; --l and --multiplier need --k")
        params = SparsityParams(args.d, args.d)
    sparse = is_sparse(g, params)
    count = params.k * g.n - params.edge_multiplier * g.m
    out = {
        "graph": g.to_json_dict(),
        "k": params.k,
        "l": params.l,
        "edge_multiplier": params.edge_multiplier,
        "sparse": sparse,
        "tight": bool(sparse and count == params.l),
    }
    if args.d is not None:
        out["f"] = f_count(g, args.d)
    return out


def _cmd_op(args: argparse.Namespace) -> dict:
    op = OPERATIONS.get(args.kind)
    if op is None:
        raise InputError(f"unknown operation {args.kind!r}")
    if op.needs_d and args.d is None:
        raise InputError("op needs -d")
    if args.d is not None and not op.needs_d:
        raise InputError(f"{args.kind} takes no -d")
    if args.h_graph is not None and args.kind != "subst":
        raise InputError("--h-graph is for subst only")
    g = _load_graph(args.graph)
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise InputError(f"bad --params: {exc}") from exc
    given = {"d": args.d} if op.needs_d else {}
    if args.kind == "subst":
        if not args.h_graph:
            raise InputError("subst needs --h-graph")
        given["h"] = _load_graph(args.h_graph).to_json_dict()
    try:
        res = op.apply(g, {**params, **given})
    except (KeyError, TypeError) as exc:
        raise InputError(f"missing or bad operation parameter: {exc}") from exc
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if res is None:
        return {"graph": None, "record": None, "reduction_found": False}
    out, rec = res
    return {"graph": out.to_json_dict(), "record": rec.to_json_dict(), "reduction_found": True}


def _cmd_gen(args: argparse.Namespace) -> dict:
    if args.base and not args.surface:
        raise InputError("--base needs --surface")
    if args.surface:
        if args.d not in (None, 3):
            raise InputError("surface triangulations are frameworks in d = 3 only")
        try:
            tri, log = surfaces.generate_triangulation(
                SOURCES[args.surface].surface, args.n, args.seed, base=args.base
            )
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        return {
            "triangulation": tri.to_json_dict(),
            "graph": tri.graph.to_json_dict(),
            "log": [r.to_json_dict() for r in log],
        }
    if args.d is None:
        raise InputError("gen needs either --surface or -d")
    try:
        g, log = henneberg_generate(args.d, args.n, args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return {"graph": g.to_json_dict(), "log": [r.to_json_dict() for r in log]}


class Oracle(NamedTuple):
    """A closed-form oracle: its function and the flags it takes, in the
    order of its arguments."""

    fn: Callable[..., float]
    params: tuple[str, ...]
    # A missing --gamma defaults to oracles.select_gamma(q).
    selects_gamma: bool = False


ORACLES: dict[str, Oracle] = {
    "wheel_det": Oracle(oracles.wheel_det, ("q",)),
    "circulant_det": Oracle(oracles.circulant_det, ("d", "q")),
    "k4_gamma_det": Oracle(oracles.k4_gamma_det, ("gamma", "q"), selects_gamma=True),
    "k7k3_detR": Oracle(oracles.k7k3_detR, ("gamma", "q"), selects_gamma=True),
    "gamma_select": Oracle(oracles.select_gamma, ("q",)),
    "k7k3_f": Oracle(oracles.k7k3_f, ("gamma", "q")),
}
_FLAGS = {"d": "-d", "gamma": "--gamma"}


def _cmd_oracle(args: argparse.Namespace) -> dict:
    name = args.name
    if name not in ORACLES:
        raise InputError(f"unknown oracle {name!r}")
    if not 1.0 < args.q < np.inf:
        raise InputError("q must lie in (1, inf)")
    oracle = ORACLES[name]
    given = {"d": args.d, "q": args.q, "gamma": args.gamma}
    unread = [flag for p, flag in _FLAGS.items() if given[p] is not None and p not in oracle.params]
    if unread:
        raise InputError(f"{name} takes no " + " or ".join(unread))
    try:
        if oracle.selects_gamma and args.gamma is None:
            given["gamma"] = oracles.select_gamma(args.q)
        missing = [_FLAGS[p] for p in oracle.params if given[p] is None]
        if missing:
            raise InputError(f"{name} needs " + " and ".join(missing))
        params = {p: given[p] for p in oracle.params}
        value = oracle.fn(*params.values())
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return {"name": name, "params": params, "value": float(value)}


# -- argument parsing ----------------------------------------------------------


def _q_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad exponent list {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, holding its runner as `run` and only the
    flags that runner reads."""
    ap = argparse.ArgumentParser(
        prog="lqrig",
        description="independence and rigidity of graphs in d-dimensional l_q spaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        return p

    def sampling(p: argparse.ArgumentParser) -> None:
        """The flags of the sampled verdicts that analyze and scan take."""
        p.add_argument("-d", type=int, required=True, help="dimension")
        p.add_argument("-q", type=_q_list, required=True, help="exponents, comma separated")
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=DEFAULT_REL_TOL)

    p = command("analyze", _cmd_analyze, "rank/independence/rigidity verdict")
    p.add_argument("--graph", required=True, help="graph JSON file")
    sampling(p)
    p.add_argument("--placement", default=None, help="explicit placement JSON file")

    p = command("sparsity", _cmd_sparsity, "(k,l)-sparsity and tightness check")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("-d", type=int, default=None, help="dimension")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None, help="default 0; needs --k")
    p.add_argument("--multiplier", type=int, default=None, help="default 1; needs --k")

    p = command("op", _cmd_op, "apply one graph operation")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("-d", type=int, default=None, help="dimension")
    p.add_argument("--kind", required=True, help="|".join(OPERATIONS))
    p.add_argument("--params", default=None, help="operation parameters as JSON")
    p.add_argument("--h-graph", default=None, help="graph JSON for subst")

    p = command("gen", _cmd_gen, "random tight graph or surface triangulation")
    p.add_argument("-d", type=int, default=None, help="dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--surface", choices=("sphere", "projective"), default=None)
    p.add_argument("--base", choices=surfaces.BASE_NAMES, default=None)

    p = command("scan", _cmd_scan, "conjecture scan over generated graphs")
    sampling(p)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--sources", default="henneberg", help="comma list of sources")
    p.add_argument("--allow-near-euclidean", action="store_true")

    p = command("oracle", _cmd_oracle, "evaluate a closed-form oracle")
    p.add_argument("--name", required=True, help="|".join(ORACLES))
    p.add_argument("-d", type=int, default=None, help="dimension")
    p.add_argument("-q", type=float, required=True, help="exponent")
    p.add_argument("--gamma", type=float, default=None)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        document = args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IllPositionedError as exc:
        print(f"error: ill-positioned placement: {exc}", file=sys.stderr)
        return 3
    text = json.dumps(document, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
