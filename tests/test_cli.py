import json
import re
import tracemalloc

import numpy as np
import pytest

from lqrig import cli
from lqrig.cli import InputError, ScanConfig, main, run_analyze, run_scan
from lqrig.geometry import LqSpace, Placement, rigidity_matrix
from lqrig.graphs import Graph, complete_graph, wheel_graph
from lqrig.operations import OpRecord, apply_record, henneberg_generate, one_extension
from lqrig.oracles import wheel_degenerate_placement
from lqrig.rank import Verdict, numerical_rank
from lqrig.surfaces import base_complex, replay_splits, validate

# The keys that the analysis report and every scan candidate share.
VERDICT_KEYS = {
    "rank", "edge_count", "target_rank", "independent", "rigid", "minimally_rigid",
    "stress_dim", "stable", "certified", "trial_ranks", "tolerance_used", "sv_gap",
    "witness_placement",
}
ANALYZE_KEYS = {"graph", "d", "q", "trials", "seed"} | VERDICT_KEYS
CANDIDATE_KEYS = {"source", "base", "q", "d", "seed", "trials", "graph", "log"} | VERDICT_KEYS
ALL_SOURCES = ("henneberg", "sphere", "projective", "degree_bounded")
BAD_SAMPLING = [
    ("--trials", "0"), ("--tol", "0"), ("--tol", "-1"), ("--tol", "1"), ("--tol", "inf"),
    ("--seed", "-1"),
]
# Each subcommand takes only the flags that it reads; these belong to others.
FOREIGN_FLAGS = {
    "gen --tol": ["gen", "-d", "2", "--n", "5", "--tol", "5"],
    "op --trials": ["op", "--graph", "{wheel}", "--kind", "cone", "--trials", "3"],
    "sparsity -q": ["sparsity", "--graph", "{wheel}", "-d", "2", "-q", "3"],
    "oracle --seed": ["oracle", "--name", "wheel_det", "-q", "3", "--seed", "1"],
    "oracle -q list": ["oracle", "--name", "wheel_det", "-q", "3,4"],
}


@pytest.fixture
def wheel_file(tmp_path):
    path = tmp_path / "wheel.json"
    path.write_text(json.dumps(wheel_graph(5).to_json_dict()))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def witness_rank(doc: dict) -> int:
    """Rank of a report's or candidate's graph at its witness placement."""
    g = Graph.from_json_dict(doc["graph"])
    p = Placement.from_json_dict(doc["witness_placement"])
    return numerical_rank(rigidity_matrix(g, p, LqSpace(doc["d"], doc["q"]))).rank


def flat_verdict(g, space):
    """A stable verdict at a placement in the plane z = 0, where a graph
    with more than 2|V| - 2 edges loses rank in d = 3."""
    rng = np.random.default_rng(g.m)
    p = Placement(3, np.column_stack([rng.uniform(-1, 1, (g.n, 2)), np.zeros(g.n)]))
    res = numerical_rank(rigidity_matrix(g, p, space))
    return Verdict(
        res.rank, g.m, space.target_rank(g.n), (res.rank, res.rank), p, False, lambda: res
    )


def flat_verdicts(cells, *args):
    """`flat_verdict` of each (graph, space, seed) cell."""
    return [flat_verdict(g, space) for g, space, _ in cells]


class TestAnalyze:
    def test_wheel_report(self, wheel_file, capsys):
        code, report = run_cli(
            ["analyze", "--graph", wheel_file, "-d", "2", "-q", "3"], capsys
        )
        assert code == 0
        assert report["rank"] == 8
        assert report["minimally_rigid"] is True
        assert report["stress_dim"] == 0
        assert report["stable"] is True
        assert report["graph"]["n"] == 5

    def test_multiple_exponents(self, wheel_file, capsys):
        code, doc = run_cli(
            ["analyze", "--graph", wheel_file, "-d", "2", "-q", "1.5,3"], capsys
        )
        assert code == 0
        assert [r["q"] for r in doc["reports"]] == [1.5, 3.0]

    def test_degenerate_placement_flagged(self, wheel_file, tmp_path, capsys):
        pfile = tmp_path / "placement.json"
        pfile.write_text(json.dumps(wheel_degenerate_placement().to_json_dict()))
        code, report = run_cli(
            [
                "analyze",
                "--graph",
                wheel_file,
                "-d",
                "2",
                "-q",
                "3",
                "--placement",
                str(pfile),
            ],
            capsys,
        )
        assert code == 0
        assert report["rank"] == 8
        assert report["placement_rank"] <= 7
        assert report["regular"] is False

    def test_malformed_graph_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["analyze", "--graph", str(bad), "-d", "2", "-q", "3"])
        assert code == 2
        # A float or bool vertex is rejected, not truncated to another graph.
        for obj in [
            {"n": 2, "edges": [[0, 0]]},
            {"n": 3.9, "edges": [[0.9, 2], [True, 2]]},
            {"n": 3, "edges": [[0, 2], [True, 2]]},
        ]:
            bad.write_text(json.dumps(obj))
            assert main(["analyze", "--graph", str(bad), "-d", "2", "-q", "3"]) == 2

    def test_malformed_placement_exits_2(self, wheel_file, tmp_path, capsys):
        pfile = tmp_path / "p.json"
        argv = ["analyze", "--graph", wheel_file, "-d", "2", "-q", "3", "--placement", str(pfile)]
        coords = wheel_degenerate_placement().to_json_dict()["coords"]
        for bad in ([str(x) for x in coords[0]], [True, False]):
            pfile.write_text(json.dumps({"d": 2, "coords": [bad, *coords[1:]]}))
            assert main(argv) == 2, bad
        assert "malformed placement object" in capsys.readouterr().err

    def test_ill_positioned_placement_exits_3(self, tmp_path, capsys):
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps(Graph(2, [(0, 1)]).to_json_dict()))
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps({"d": 2, "coords": [[1.0, 1.0], [1.0, 1.0]]}))
        code = main(
            ["analyze", "--graph", str(gfile), "-d", "2", "-q", "3", "--placement", str(pfile)]
        )
        assert code == 3
        assert "(0, 1)" in capsys.readouterr().err

    def test_report_json_round_trip(self, wheel_file, capsys):
        code, report = run_cli(
            ["analyze", "--graph", wheel_file, "-d", "2", "-q", "3", "--trials", "3"], capsys
        )
        assert code == 0
        assert set(report) == ANALYZE_KEYS
        # Sampling stops at the first trial that reaches min(|E|, 2|V| - 2) = 8
        # and is certified.
        assert report["trials"] == 3 and report["trial_ranks"] == [8]
        assert report["certified"] is True and report["stable"] is True
        assert max(report["trial_ranks"]) == report["rank"] == witness_rank(report)
        assert report["edge_count"] == 8 and report["tolerance_used"] > 0
        # Full rank on 8 rows of 10 columns: nothing is dropped.
        kept, dropped = report["sv_gap"]
        assert kept > 1 and dropped is None

    @pytest.mark.parametrize("flag,value", BAD_SAMPLING)
    def test_bad_sampling_flag_exit_2(self, wheel_file, flag, value, capsys):
        assert main(["analyze", "--graph", wheel_file, "-d", "2", "-q", "3", flag, value]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_file(self, wheel_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["analyze", "--graph", wheel_file, "-d", "2", "-q", "3", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["rank"] == 8


class TestSparsity:
    def test_dd_count(self, wheel_file, capsys):
        code, doc = run_cli(["sparsity", "--graph", wheel_file, "-d", "2"], capsys)
        assert code == 0
        assert doc["sparse"] is True and doc["tight"] is True and doc["f"] == 2

    def test_half_integer_count(self, tmp_path, capsys):
        gfile = tmp_path / "k4.json"
        gfile.write_text(json.dumps(complete_graph(4).to_json_dict()))
        code, doc = run_cli(
            ["sparsity", "--graph", str(gfile), "--k", "5", "--l", "7", "--multiplier", "2"],
            capsys,
        )
        assert code == 0
        assert doc["sparse"] is True

    def test_invalid_params_exit_2(self, wheel_file, capsys):
        assert main(["sparsity", "--graph", wheel_file, "--k", "2", "--l", "5"]) == 2

    @pytest.mark.parametrize("flags", [["-d", "0"], ["--k", "2", "--l", "1", "-d", "0"]])
    def test_bad_dimension_exit_2(self, wheel_file, flags, capsys):
        assert main(["sparsity", "--graph", wheel_file, *flags]) == 2

    @pytest.mark.parametrize(
        "flags", [["--l", "3"], ["--multiplier", "2"], ["--l", "3", "--multiplier", "2"]]
    )
    def test_count_flags_need_k(self, wheel_file, flags, capsys):
        assert main(["sparsity", "--graph", wheel_file, "-d", "2", *flags]) == 2
        assert "--k" in capsys.readouterr().err


class TestOp:
    def test_cone(self, wheel_file, capsys):
        code, doc = run_cli(["op", "--graph", wheel_file, "--kind", "cone"], capsys)
        assert code == 0
        assert doc["graph"]["n"] == 6
        assert doc["record"]["kind"] == "cone"

    def test_ext0(self, wheel_file, capsys):
        code, doc = run_cli(
            [
                "op",
                "--graph",
                wheel_file,
                "--kind",
                "ext0",
                "-d",
                "2",
                "--params",
                '{"s": [1, 2]}',
            ],
            capsys,
        )
        assert code == 0
        assert doc["graph"]["n"] == 6

    def test_subst(self, wheel_file, tmp_path, capsys):
        hfile = tmp_path / "h.json"
        hfile.write_text(json.dumps(complete_graph(4).to_json_dict()))
        code, doc = run_cli(
            [
                "op",
                "--graph",
                wheel_file,
                "--kind",
                "subst",
                "--h-graph",
                str(hfile),
                "--params",
                '{"v0": 0, "assign": {"1": 1, "2": 2, "3": 3, "4": 1}}',
            ],
            capsys,
        )
        assert code == 0
        assert doc["graph"]["n"] == 8 and len(doc["graph"]["edges"]) == 14

    def test_reduce1(self, tmp_path, capsys):
        g, _ = one_extension(complete_graph(4), [0, 1, 2], (0, 1), 2)
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps(g.to_json_dict()))
        code, doc = run_cli(
            ["op", "--graph", str(gfile), "--kind", "reduce1", "-d", "2", "--params", '{"v": 4}'],
            capsys,
        )
        assert code == 0
        assert doc["reduction_found"] is True
        assert doc["graph"]["n"] == 4

    @pytest.mark.parametrize("v", [-1, 12])
    def test_reduce1_vertex_out_of_range_exit_2(self, tmp_path, v, capsys):
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps(henneberg_generate(3, 12, 0)[0].to_json_dict()))
        argv = ["op", "--graph", str(gfile), "--kind", "reduce1", "-d", "3"]
        assert main([*argv, "--params", json.dumps({"v": v})]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_reduce1_invalid_record_exit_2(self, tmp_path, capsys):
        # Vertex 0 has degree 4, not 3, and the pair holds vertex 0 itself.
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps(henneberg_generate(2, 8, 0)[0].to_json_dict()))
        argv = ["op", "--graph", str(gfile), "--kind", "reduce1", "-d", "2"]
        assert main([*argv, "--params", json.dumps({"v": 0, "added": [0, 5]})]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "degree" in captured.err

    def test_unread_flag_exit_2(self, wheel_file, capsys):
        # cone takes no dimension, and only subst reads a second graph
        argvs = [
            ["--kind", "cone", "-d", "2"],
            ["--kind", "subst", "-d", "2", "--h-graph", wheel_file],
            ["--kind", "ext0", "-d", "2", "--params", '{"s": [1, 2]}', "--h-graph", wheel_file],
            ["--kind", "cone", "--h-graph", wheel_file],
        ]
        for argv in argvs:
            assert main(["op", "--graph", wheel_file, *argv]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and "error:" in captured.err

    def test_bad_params_exit_2(self, wheel_file, capsys):
        assert (
            main(["op", "--graph", wheel_file, "--kind", "brace", "-d", "2", "--params", "{}"])
            == 2
        )
        assert (
            main(
                ["op", "--graph", wheel_file, "--kind", "ext0", "-d", "2", "--params", '{"s": [1]}']
            )
            == 2
        )


class TestGen:
    def test_henneberg_base(self, capsys):
        code, doc = run_cli(["gen", "-d", "2", "--n", "4", "--seed", "0"], capsys)
        assert code == 0
        assert Graph.from_json_dict(doc["graph"]) == complete_graph(4)
        assert doc["log"] == []

    def test_henneberg_deterministic(self, capsys):
        _, a = run_cli(["gen", "-d", "3", "--n", "9", "--seed", "5"], capsys)
        _, b = run_cli(["gen", "-d", "3", "--n", "9", "--seed", "5"], capsys)
        assert a == b

    def test_surface(self, capsys):
        code, doc = run_cli(
            ["gen", "--surface", "projective", "--base", "K7mK3", "--n", "9", "--seed", "1"],
            capsys,
        )
        assert code == 0
        tri = doc["triangulation"]
        assert tri["n"] == 9 and len(tri["faces"]) == 16  # F = 1 - n + (3n - 3)
        assert len(doc["graph"]["edges"]) == 3 * 9 - 3

    def test_too_small_exit_2(self, capsys):
        assert main(["gen", "-d", "3", "--n", "2", "--seed", "0"]) == 2

    def test_base_takes_table_names(self, capsys):
        # scan candidates name their base "K7_minus_K3"; the alias stays accepted
        docs = [
            run_cli(
                ["gen", "--surface", "projective", "--base", base, "--n", "9", "--seed", "1"],
                capsys,
            )
            for base in ("K7_minus_K3", "K7mK3")
        ]
        assert docs[0][0] == 0 and docs[0] == docs[1]

    def test_surface_needs_d3(self, capsys):
        for d in ("2", "4"):
            assert main(["gen", "--surface", "sphere", "-d", d, "--n", "6"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "d = 3" in captured.err
        # -d 3 is the dimension the triangulation is a framework in
        argv = ["gen", "--surface", "sphere", "--n", "6"]
        assert run_cli([*argv, "-d", "3"], capsys) == run_cli(argv, capsys)

    def test_base_without_surface_exit_2(self, capsys):
        assert main(["gen", "--base", "K6", "-d", "3", "--n", "8"]) == 2
        assert "--surface" in capsys.readouterr().err


class TestOracleCommand:
    def test_wheel_det(self, capsys):
        code, doc = run_cli(["oracle", "--name", "wheel_det", "-q", "3"], capsys)
        assert code == 0 and doc["value"] == 2.0

    def test_gamma_select(self, capsys):
        code, doc = run_cli(["oracle", "--name", "gamma_select", "-q", "3"], capsys)
        assert code == 0 and doc["value"] != 0.5

    def test_unknown_exit_2(self, capsys):
        assert main(["oracle", "--name", "nope", "-q", "3"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["wheel_det", "-d", "7", "--gamma", "0.3"],
            ["wheel_det", "-d", "7"],
            ["gamma_select", "--gamma", "0.3"],
            ["circulant_det", "-d", "3", "--gamma", "0.3"],
            ["k7k3_f", "-d", "3", "--gamma", "0.3"],
            ["k4_gamma_det", "-d", "2"],
        ],
    )
    def test_unread_flag_exit_2(self, argv, capsys):
        assert main(["oracle", "--name", *argv, "-q", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "takes no" in captured.err

    @pytest.mark.parametrize("name", ["gamma_select", "k7k3_detR", "k4_gamma_det"])
    @pytest.mark.parametrize("q", ["2", "2.0000001"])
    def test_no_gamma_qualifies_exit_2(self, name, q, capsys):
        # f vanishes at q = 2, so no gamma of the scan qualifies
        assert main(["oracle", "--name", name, "-q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "no gamma" in captured.err

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-0.5", "1.5", "1e300"])
    def test_k7k3_f_gamma_outside_range_exit_2(self, gamma, capsys):
        assert main(["oracle", "--name", "k7k3_f", "-q", "3", "--gamma", gamma]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    @pytest.mark.parametrize("name", ["wheel_det", "gamma_select", "k7k3_f"])
    @pytest.mark.parametrize("q", ["0.5", "1", "-2", "inf", "nan"])
    def test_q_outside_range_exit_2(self, name, q, capsys):
        args = ["oracle", "--name", name, "-q", q, "--gamma", "0.3"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize("argv", FOREIGN_FLAGS.values(), ids=FOREIGN_FLAGS)
def test_foreign_flag_exit_2(argv, wheel_file, capsys):
    # argparse rejects the flag by raising SystemExit rather than returning.
    with pytest.raises(SystemExit) as exc:
        main([arg.format(wheel=wheel_file) for arg in argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


class TestScan:
    def test_small_scan_partition(self, capsys):
        code, doc = run_cli(
            [
                "scan",
                "-d",
                "2",
                "-q",
                "1.5,3",
                "--max-n",
                "6",
                "--count",
                "2",
                "--seed",
                "0",
                "--trials",
                "4",
            ],
            capsys,
        )
        assert code == 0
        totals = doc["totals"]
        assert totals["cells"] == totals["predicted"] + totals["candidates"] + totals["marginal"]
        assert totals["candidates"] == 0  # the d = 2 case is a theorem
        assert totals["cells"] == totals["graphs"] * 2

    def test_one_trial_cells_are_certified(self, capsys):
        # One trial never agrees with another, so a cell is stable only
        # when its trial is certified; before certificates every cell here
        # was marginal.
        argv = ["scan", "-d", "3", "-q", "1.5,3", "--max-n", "10", "--count", "2"]
        code, doc = run_cli(argv + ["--seed", "4", "--trials", "1"], capsys)
        assert code == 0
        totals = doc["totals"]
        assert totals["marginal"] == 0 and totals["predicted"] == totals["cells"] == 20

    @pytest.mark.parametrize("sources", ["", ",", ",,"])
    def test_no_source_exit_2(self, sources, capsys):
        argv = ["scan", "-d", "3", "-q", "3", "--max-n", "6", "--sources", sources]
        assert main(argv) == 2
        assert "at least one source" in capsys.readouterr().err

    def test_sources_mix(self):
        summary = run_scan(
            ScanConfig(
                d=3,
                q_list=(3.0,),
                max_n=8,
                count=1,
                seed=1,
                trials=4,
                sources=("henneberg", "sphere", "projective", "degree_bounded"),
            )
        )
        totals = summary["totals"]
        assert totals["cells"] == totals["predicted"] + totals["candidates"] + totals["marginal"]
        assert totals["candidates"] == 0

    # (source, n, seed, base, edges as "uv" pairs) of every instance, as the
    # scan drew them before its sources became one table.
    PINNED_INSTANCES = [
        ("henneberg", 6, 4720721261117928063, None,
         "01 02 03 04 05 12 13 14 15 23 24 25 34 35 45"),
        ("henneberg", 6, 8766480278738261043, None,
         "01 02 03 04 05 12 13 14 15 23 24 25 34 35 45"),
        ("henneberg", 7, 1329637740802083942, None,
         "01 02 03 04 05 12 13 14 15 23 24 25 26 34 35 36 46 56"),
        ("henneberg", 7, 8749746783503398889, None,
         "01 02 03 04 05 12 13 14 16 23 24 25 26 34 35 36 45 56"),
        ("sphere", 4, 2876137494685333844, "K4",
         "01 02 03 12 13 23"),
        ("sphere", 4, 3904497331914684452, "K4",
         "01 02 03 12 13 23"),
        ("sphere", 5, 7634208958675629714, "K4",
         "01 03 04 12 13 14 23 24 34"),
        ("sphere", 5, 3774195871892446565, "K4",
         "01 02 03 04 12 14 23 24 34"),
        ("sphere", 6, 5069107050515594517, "K4",
         "01 02 05 12 13 14 15 23 24 25 34 35"),
        ("sphere", 6, 254187954446631217, "K4",
         "01 02 03 04 05 12 13 15 23 34 35 45"),
        ("sphere", 7, 6949931735954725146, "K4",
         "01 03 05 13 14 15 16 23 24 25 34 35 36 45 46"),
        ("sphere", 7, 4963495986967072338, "K4",
         "01 03 04 05 06 12 13 15 23 24 25 26 34 46 56"),
        ("projective", 6, 3041238293621853348, "K6",
         "01 02 03 04 05 12 13 14 15 23 24 25 34 35 45"),
        ("projective", 6, 7271971256255212165, "K6",
         "01 02 03 04 05 12 13 14 15 23 24 25 34 35 45"),
        ("projective", 7, 2796478710207515810, "K6",
         "01 03 06 12 13 14 15 16 23 24 25 26 34 35 36 45 46 56"),
        ("projective", 7, 4182779752608499223, "K7_minus_K3",
         "01 02 03 04 05 06 12 13 14 15 16 23 24 25 26 34 35 36"),
        ("degree_bounded", 5, 1236316442162053381, None,
         "01 02 03 04 12 13 14 23 24 34"),
        ("degree_bounded", 5, 3718061046889470638, None,
         "01 02 03 04 12 13 14 23 24 34"),
        ("degree_bounded", 6, 1876543377603957418, None,
         "01 05 12 13 15 23 34 35"),
        ("degree_bounded", 6, 2419413529125322486, None,
         "01 03 04 05 12 13 14 23 24 25 34 35"),
        ("degree_bounded", 7, 6920892538979715961, None,
         "01 02 03 04 05 12 13 15 16 23 24 26 34 35 45 46 56"),
        ("degree_bounded", 7, 2586314297297619874, None,
         "01 02 03 04 06 12 13 14 15 23 26 34 35 45 46"),
    ]

    def test_pinned_instances(self):
        config = ScanConfig(d=3, q_list=(3.0,), max_n=7, count=2, seed=1, sources=ALL_SOURCES)
        instances = list(cli._scan_instances(config))
        assert [
            (
                inst["source"], inst["n"], inst["seed"], inst["base"],
                " ".join(f"{u}{v}" for u, v in inst["graph"].edges),
            )
            for inst in instances
        ] == self.PINNED_INSTANCES
        for inst in instances:
            assert list(inst) == ["source", "n", "seed", "base", "graph", "log"]

    def test_candidate_json_round_trip(self, monkeypatch):
        monkeypatch.setattr(cli, "max_rank_samples", flat_verdicts)
        config = ScanConfig(d=3, q_list=(3.0,), max_n=7, count=1, seed=2, sources=ALL_SOURCES)
        summary = json.loads(json.dumps(run_scan(config)))
        candidates = summary["candidates"]
        assert len(candidates) == summary["totals"]["candidates"] > 0
        for c in candidates:
            assert CANDIDATE_KEYS <= set(c)
            assert list(c)[:9] == ["source", "n", "seed", "base", "graph", "log", "q", "d", "trials"]
            assert c["stable"] and not c["independent"]
            assert c["edge_count"] == len(c["graph"]["edges"])
            assert witness_rank(c) == c["rank"] < c["edge_count"]
            assert (c["base"] is None) == (c["source"] not in ("sphere", "projective"))

    def test_memory_bounded_by_one_block(self):
        # The scan keeps one (source, n) block of instances and verdicts, so
        # three more sources add little traced memory to a sphere-only scan.
        def peak(sources):
            config = ScanConfig(
                d=3, q_list=(1.5, 3.0), max_n=14, count=20, seed=1, sources=sources
            )
            tracemalloc.start()
            try:
                run_scan(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sphere = peak(("sphere",))
        assert peak(ALL_SOURCES) <= 1.25 * sphere

    @pytest.mark.parametrize("flag,value", BAD_SAMPLING)
    def test_bad_sampling_flag_exit_2(self, flag, value, capsys):
        argv = ["scan", "-d", "3", "-q", "3", "--max-n", "6", "--count", "1", flag, value]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_surface_candidates_replay(self, monkeypatch):
        # Each surface candidate's log, read back from JSON, replays to its
        # graph both as graph operations and as splits of the base's faces.
        monkeypatch.setattr(cli, "max_rank_samples", flat_verdicts)
        config = ScanConfig(
            d=3, q_list=(3.0,), max_n=9, count=2, seed=1, sources=("sphere", "projective")
        )
        summary = json.loads(json.dumps(run_scan(config)))
        candidates = summary["candidates"]
        # every graph is a candidate but the two tetrahedra, which have
        # 2|V| - 2 edges
        assert summary["totals"]["cells"] == 12 + 8 and len(candidates) == 18
        assert {c["base"] for c in candidates} == {"K4", "K6", "K7_minus_K3"}
        for c in candidates:
            graph = Graph.from_json_dict(c["graph"])
            log = [OpRecord.from_json_dict(obj) for obj in c["log"]]
            g = base_complex(c["base"]).graph
            for rec in log:
                g = apply_record(g, rec)
            assert g == graph
            t = replay_splits(base_complex(c["base"]), log)
            assert validate(t) and t.graph == graph

    def test_near_euclidean_rejected(self):
        with pytest.raises(InputError):
            ScanConfig(d=2, q_list=(2.01,), max_n=5)
        cfg = ScanConfig(d=2, q_list=(2.01,), max_n=4, count=1, allow_near_euclidean=True)
        assert cfg.q_list == (2.01,)

    def test_surface_source_needs_d3(self):
        with pytest.raises(InputError):
            ScanConfig(d=2, q_list=(3.0,), max_n=6, sources=("sphere",))

    @pytest.mark.parametrize("d, q, message", [
        (0, 3.0, "dimension must be >= 1"),
        (3, 1.0, "q must lie in (1, inf)"),
        (3, float("inf"), "q must lie in (1, inf)"),
        (3, float("nan"), "q must lie in (1, inf)"),
    ])
    def test_space_checked_as_lq_space(self, d, q, message, capsys):
        # the exponent range has one home: the scan reports LqSpace's message
        with pytest.raises(InputError, match=re.escape(message)):
            ScanConfig(d=d, q_list=(3.0, q), max_n=8)
        argv = ["scan", "-d", str(d), "-q", f"3,{q}", "--max-n", "8"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_cli_bad_config_exit_2(self, capsys):
        assert main(["scan", "-d", "2", "-q", "2.0", "--max-n", "5"]) == 2

    @pytest.mark.parametrize("sources", [None, "sphere", "henneberg,projective"])
    def test_max_n_below_every_source_exit_2(self, sources, capsys):
        # A scan that would judge no graph is an input error, not 0 cells.
        argv = ["scan", "-d", "3", "-q", "3", "--max-n", "3"]
        assert main(argv + (["--sources", sources] if sources else [])) == 2
        assert "max_n=3" in capsys.readouterr().err

    def test_max_n_reaching_one_source_scans_it(self):
        # sphere starts at 4 vertices, henneberg at 2d = 6
        config = ScanConfig(d=3, q_list=(3.0,), max_n=4, count=1, sources=("henneberg", "sphere"))
        assert run_scan(config)["totals"]["cells"] == 1

    def test_analyze_function_matches_cli(self, wheel_file):
        report = run_analyze(wheel_file, 2, 3.0, trials=4, seed=0)
        assert report["rank"] == 8 and report["independent"]

    def test_analyze_dependent_graph(self, tmp_path):
        gfile = tmp_path / "k5.json"
        gfile.write_text(json.dumps(complete_graph(5).to_json_dict()))
        report = run_analyze(str(gfile), 2, 1.5)
        assert report["independent"] is False
        assert report["stress_dim"] == 2
