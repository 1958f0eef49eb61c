import json
from pathlib import Path

import pytest

import locdim as L
from locdim.cli import main

SIX_CYCLE_EDGES = "[[1,2],[2,3],[3,4],[4,5],[5,6],[6,1]]"
TRIANGLE_EDGES = "[[1,2],[2,3],[3,1]]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_graph_build_artifact(capsys):
    code, art, _ = run_json(capsys, "graph", "build", "--graph", "petersen",
                            "--stats")
    assert code == 0
    assert art["n"] == 10
    assert art["diameter"] == 2
    assert art["girth"] == 5
    assert art["regularity"] == 3
    assert art["hash"] == L.graph_hash(L.petersen())


def test_artifacts_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["graph", "build", "--graph", "kneser:2:6",
                 "--out", str(a)]) == 0
    assert main(["graph", "build", "--graph", "kneser:2:6",
                 "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_graph_artifact_round_trips_through_file(tmp_path, capsys):
    art = tmp_path / "c5.json"
    assert main(["graph", "build", "--graph", "c5", "--out", str(art)]) == 0
    code, out, _ = run_json(capsys, "md", "greedy", "--graph", str(art))
    assert code == 0
    assert out["size"] == 2


def test_tampered_artifact_is_refused(tmp_path, capsys):
    art = tmp_path / "g.json"
    assert main(["graph", "build", "--graph", "c5", "--out", str(art)]) == 0
    data = json.loads(art.read_text())
    data["edges"] = data["edges"][:-1]  # stale hash now lies about content
    art.write_text(json.dumps(data))
    code, _, err = run(capsys, "graph", "build", "--graph", str(art))
    assert code == 3
    assert "hash" in err


def test_graph_stats_on_a_disconnected_forest(tmp_path, capsys):
    forest = tmp_path / "forest.json"
    forest.write_text(json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [3, 4]]}))
    code, art, _ = run_json(capsys, "graph", "build", "--graph", str(forest),
                            "--stats")
    assert code == 0
    assert art["diameter"] == "infinity"
    assert art["girth"] == "infinity"
    assert art["regularity"] is None


def test_graph_export_dot(capsys):
    code, out, _ = run(capsys, "graph", "export", "--graph", "c5",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("graph")
    assert "--" in out


def test_graph_export_dot_escapes_labels(tmp_path, capsys):
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1]],
                                "labels": ['a"b', "c\\d"]}))
    code, out, _ = run(capsys, "graph", "export", "--graph", str(path),
                       "--format", "dot")
    assert code == 0
    assert out == ('graph G {\n  v0 [label="a\\"b"];\n'
                   '  v1 [label="c\\\\d"];\n  v0 -- v1;\n}\n')


def test_md_verify_kneser_labels(capsys):
    code, art, _ = run_json(capsys, "md", "verify", "--graph", "kneser:2:6",
                            "--set", "12,16,23,34,45,56")
    assert code == 0
    assert art["verified"] is True
    assert art["labels"] == ["12", "16", "23", "34", "45", "56"]


def test_md_verify_failure_exits_1(capsys):
    code, art, _ = run_json(capsys, "md", "verify", "--graph", "petersen",
                            "--set", "0,1")
    assert code == 1
    assert art["verified"] is False
    assert art["witness_pair"]


def test_md_exact_exits_2_when_budget_runs_out(capsys):
    code, art, _ = run_json(capsys, "md", "exact", "--graph", "kneser:3:9",
                            "--budget-nodes", "1000")
    assert code == 2
    assert art["exact"] is False
    assert art["lower"] <= art["upper"]


def test_md_exact_petersen(capsys):
    code, art, _ = run_json(capsys, "md", "exact", "--graph", "petersen")
    assert code == 0
    assert art["value"] == 3


def test_md_construct_polarity(capsys):
    code, art, _ = run_json(capsys, "md", "construct", "--graph", "er:3")
    assert code == 0
    assert art["family"] == "polarity"
    assert art["size"] == 5
    assert art["verified"] is True


def test_md_construct_moore(capsys):
    code, art, _ = run_json(capsys, "md", "construct", "--graph", "petersen")
    assert code == 0
    assert art["family"] == "moore"
    assert art["size"] == 3


def test_md_construct_rejects_plain_graphs(capsys):
    code, _, err = run(capsys, "md", "construct", "--graph", "c5")
    assert code == 3
    assert "construction" in err


def test_hyper_detect_six_cycle(capsys):
    code, art, _ = run_json(capsys, "hyper", "detect", "--n", "6",
                            "--edges", SIX_CYCLE_EDGES, "--kprime", "2")
    assert code == 0
    assert art["detectable"] is True
    assert art["witness"] is None


def test_hyper_detect_reports_witness(capsys):
    code, art, _ = run_json(capsys, "hyper", "detect", "--n", "6",
                            "--edges", SIX_CYCLE_EDGES, "--kprime", "3")
    assert code == 0
    assert art["detectable"] is False
    assert art["witness"] == [[1, 3, 5], [2, 4, 6]]


def test_hyper_girth(capsys):
    code, art, _ = run_json(capsys, "hyper", "girth", "--n", "6",
                            "--edges", SIX_CYCLE_EDGES)
    assert code == 0
    assert art["berge_girth"] == 6
    assert art["edges"] == 6


def test_hyper_certify_exit_codes(capsys):
    code, art, _ = run_json(capsys, "hyper", "certify", "--n", "5",
                            "--edges", "[[1,2],[1,3],[2,4],[3,5],[4,5]]",
                            "--kprime", "2")
    assert code == 0 and art["certified"] is True
    code, art, _ = run_json(capsys, "hyper", "certify", "--n", "3",
                            "--edges", TRIANGLE_EDGES, "--kprime", "2")
    assert code == 1 and art["certified"] is False


def test_hyper_convert_round_trip(tmp_path, capsys):
    code, art, _ = run_json(capsys, "hyper", "convert",
                            "--direction", "to-hypergraph",
                            "--k", "2", "--n", "6",
                            "--set", "12,16,23,34,45,56")
    assert code == 0
    assert art["n"] == 6 and len(art["edges"]) == 6
    hfile = tmp_path / "h.json"
    hfile.write_text(json.dumps(art))
    code, back, _ = run_json(capsys, "hyper", "convert",
                             "--direction", "to-resolving",
                             "--k", "2", "--n", "6",
                             "--hypergraph", str(hfile))
    assert code == 0
    G = L.kneser_graph(2, 6)
    want = sorted(G.vertex_by_label(s) for s in
                  ("12", "16", "23", "34", "45", "56"))
    assert sorted(back["landmarks"]) == want


def test_hyper_gadget_found(capsys):
    code, art, _ = run_json(capsys, "hyper", "gadget", "--k", "2")
    assert code == 0
    assert art["found"] is True
    assert art["n"] == 5
    assert art["berge_girth"] >= 5


def test_hyper_gadget_absence_is_reported_not_failed(capsys):
    code, art, _ = run_json(capsys, "hyper", "gadget", "--k", "3",
                            "--max-vertices", "9")
    assert code == 0
    assert art == {"found": False, "complete": True, "k": 3,
                   "max_vertices": 9}


def test_hyper_gadget_budget_exhaustion(capsys):
    code, _, err = run(capsys, "hyper", "gadget", "--k", "2",
                       "--budget-nodes", "3")
    assert code == 2
    assert "budget" in err


def test_hyper_cover_verified(capsys):
    code, art, _ = run_json(capsys, "hyper", "cover", "--k", "2", "--n", "10")
    assert code == 0
    assert art["size"] == 10
    assert art["verified"] is True


def test_gadget_commands_write_no_files(tmp_path, monkeypatch, capsys):
    home, cache = tmp_path / "home", tmp_path / "cache"
    home.mkdir()
    cache.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("LOCDIM_CACHE_DIR", str(cache))
    code, art, _ = run_json(capsys, "hyper", "gadget", "--k", "2")
    assert code == 0 and art["found"] is True
    code, art, _ = run_json(capsys, "hyper", "cover", "--k", "2", "--n", "10")
    assert code == 0 and art["verified"] is True
    assert list(home.iterdir()) == [] and list(cache.iterdir()) == []


def test_loc_decide(capsys):
    code, art, _ = run_json(capsys, "loc", "decide", "--graph", "c5",
                            "--cops", "2")
    assert code == 0
    assert art["result"] == "cop-win"
    code, art, _ = run_json(capsys, "loc", "decide", "--graph", "kneser:2:6",
                            "--cops", "2")
    assert code == 2
    assert art["result"] == "unknown"


def test_loc_number(capsys):
    code, art, _ = run_json(capsys, "loc", "number",
                            "--graph", "hoffman-singleton")
    assert code == 0
    assert art["method"] == "moore-range"
    assert (art["lower"], art["upper"]) == (6, 7)
    code, art, _ = run_json(capsys, "loc", "number", "--graph", "kneser:2:6")
    assert code == 2
    assert art["method"] == "budget"


def test_loc_verify_static(capsys):
    code, art, _ = run_json(capsys, "loc", "verify", "--graph", "petersen",
                            "--strategy", "static", "--set", "0,1,2")
    assert code == 0
    assert art["outcome"] == "captured"
    assert art["trace"] == []  # trace ships only on request
    code, art, _ = run_json(capsys, "loc", "verify", "--graph", "petersen",
                            "--strategy", "static", "--set", "0,1", "--trace")
    assert code == 1
    assert art["outcome"] == "evaded"
    assert art["trace"]


def test_loc_verify_moore(capsys):
    code, art, _ = run_json(capsys, "loc", "verify", "--graph", "hs")
    assert code == 0
    assert art["outcome"] == "captured"
    assert art["captured_max_rounds"] == 4


def test_loc_verify_argument_validation(capsys):
    code, _, err = run(capsys, "loc", "verify", "--graph", "hs",
                       "--cops", "5")
    assert code == 3 and "k=7" in err
    code, _, err = run(capsys, "loc", "verify", "--graph", "petersen",
                       "--strategy", "static")
    assert code == 3 and "--set" in err
    code, _, _ = run(capsys, "loc", "verify", "--graph", "petersen")
    assert code == 3  # moore strategy rejects a non-Moore-range graph


def test_bounds_report_cli(capsys):
    code, art, _ = run_json(capsys, "bounds", "report", "--family", "kneser",
                            "--k", "4", "--n", "12", "--beta", "9")
    assert code == 0
    assert art["checked"]
    code, art, _ = run_json(capsys, "bounds", "report", "--family", "moore",
                            "--k", "7", "--zeta", "6:7")
    assert code == 0


def test_bounds_contradiction_exits_1(capsys):
    code, _, err = run(capsys, "bounds", "report", "--family", "kneser",
                       "--k", "4", "--n", "12", "--beta", "5")
    assert code == 1
    assert "contradiction" in err


def test_invalid_inputs_exit_3(tmp_path, capsys):
    assert run(capsys, "md", "greedy", "--graph", "nosuch")[0] == 3
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert run(capsys, "md", "greedy", "--graph", str(bad))[0] == 3
    assert run(capsys, "hyper", "detect", "--edges", "[[1,2]]",
               "--kprime", "1")[0] == 3  # inline edges without --n
    assert run(capsys, "hyper", "convert", "--direction", "to-hypergraph",
               "--k", "2", "--n", "6")[0] == 3  # missing --set


def test_argparse_errors_exit_3(capsys):
    assert main([]) == 3
    assert main(["frobnicate"]) == 3
    assert main(["graph"]) == 3
    assert main(["md", "verify", "--graph", "c5"]) == 3  # --set required
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "locdim" in out


def test_threads_flag_is_rejected(capsys):
    assert main(["graph", "build", "--graph", "c5", "--threads", "4"]) == 3
    capsys.readouterr()


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("golden, argv", [
    ("md_exact_petersen.json", ["md", "exact", "--graph", "petersen"]),
    ("md_exact_er_3.json", ["md", "exact", "--graph", "er:3"]),
    ("md_exact_er_4.json", ["md", "exact", "--graph", "er:4"]),
    ("md_exact_kneser_2_7.json", ["md", "exact", "--graph", "kneser:2:7"]),
    ("md_exact_kneser_3_7.json", ["md", "exact", "--graph", "kneser:3:7"]),
    ("md_greedy_kneser_3_10.json", ["md", "greedy", "--graph", "kneser:3:10"]),
    # capped: its lower bound of 6 is the distance-vector bound
    ("md_exact_hs_budget_nodes_20000.json",
     ["md", "exact", "--graph", "hs", "--budget-nodes", "20000"]),
    ("md_exact_er_5.json", ["md", "exact", "--graph", "er:5"]),
    ("md_exact_kneser_2_8.json", ["md", "exact", "--graph", "kneser:2:8"]),
])
def test_md_artifacts_match_golden(capsys, golden, argv):
    code, out, _ = run(capsys, *argv)
    assert code == (2 if "--budget-nodes" in argv else 0)
    assert out == (GOLDEN / golden).read_text()
