import argparse
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


def test_graph_export_json_is_the_build_artifact(tmp_path, capsys):
    built, exported = tmp_path / "built.json", tmp_path / "exported.json"
    assert main(["graph", "build", "--graph", "petersen", "--out", str(built)]) == 0
    assert main(["graph", "export", "--graph", "petersen", "--format", "json",
                 "--out", str(exported)]) == 0
    capsys.readouterr()
    assert exported.read_bytes() == built.read_bytes()


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


def test_hyper_convert_to_hypergraph_reads_only_the_labels(capsys, monkeypatch):
    def build(k, n):
        raise AssertionError("the conversion built the Kneser graph")
    monkeypatch.setattr("locdim.cli.kneser_graph", build)
    code, art, _ = run_json(capsys, "hyper", "convert",
                            "--direction", "to-hypergraph", "--k", "3",
                            "--n", "30", "--set", "0,28-29-30,1-2-4")
    assert code == 0
    assert art["edges"] == [[1, 2, 3], [1, 2, 4], [28, 29, 30]]
    code, _, err = run(capsys, "hyper", "convert", "--direction", "to-hypergraph",
                       "--k", "3", "--n", "30", "--set", "4060")
    assert code != 0 and "vertex 4060 outside 0..4059" in err


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


def test_hyper_cover_verified_above_the_old_size_limit(capsys):
    # K(2,72) has 2,556 vertices, the first k = 2 cover once left unverified
    code, art, _ = run_json(capsys, "hyper", "cover", "--k", "2", "--n", "72")
    assert code == 0
    assert art["verified"] is True
    assert art["graph_hash"] == (
        "26c212906d91bd6f4b11417ee9b859733936153aea96b7fbd1831fa08e640f28")


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


def test_bounds_report_below_3k_names_the_papers_precondition(capsys):
    code, out, err = run(capsys, "bounds", "report", "--family", "kneser",
                         "--k", "3", "--n", "8")
    assert (code, out) == (3, "")
    assert err == "error: the paper's Kneser bounds need n >= 3k, got k=3, n=8\n"


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
    assert run(capsys, "loc", "decide", "--graph", "c5", "--cops", "-1")[0] == 3
    assert run(capsys, "loc", "verify", "--graph", "petersen", "--strategy",
               "static", "--set", "0,1,2", "--max-rounds", "-5")[0] == 3
    empty = tmp_path / "empty.json"
    empty.write_text('{"n": 0, "edges": []}')
    assert run(capsys, "loc", "number", "--graph", str(empty))[0] == 3
    # a given gadget means no search, so a budget flag would select nothing
    gadget = str(GOLDEN / "hyper_gadget_k_2_regularity_3.json")
    for flag, value in (("--budget-nodes", "1"), ("--budget-seconds", "5")):
        assert run(capsys, "hyper", "cover", "--k", "2", "--n", "30",
                   "--gadget", gadget, flag, value)[0] == 3
    # malformed graph artifacts: wrong types are refused, not crashed on
    for body in ('{"n": "5", "edges": []}', '{"n": 2.0, "edges": []}',
                 '{"n": 3, "edges": [[0, 1.5]]}', '{"n": 3, "edges": [["0", "1"]]}',
                 '{"n": 3, "edges": null}', '[1, 2]', '{"n": 3, "edges": [[0, true]]}'):
        bad.write_text(body)
        assert run(capsys, "graph", "build", "--graph", str(bad))[0] == 3, body
    for edges in ('[[1, "a"]]', '[1, 2]', '5'):
        assert run(capsys, "hyper", "girth", "--n", "3",
                   "--edges", edges)[0] == 3, edges
    # malformed hypergraph files, read by --hypergraph and --gadget alike
    for body in ('[1, 2]', '{"n": 3, "edges": 5}', '{"n": 3, "edges": [1, 2]}'):
        bad.write_text(body)
        assert run(capsys, "hyper", "girth", "--hypergraph", str(bad))[0] == 3, body
        assert run(capsys, "hyper", "cover", "--k", "2", "--n", "10",
                   "--gadget", str(bad))[0] == 3, body


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
    # capped: its lower bound of 10 is the trace bound
    ("md_exact_hs_budget_nodes_20000.json",
     ["md", "exact", "--graph", "hs", "--budget-nodes", "20000"]),
    ("md_exact_er_5.json", ["md", "exact", "--graph", "er:5"]),
    ("md_exact_kneser_2_8.json", ["md", "exact", "--graph", "kneser:2:8"]),
    ("md_construct_hs.json", ["md", "construct", "--graph", "hs"]),
    # closed in under 1 s only by orbital branching under S_11 and S_12
    ("md_exact_kneser_2_11.json", ["md", "exact", "--graph", "kneser:2:11"]),
    ("md_exact_kneser_2_12.json", ["md", "exact", "--graph", "kneser:2:12"]),
])
def test_md_artifacts_match_golden(capsys, golden, argv):
    code, out, _ = run(capsys, *argv)
    assert code == (2 if "--budget-nodes" in argv else 0)
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden, argv", [
    # S_7 on 21 vertices: the symmetry pruning's 5,040-element group
    ("loc_decide_kneser_2_7_cops_4.json",
     ["loc", "decide", "--graph", "kneser:2:7", "--cops", "4",
      "--budget-nodes", "100000000"]),
    # a verifier trace: the static placement is evaded, each step observed
    ("loc_verify_hs_static_trace.json",
     ["loc", "verify", "--graph", "hs", "--strategy", "static",
      "--set", "0,1,2,3,4,5,6", "--trace"]),
    # zeta(K(2,7)) = 4: localization_number scans k upward under S_7
    ("loc_number_kneser_2_7.json",
     ["loc", "number", "--graph", "kneser:2:7", "--budget-nodes", "100000000"]),
    # the staged strategy on HS: captured in 4 rounds
    ("loc_verify_hs.json", ["loc", "verify", "--graph", "hs"]),
    # zeta(ER(3)) = 3; generated before ER(q) carried its collineations
    ("loc_number_er_3.json",
     ["loc", "number", "--graph", "er:3", "--budget-nodes", "100000000"]),
    # the collineations of ER(3), 24 elements, prune beliefs and placements
    ("loc_decide_er_3_cops_3.json",
     ["loc", "decide", "--graph", "er:3", "--cops", "3",
      "--budget-nodes", "100000000"]),
])
def test_loc_artifacts_match_golden(capsys, golden, argv):
    code, out, _ = run(capsys, *argv)
    assert code == (1 if "static" in argv else 0)
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden, argv", [
    ("graph_build_petersen_stats.json",
     ["graph", "build", "--graph", "petersen", "--stats"]),
    ("graph_export_c5.dot", ["graph", "export", "--graph", "c5", "--format", "dot"]),
    ("hyper_detect_six_cycle_kprime_3.json",
     ["hyper", "detect", "--n", "6", "--edges", SIX_CYCLE_EDGES, "--kprime", "3"]),
    ("hyper_gadget_k_2_regularity_3.json",
     ["hyper", "gadget", "--k", "2", "--regularity", "3"]),
    ("hyper_cover_k_2_n_10.json", ["hyper", "cover", "--k", "2", "--n", "10"]),
    ("bounds_report_moore_k_7_beta_11_zeta_6_7.json",
     ["bounds", "report", "--family", "moore", "--k", "7", "--beta", "11",
      "--zeta", "6:7"]),
])
def test_graph_hyper_bounds_artifacts_match_golden(tmp_path, capsys, golden, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()
    out_file = tmp_path / "artifact"
    assert main(argv + ["--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_bytes() == (GOLDEN / golden).read_bytes()


# one valid command per verb; the first six search and take budget flags
SEARCHING = [
    ["hyper", "detect", "--n", "6", "--edges", SIX_CYCLE_EDGES, "--kprime", "3"],
    ["hyper", "gadget", "--k", "2"],
    ["hyper", "cover", "--k", "2", "--n", "10"],
    # Petersen's greedy set meets its lower bound, so it is not searched
    ["md", "exact", "--graph", "kneser:2:8"],
    ["loc", "decide", "--graph", "petersen", "--cops", "3"],
    ["loc", "number", "--graph", "petersen"],
]
NOT_SEARCHING = [
    ["graph", "build", "--graph", "c5"],
    ["graph", "export", "--graph", "c5", "--format", "dot"],
    ["hyper", "girth", "--n", "6", "--edges", SIX_CYCLE_EDGES],
    ["hyper", "certify", "--n", "3", "--edges", TRIANGLE_EDGES, "--kprime", "2"],
    ["hyper", "convert", "--direction", "to-hypergraph", "--k", "2", "--n", "6",
     "--set", "12,16,23,34,45,56"],
    ["md", "verify", "--graph", "petersen", "--set", "0,1"],
    ["md", "greedy", "--graph", "c5"],
    ["md", "construct", "--graph", "petersen"],
    ["loc", "verify", "--graph", "petersen", "--strategy", "static", "--set", "0,1"],
    ["bounds", "report", "--family", "moore", "--k", "7"],
]


def test_budget_flags_sit_on_exactly_the_searching_verbs():
    from locdim.cli import build_parser

    def leaves(parser, path=()):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    yield from leaves(child, path + (name,))
        if not any(isinstance(a, argparse._SubParsersAction)
                   for a in parser._actions):
            yield path, parser

    flags = {path: [o for a in p._actions for o in a.option_strings
                    if o.startswith("--budget")]
             for path, p in leaves(build_parser())}
    assert len(flags) == len(SEARCHING) + len(NOT_SEARCHING) == 16
    assert {path for path, f in flags.items() if f} == {
        tuple(argv[:2]) for argv in SEARCHING}
    assert sum(len(f) for f in flags.values()) == 12


@pytest.mark.parametrize("argv", SEARCHING, ids=lambda a: " ".join(a[:2]))
def test_searching_verbs_exit_2_on_a_tiny_node_budget(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget-nodes", "1")
    assert code == 2
    if argv[0] == "hyper":
        assert out == "" and "budget exhausted" in err
    else:  # md and loc report the open interval or "unknown" in the artifact
        assert json.loads(out)


@pytest.mark.parametrize("argv", SEARCHING, ids=lambda a: " ".join(a[:2]))
def test_searching_verbs_exit_3_on_a_negative_or_nan_budget(capsys, argv):
    for flag, value in (("--budget-nodes", "-1"), ("--budget-seconds", "-0.5"),
                        ("--budget-seconds", "nan")):
        code, out, err = run(capsys, *argv, flag, value)
        assert code == 3 and out == ""
        assert "must be >= 0" in err


@pytest.mark.parametrize("argv", NOT_SEARCHING, ids=lambda a: " ".join(a[:2]))
def test_other_verbs_reject_budget_flags(capsys, argv):
    assert run(capsys, *argv)[0] in (0, 1)
    for flag, value in (("--budget-nodes", "1"), ("--budget-seconds", "1")):
        code, out, err = run(capsys, *argv, flag, value)
        assert code == 3 and out == ""
        assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", SEARCHING + NOT_SEARCHING,
                         ids=lambda a: " ".join(a[:2]))
def test_handlers_return_their_artifact_and_write_nothing(tmp_path, capsys, argv):
    from locdim.cli import build_parser
    out_file = tmp_path / "artifact"
    args = build_parser().parse_args(argv + ["--out", str(out_file)])
    art, code = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert not out_file.exists()
    assert isinstance(art, str if "dot" in argv else dict)
    assert code in (0, 1)
    assert main(argv + ["--out", str(out_file)]) == code
    text = out_file.read_text()
    assert text == (art if isinstance(art, str)
                    else json.dumps(art, sort_keys=True, indent=2) + "\n")
