"""End-to-end acceptance battery.

One test per advertised capability, in order, each printing a single
ACCEPTANCE PASS line on success. Time limits are asserted with
perf_counter around exactly the operation under test. Sampling-based
tests pin their seeds so reruns are byte-for-byte reproducible.
"""

import json
import random
from itertools import combinations
from time import perf_counter

import pytest

import locdim as L
from locdim.cli import main

from oracles import check_degree_properties


class stopwatch:
    def __enter__(self):
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = perf_counter() - self.t0


def test_criterion_01_worked_example_pipeline(capsys):
    # the six-landmark set of K(2,6) and its six-cycle hypergraph twin,
    # both through the real CLI
    with stopwatch() as sw:
        code = main(["md", "verify", "--graph", "kneser:2:6",
                     "--set", "12,16,23,34,45,56"])
        assert code == 0
        art = json.loads(capsys.readouterr().out)
        assert art["verified"] is True
        code = main(["hyper", "detect", "--n", "6",
                     "--edges", "[[1,2],[2,3],[3,4],[4,5],[5,6],[6,1]]",
                     "--kprime", "2"])
        assert code == 0
        art = json.loads(capsys.readouterr().out)
        assert art["detectable"] is True
    assert sw.elapsed < 1.0
    print("ACCEPTANCE PASS [1] worked-example-pipeline")


def test_criterion_02_pentagon_exact_values():
    C5 = L.cycle_graph(5)
    with stopwatch() as sw:
        assert L.localization_number(C5).value == 2
    assert sw.elapsed < 1.0
    with stopwatch() as sw:
        assert L.metric_dimension(C5).value == 2
    assert sw.elapsed < 1.0
    print("ACCEPTANCE PASS [2] pentagon-exact-values")


def test_criterion_03_petersen_exact_values():
    P = L.petersen()
    with stopwatch() as sw:
        assert L.metric_dimension(P).value == 3
    assert sw.elapsed < 1.0
    with stopwatch() as sw:
        assert L.loc_decide(P, 2).result == "robber-win"
        assert L.loc_decide(P, 3).result == "cop-win"
    assert sw.elapsed < 300.0
    print("ACCEPTANCE PASS [3] petersen-exact-values")


def test_criterion_04_moore_constructions():
    P = L.petersen()
    with stopwatch() as sw:
        S = L.moore_resolving(P)
        assert len(S) == 3
        assert L.is_resolving(P, S).verified
    assert sw.elapsed < 10.0
    HS = L.hoffman_singleton()
    with stopwatch() as sw:
        S = L.moore_resolving(HS)
        assert len(S) == 11
        assert L.is_resolving(HS, S).verified
    assert sw.elapsed < 10.0
    print("ACCEPTANCE PASS [4] moore-constructions")


def test_criterion_05_staged_strategy_verified():
    HS = L.hoffman_singleton()
    with stopwatch() as sw:
        report = L.verify_strategy(HS, L.moore_strategy(HS), 7)
    if report.outcome != "captured":
        # an evasion must be shown, never swallowed
        pytest.fail("strategy evaded; adversarial play:\n"
                    + json.dumps(report.to_json_dict(), indent=2))
    assert sw.elapsed < 1800.0
    print("ACCEPTANCE PASS [5] staged-strategy-verified")


def test_criterion_06_polarity_constructions():
    for q in (2, 3, 4, 5, 7):
        P = L.er_polarity_graph(q)
        with stopwatch() as sw:
            S = L.polarity_resolving(P)
            assert len(S) == 2 * q - 1
            assert L.is_resolving(P.graph, S).verified
        assert sw.elapsed < 30.0
    # exact small values sit inside the clamped closed-form ranges
    for q, beta in ((2, 3), (3, 4)):
        assert L.metric_dimension(L.er_polarity_graph(q).graph).value == beta
        L.bounds_report("polarity", q=q, computed={"beta": beta})
    print("ACCEPTANCE PASS [6] polarity-constructions")


def test_criterion_07_resolving_detectable_round_trip():
    # exhaustive equivalence on K(2,6): every subset of vertices resolves
    # iff its hypergraph reading is 2-detectable
    G = L.kneser_graph(2, 6)
    resolving = detectable = 0
    for r in range(G.n + 1):
        for S in combinations(range(G.n), r):
            a = L.is_resolving(G, S).verified
            H = L.resolving_to_hypergraph(S, 2, 6)
            b = L.is_detectable(H, 2).detectable
            assert a == b, f"round trip split on {S}"
            resolving += a
            detectable += b
    assert resolving == detectable > 0
    # sampled equivalence on K(3,9); supersets of a greedy resolving set
    # guarantee both outcomes appear
    G = L.kneser_graph(3, 9)
    rng = random.Random(77)
    base = set(L.greedy_resolving(G))
    outcomes = {True: 0, False: 0}
    for trial in range(100):
        if trial < 10:
            S = tuple(sorted(base | set(rng.sample(range(G.n), 5))))
        else:
            S = tuple(sorted(rng.sample(range(G.n), rng.randint(4, 24))))
        a = L.is_resolving(G, S).verified
        b = L.is_detectable(L.resolving_to_hypergraph(S, 3, 9), 3).detectable
        assert a == b, f"round trip split on {S}"
        outcomes[a] += 1
    assert outcomes[True] >= 10 and outcomes[False] >= 10
    print("ACCEPTANCE PASS [7] resolving-detectable-round-trip")


def test_criterion_08_random_hypergraph_degree_conditions():
    # detectability implies the pairwise degree-sum conditions; sample
    # a thousand random 3-uniform hypergraphs on nine points
    rng = random.Random(20260814)
    triples = list(combinations(range(1, 10), 3))
    found_detectable = violations = 0
    for _ in range(1000):
        m = rng.randint(8, 30)
        H = L.Hypergraph(9, rng.sample(triples, m))
        if L.is_detectable(H, 3).detectable:
            found_detectable += 1
            if not check_degree_properties(H, 3).ok:
                violations += 1
    assert violations == 0
    assert found_detectable >= 300  # the sample is not vacuous
    print("ACCEPTANCE PASS [8] random-hypergraph-degree-conditions")


def test_criterion_09_girth5_corpus_detectable():
    # high girth plus the degree floor forces detectability; check the
    # whole small corpus by brute force
    corpus = [L.cycle_graph(n) for n in range(5, 13)]
    corpus.append(L.petersen())
    for reg in (2, 3):
        res = L.search_girth5_gadget(2, max_vertices=12, regularity=reg)
        assert res.gadget is not None
        corpus.append(L.Graph(res.gadget.n,
                              [(a - 1, b - 1) for a, b in res.gadget.edges]))
    checked = 0
    for G in corpus:
        assert L.graph_girth(G) >= 5
        mindeg = min(G.degrees())
        for kprime in (1, 2):
            if 2 * mindeg < kprime + 2:
                continue
            H = L.Hypergraph(G.n, [(u + 1, v + 1) for u, v in G.edges])
            assert L.is_detectable(H, kprime).detectable, (G.n, kprime)
            checked += 1
    assert checked >= 20
    print("ACCEPTANCE PASS [9] girth5-corpus-detectable")


def test_criterion_10_bound_values():
    assert L.kneser_beta_lower(6, 18).bound == 12
    assert L.kneser_beta_lower(4, 12).bound == 9
    assert L.kneser_zeta_lower(4, 12).bound == 6
    beta = {e.kind: e.bound for e in L.moore_bounds(7) if e.quantity == "beta"}
    zeta = {e.kind: e.bound for e in L.moore_bounds(7) if e.quantity == "zeta"}
    assert (beta["lower"], beta["upper"]) == (7, 11)
    assert (zeta["lower"], zeta["upper"]) == (6, 7)
    beta = {e.kind: e.bound for e in L.polarity_bounds(5)
            if e.quantity == "beta"}
    assert (beta["lower"], beta["upper"]) == (5, 9)
    print("ACCEPTANCE PASS [10] bound-values")


def test_criterion_11_cover_construction():
    res = L.search_girth5_gadget(2, max_vertices=12, regularity=2)
    assert res.gadget is not None
    with stopwatch() as sw:
        S = L.kneser_resolving_cover(2, 10, res.gadget)
        assert len(S) == 10
        assert L.is_resolving(L.kneser_graph(2, 10), S).verified
    assert sw.elapsed < 5.0
    # the 3-uniform branch is conditional on a gadget existing; absence on
    # twelve vertices is a result, not a failure
    res3 = L.search_girth5_gadget(3, max_vertices=12)
    if res3.gadget is not None:
        m = res3.gadget.n
        S = L.kneser_resolving_cover(3, 3 * m, res3.gadget)
        assert L.is_resolving(L.kneser_graph(3, 3 * m), S).verified
        note = f"with a {m}-point 3-uniform gadget"
    else:
        assert res3.complete
        note = "3-uniform gadget absence on <= 12 vertices confirmed"
    print(f"ACCEPTANCE PASS [11] cover-construction ({note})")


def test_criterion_12_large_kneser_build():
    with stopwatch() as sw:
        G = L.kneser_graph(5, 15)
        layers = G.distance_layers(0)
        assert layers[2] >> 1 & 1  # vertex 1 at distance 2 from vertex 0
        assert layers[1] >> 3002 & 1  # vertex 3002 at distance 1
    assert sw.elapsed < 20.0
    assert G.n == 3003
    assert len(G.edges) == 378378
    assert G.regularity() == 252
    print("ACCEPTANCE PASS [12] large-kneser-build")


def test_criterion_13_capped_md_exact_stops(capsys):
    G = L.kneser_graph(4, 13)
    with stopwatch() as sw:
        code = main(["md", "exact", "--graph", "kneser:4:13",
                     "--budget-seconds", "0.5"])
    art = json.loads(capsys.readouterr().out)
    assert code == 2
    assert not art["exact"]
    assert art["lower"] <= art["upper"] == len(art["landmarks"])
    assert L.is_resolving(G, art["landmarks"]).verified
    assert sw.elapsed < 20.0
    print(f"ACCEPTANCE PASS [13] capped-md-exact ({sw.elapsed:.1f} s, "
          f"[{art['lower']}, {art['upper']}])")
