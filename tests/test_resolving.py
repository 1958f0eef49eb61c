import json
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locdim as L
from locdim import resolving as R
from locdim.cli import resolve_graph_spec

from oracles import (distance_rows, exhaustive_metric_dimension, neighbors,
                     pair_cover_masks, pair_greedy_resolving,
                     pair_metric_dimension, randomized_resolving,
                     trace_bound)


def layers(G):
    """Every vertex's distance layers, the solvers' input."""
    return [G.distance_layers(v) for v in range(G.n)]


def test_is_resolving_verifies_and_witnesses():
    G = L.petersen()
    cert = L.is_resolving(G, (0, 1, 2))
    assert cert.verified and cert.witness_pair is None
    assert cert.landmarks == (0, 1, 2)
    bad = L.is_resolving(G, (0, 1))
    assert not bad.verified
    u, v = bad.witness_pair
    assert u != v
    rows = distance_rows(G)
    assert rows[0][u] == rows[0][v] and rows[1][u] == rows[1][v]


def test_is_resolving_input_validation():
    G = L.cycle_graph(5)
    with pytest.raises(ValueError):
        L.is_resolving(G, (0, 9))
    # landmarks are vertex ints, as in Graph: a bool or a float is refused
    for bad in ([True], [0, False], [1.0]):
        with pytest.raises(ValueError, match="outside 0..4"):
            L.is_resolving(G, bad)
    # duplicates collapse instead of erroring
    assert L.is_resolving(G, (0, 0, 1)).landmarks == (0, 1)


def test_certificate_serializes():
    G = L.cycle_graph(5)
    cert = L.is_resolving(G, (0, 1))
    data = cert.to_json_dict()
    assert data["graph_hash"] == L.graph_hash(G)
    json.dumps(data)


def test_exact_metric_dimension_matches_exhaustive_oracle():
    cases = [
        L.cycle_graph(4),
        L.cycle_graph(5),
        L.cycle_graph(6),
        L.cycle_graph(7),
        L.petersen(),
        L.kneser_graph(2, 6),
        L.er_polarity_graph(2).graph,
        L.er_polarity_graph(3).graph,
        L.Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),  # path
        L.Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),  # K4
    ]
    for G in cases:
        res = L.metric_dimension(G)
        oracle = exhaustive_metric_dimension(G)
        assert res.exact
        assert res.value == len(oracle), G
        assert L.is_resolving(G, res.landmarks).verified


def test_known_exact_values():
    assert L.metric_dimension(L.cycle_graph(5)).value == 2
    assert L.metric_dimension(L.petersen()).value == 3
    assert L.metric_dimension(L.kneser_graph(2, 6)).value == 4
    assert L.metric_dimension(L.er_polarity_graph(2).graph).value == 3
    assert L.metric_dimension(L.er_polarity_graph(3).graph).value == 4


def test_metric_dimension_trivia():
    K1 = L.Graph(1, [])
    assert L.metric_dimension(K1).value == 0
    K2 = L.Graph(2, [(0, 1)])
    assert L.metric_dimension(K2).value == 1


def test_budget_exhaustion_yields_honest_interval():
    G = L.kneser_graph(3, 9)
    res = L.metric_dimension(G, budget=L.Budget(max_nodes=2000))
    assert not res.exact
    assert res.value is None
    assert 1 <= res.lower <= res.upper
    assert L.is_resolving(G, res.landmarks).verified
    assert len(res.landmarks) == res.upper


def test_budget_rejects_negative_and_nan_caps():
    for caps in ({"max_nodes": -1}, {"max_seconds": -0.5},
                 {"max_seconds": float("nan")}):
        with pytest.raises(ValueError, match="must be >= 0"):
            L.Budget(**caps)
    # zero is a valid cap: the first spend runs it out
    with pytest.raises(L.BudgetExceededError):
        L.Budget(max_nodes=0).spend()


def test_time_budget_is_checked_on_every_spend():
    budget = L.Budget(max_seconds=0)
    time.sleep(0.01)
    with pytest.raises(L.BudgetExceededError):
        budget.spend()
    assert budget.nodes == 1


def test_greedy_resolving_on_corpus():
    for G in (L.cycle_graph(6), L.petersen(), L.kneser_graph(2, 6),
              L.hoffman_singleton()):
        S = L.greedy_resolving(G)
        assert L.is_resolving(G, S).verified
    assert len(L.greedy_resolving(L.hoffman_singleton())) == 12


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernels_match_pair_loop_oracles_on_random_graphs(data):
    # n in {0, 1, 2} and disconnected graphs included
    n = data.draw(st.integers(min_value=0, max_value=16))
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    G = L.Graph(n, sorted(edges))
    assert R._cover_masks(layers(G)) == pair_cover_masks(G)
    assert L.greedy_resolving(G) == pair_greedy_resolving(G)


def test_kernels_match_pair_loop_oracles_on_families():
    for G in (L.petersen(), L.hoffman_singleton(), L.kneser_graph(2, 7),
              L.kneser_graph(3, 7), L.er_polarity_graph(4).graph,
              L.cycle_graph(9)):
        assert R._cover_masks(layers(G)) == pair_cover_masks(G)
        assert L.greedy_resolving(G) == pair_greedy_resolving(G)
    G = L.kneser_graph(3, 9)
    assert L.greedy_resolving(G) == pair_greedy_resolving(G)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_capped_lower_bound_is_below_the_metric_dimension(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    # a random spanning tree keeps the graph connected
    edges = {(data.draw(st.integers(min_value=0, max_value=v - 1)), v)
             for v in range(1, n)}
    edges |= data.draw(st.sets(st.sampled_from(list(combinations(range(n), 2)))))
    G = L.Graph(n, sorted(edges))
    beta = len(exhaustive_metric_dimension(G))
    assert R._distance_bound(layers(G)) <= beta
    res = L.metric_dimension(G, budget=L.Budget(max_nodes=1))
    assert res.lower <= beta <= res.upper


def test_distance_bound_values():
    def bound(G):
        return R._distance_bound(layers(G))
    assert bound(L.hoffman_singleton()) == 6  # 5 + 2^5 < 50 <= 6 + 2^6
    assert bound(L.kneser_graph(4, 13)) == 10
    assert bound(L.Graph(5, [(a, b) for a, b in combinations(range(5), 2)])) == 4
    assert bound(L.Graph(4, [(0, 1), (2, 3)])) == 0  # disconnected
    assert bound(L.Graph(0, [])) == bound(L.Graph(1, [])) == 0


def test_trace_bound_values():
    def bound(G):
        return R._trace_bound(layers(G))
    er = {q: L.er_polarity_graph(q).graph for q in (3, 4, 5, 7, 8)}
    families = [L.petersen(), er[3], er[4], er[5], er[7], er[8],
                L.hoffman_singleton(), L.kneser_graph(3, 9)]
    assert [bound(G) for G in families] == [3, 4, 5, 7, 11, 12, 10, 8]
    assert [trace_bound(G) for G in families] == [3, 4, 5, 7, 11, 12, 10, 8]
    # the count holds only on connected graphs of diameter at most 2
    for G in [*map(L.cycle_graph, range(6, 10)), L.kneser_graph(3, 7),
              L.Graph(4, [(0, 1), (2, 3)]), L.Graph(3, [(0, 1)]), L.Graph(0, [])]:
        assert bound(G) == trace_bound(G) == 0, G.name


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_trace_bound_is_below_the_metric_dimension_at_diameter_2(data):
    n = data.draw(st.integers(min_value=2, max_value=11))
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs)))
    closed = [{v} for v in range(n)]
    for a, b in edges:
        closed[a].add(b)
        closed[b].add(a)
    # join every pair at distance above 2: the diameter drops to at most 2
    G = L.Graph(n, sorted(edges | {(a, b) for a, b in pairs
                                   if not closed[a] & closed[b]}))
    assert G.diameter() <= 2
    beta = len(exhaustive_metric_dimension(G))
    assert R._trace_bound(layers(G)) == trace_bound(G) <= beta


def test_python_O_keeps_the_certificate_checks():
    # python -O strips asserts; an unverified certificate and a gadget of
    # the wrong girth must raise all the same, with or without a search
    script = textwrap.dedent("""
        import sys
        import locdim as L
        from locdim import hypergraphs, resolving
        if not sys.flags.optimize:
            sys.exit("asserts are on")
        check = resolving.is_resolving
        resolving.is_resolving = lambda G, S: check(G, S)._replace(verified=False)
        hypergraphs.berge_girth = lambda H: 4
        for call in (lambda: L.metric_dimension(L.petersen()),
                     lambda: L.metric_dimension(L.kneser_graph(2, 8)),
                     lambda: L.search_girth5_gadget(2)):
            try:
                call()
            except RuntimeError:
                print("raised")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 3


def test_run_stopped_while_masks_are_built_keeps_an_interval():
    G = L.hoffman_singleton()
    budget = L.Budget(max_seconds=0)
    time.sleep(0.01)
    res = L.metric_dimension(G, budget=budget)
    assert not res.exact and res.nodes == 0
    assert (res.lower, res.upper) == (10, 12)  # the trace bound
    assert res.landmarks == L.greedy_resolving(G)
    assert L.is_resolving(G, res.landmarks).verified


class RecordingBudget(L.Budget):
    """A Budget that logs the amount of every spend() call."""

    def __init__(self, **caps):
        super().__init__(**caps)
        self.spends = []

    def spend(self, amount: int = 1) -> None:
        self.spends.append(amount)
        super().spend(amount)


def assert_search_matches_oracle(G, max_nodes):
    """Node for node and spend for spend, clock reads included; an uncapped
    run also keeps the answer of the search run to the end."""
    budget = RecordingBudget(max_nodes=max_nodes)
    oracle_budget = RecordingBudget(max_nodes=max_nodes)
    res = L.metric_dimension(G, budget)
    got = (res.lower, res.upper, res.landmarks, res.exact, res.nodes)
    assert got == pair_metric_dimension(G, oracle_budget), (G.name, max_nodes)
    assert budget.spends == oracle_budget.spends
    if max_nodes is None:
        whole = pair_metric_dimension(G, L.Budget(), to_the_end=True)
        assert got[:4] == whole[:4], G.name
    return res


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_search_matches_node_bound_oracle_on_random_graphs(data):
    # n in {0, 1, 2} and disconnected graphs included
    n = data.draw(st.integers(min_value=0, max_value=14))
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    G = L.Graph(n, sorted(edges))
    for cap in (None, 0, 1, 2, data.draw(st.integers(min_value=0, max_value=60))):
        assert_search_matches_oracle(G, cap)


def plain(G):
    """G without its generators, searched without symmetry as the oracle is."""
    return L.Graph(G.n, G.edges, name=G.name)


def test_search_matches_node_bound_oracle_on_families():
    for G in ([L.cycle_graph(k) for k in range(3, 10)]
              + [L.petersen(), L.kneser_graph(2, 7), L.kneser_graph(3, 7),
                 L.er_polarity_graph(4).graph]):
        assert assert_search_matches_oracle(plain(G), None).exact
    assert not assert_search_matches_oracle(plain(L.kneser_graph(3, 9)), 2000).exact
    assert not assert_search_matches_oracle(plain(L.hoffman_singleton()), 20000).exact


def random_diameter2(rng, n, p):
    """A G(n, p) sample with every pair at distance above 2 joined."""
    pairs = list(combinations(range(n), 2))
    edges = {e for e in pairs if rng.random() < p}
    closed = [{v} for v in range(n)]
    for a, b in edges:
        closed[a].add(b)
        closed[b].add(a)
    return L.Graph(n, sorted(edges | {(a, b) for a, b in pairs
                                      if not closed[a] & closed[b]}),
                   name=f"random{n}")


def test_search_matches_node_bound_oracle_on_larger_random_graphs():
    # beyond the hypothesis test's 14 vertices, up to the 28 of the
    # benchmark's random diameter-2 graphs
    rng = random.Random(30)
    for n in [16, 18, 20, 24, 26, 28] * 5:
        G = random_diameter2(rng, n, 0.35)
        assert G.diameter() <= 2
        assert_search_matches_oracle(G, None)


SYMMETRIC = [L.petersen(), *map(L.cycle_graph, range(3, 11)),
             *(L.kneser_graph(2, n) for n in range(6, 10)),
             L.er_polarity_graph(3).graph, L.er_polarity_graph(4).graph]


def relabel(G, perm):
    """G with each vertex v renamed perm[v], its generators conjugated."""
    gens = []
    for g in G.generators:
        h = [0] * G.n
        for v, w in enumerate(g):
            h[perm[v]] = perm[w]
        gens.append(h)
    return L.Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges], generators=gens)


def assert_symmetry_moves_only_nodes(G):
    res, base = L.metric_dimension(G), L.metric_dimension(plain(G))
    assert ((res.lower, res.upper, res.landmarks, res.exact)
            == (base.lower, base.upper, base.landmarks, base.exact)), G
    assert res.nodes <= base.nodes, G


def test_orbital_branching_moves_only_nodes_on_families():
    for G in SYMMETRIC:
        assert G.generators
        assert_symmetry_moves_only_nodes(G)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_orbital_branching_moves_only_nodes_on_relabelled_families(data):
    G = data.draw(st.sampled_from(SYMMETRIC))
    assert_symmetry_moves_only_nodes(relabel(G, data.draw(st.permutations(range(G.n)))))


@pytest.mark.parametrize("spec", ["er:5", "kneser:2:12"])
def test_closes_under_30000_nodes_and_never_enumerates_the_group(monkeypatch, spec):
    def enumerate_group(G):
        raise AssertionError("the search enumerated the group")
    for name, module in list(sys.modules.items()):
        if name.startswith("locdim") and hasattr(module, "automorphism_group"):
            monkeypatch.setattr(module, "automorphism_group", enumerate_group)
    G = resolve_graph_spec(spec)[0]
    res = L.metric_dimension(G, L.Budget(max_nodes=30_000))
    assert res.exact and res.value == 8


def test_large_graph_without_generators_stays_small_and_stops_near_its_cap():
    # 330 vertices, 54,285 pairs: one cover mask per landmark, none per pair
    G = plain(L.kneser_graph(4, 11))
    tracemalloc.start()
    try:
        res = L.metric_dimension(G, L.Budget(max_nodes=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.lower, res.upper, res.exact) == (18, 29, False)
    assert peak < 32 * 2**20
    start = time.monotonic()
    res = L.metric_dimension(G, L.Budget(max_seconds=0.5))
    assert time.monotonic() - start < 3
    assert (res.lower, res.upper, res.exact) == (18, 29, False)


def test_time_capped_search_stops_near_its_cap():
    G = L.hoffman_singleton()
    start = time.monotonic()
    res = L.metric_dimension(G, L.Budget(max_seconds=0.2))
    assert time.monotonic() - start < 2
    assert not res.exact and res.lower >= 6
    assert L.is_resolving(G, res.landmarks).verified


def test_greedy_is_deterministic():
    G = L.kneser_graph(2, 7)
    assert L.greedy_resolving(G) == L.greedy_resolving(G)


def test_moore_resolving_sizes():
    P = L.petersen()
    S = L.moore_resolving(P)
    assert len(S) == 3
    assert L.is_resolving(P, S).verified
    HS = L.hoffman_singleton()
    S = L.moore_resolving(HS)
    assert len(S) == 11  # 2k - 3 with k = 7
    assert L.is_resolving(HS, S).verified


def moore_set(G, u: int, v: int, w: int) -> tuple[int, ...]:
    """N(u) u N(v) minus {u, v, w}, from the edge list."""
    return tuple(sorted((neighbors(G, u) | neighbors(G, v)) - {u, v, w}))


def test_moore_resolving_respects_choices():
    # the package takes u = 0, its least neighbor v and the least w in
    # N(v) - {u}; any adjacent u, v and any such w resolve
    P, HS = L.petersen(), L.hoffman_singleton()
    for G in (P, HS):
        v = min(neighbors(G, 0))
        assert L.moore_resolving(G) == moore_set(G, 0, v, min(neighbors(G, v) - {0}))
    rng = random.Random(11)
    for G, k, sample in ((P, 3, None), (HS, 7, 40)):
        triples = [(u, v, w) for a, b in G.edges for u, v in ((a, b), (b, a))
                   for w in sorted(neighbors(G, v) - {u})]
        if sample is not None:
            triples = rng.sample(triples, sample)
        for u, v, w in triples:
            S = moore_set(G, u, v, w)
            assert len(S) == 2 * k - 3
            assert L.is_resolving(G, S).verified, (u, v, w)


def test_moore_resolving_rejects_non_moore():
    with pytest.raises(ValueError):
        L.moore_resolving(L.cycle_graph(5))  # k = 2 has no such set
    with pytest.raises(ValueError):
        L.moore_resolving(L.kneser_graph(2, 6))


def test_polarity_resolving_all_q():
    for q in (2, 3, 4, 5, 7, 8, 9):
        P = L.er_polarity_graph(q)
        S = L.polarity_resolving(P)
        assert len(S) == 2 * q - 1
        assert L.is_resolving(P.graph, S).verified


def test_random_resolving_round_trip_sampler():
    G = L.kneser_graph(2, 6)
    rng = random.Random(3)
    for _ in range(10):
        S = randomized_resolving(G, rng)
        assert L.is_resolving(G, S).verified
