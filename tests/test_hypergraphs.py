import math
import random
import tracemalloc
from itertools import combinations

import pytest

import locdim as L
from locdim.hypergraphs import Detection

from oracles import (check_degree_properties, detectable, detection,
                     oracle_berge_girth)


def six_cycle():
    return L.Hypergraph(6, [(1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6)])


def edge_hypergraph(G):
    """The 2-uniform hypergraph of G's edges, shifted to vertices 1..n."""
    return L.Hypergraph(G.n, [(u + 1, v + 1) for u, v in G.edges])


def fano_plane():
    return L.Hypergraph(7, [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7),
                            (5, 6, 1), (6, 7, 2), (7, 1, 3)])


def test_construction_validation():
    with pytest.raises(ValueError):
        L.Hypergraph(3, [()])
    with pytest.raises(ValueError):
        L.Hypergraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        L.Hypergraph(3, [(1, 4)])
    H = L.Hypergraph(3, [(2, 1)])
    assert H.edges[0] == (1, 2)  # edges stored sorted


def test_accessors():
    H = six_cycle()
    assert len(H.edges) == 6
    assert H.uniformity() == 2
    assert H.max_edge_cardinality() == 2
    assert H.degrees() == (2,) * 6
    assert H.regularity() == 2
    assert L.Hypergraph(3, [(1, 2), (2, 1)]).edges == ((1, 2), (1, 2))
    mixed = L.Hypergraph(4, [(1, 2), (1, 2, 3)])
    assert mixed.uniformity() is None
    assert mixed.max_edge_cardinality() == 3


def test_berge_girth_of_a_graph_is_its_girth():
    H = edge_hypergraph(L.petersen())
    assert H.n == 10 and len(H.edges) == 15
    assert H.uniformity() == 2
    assert L.berge_girth(H) == 5


def test_json_round_trip():
    H = fano_plane()
    H2 = L.Hypergraph.from_json_dict(H.to_json_dict())
    assert H2.canonical_edges() == H.canonical_edges() and H2.n == H.n


def test_detection_vector_semantics():
    H = six_cycle()
    Z, O, F = Detection.ZERO, Detection.ONE, Detection.FULL
    assert L.detection_vector(H, {1}) == (O, O, Z, Z, Z, Z)
    assert L.detection_vector(H, {1, 2}) == (F, O, O, Z, Z, Z)
    assert L.detection_vector(H, {3, 6}) == (Z, O, O, O, Z, O)
    with pytest.raises(ValueError):
        L.detection_vector(H, {0})
    with pytest.raises(ValueError):
        L.detection_vector(H, {7})


def test_detection_full_needs_max_cardinality():
    # FULL is measured against the largest edge, so a full pair inside a
    # 3-uniform hypergraph still reads ONE
    H = L.Hypergraph(4, [(1, 2, 3)])
    assert L.detection_vector(H, {1, 2}) == (Detection.ONE,)
    assert L.detection_vector(H, {1, 2, 3}) == (Detection.FULL,)


def test_six_cycle_detectability():
    H = six_cycle()
    assert L.is_detectable(H, 1)
    assert L.is_detectable(H, 2)
    r3 = L.is_detectable(H, 3)
    assert not r3.detectable
    # the alternating triples see every edge exactly once
    assert r3.witness == ((1, 3, 5), (2, 4, 6))


def test_witness_is_first_lex_collision():
    H = L.Hypergraph(3, [(1, 2)])
    r = L.is_detectable(H, 1)
    assert not r.detectable
    assert r.witness == ((1,), (2,))


def test_edgeless_detection():
    H0 = L.Hypergraph(4, [])
    assert not L.is_detectable(H0, 1).detectable
    assert L.is_detectable(L.Hypergraph(1, []), 1).detectable


def test_detection_budget_raises():
    H = L.Hypergraph(9, [tuple(e) for e in combinations(range(1, 10), 3)][:20])
    with pytest.raises(L.BudgetExceededError):
        L.is_detectable(H, 3, budget=L.Budget(max_nodes=10))


def test_detection_kernels_match_the_oracle():
    rng = random.Random(28)
    cases = [L.Hypergraph(0, []), L.Hypergraph(4, []),
             L.Hypergraph(5, [(1, 2), (3, 4, 5), (1, 2)])]
    for _ in range(150):
        n = rng.randint(1, 9)
        edges = [rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
                 for _ in range(rng.randint(0, 10))]
        if edges and rng.random() < 0.3:
            edges.append(rng.choice(edges))  # a duplicate edge
        cases.append(L.Hypergraph(n, edges))
    for H in cases:
        for kprime in range(5):
            got = tuple(L.is_detectable(H, kprime))
            assert got == detectable(H, kprime), (H.edges, kprime)
        for size in range(H.n + 1):
            B = rng.sample(range(1, H.n + 1), size)
            assert L.detection_vector(H, B) == detection(H, B), (H.edges, B)


def test_berge_girth_known_values():
    assert L.berge_girth(six_cycle()) == 6
    assert L.berge_girth(fano_plane()) == 3
    assert L.berge_girth(L.Hypergraph(5, [(1, 2), (2, 3)])) == math.inf
    # sharing two vertices is a Berge 2-cycle
    assert L.berge_girth(L.Hypergraph(4, [(1, 2, 3), (1, 2, 4)])) == 2
    assert L.berge_girth(L.Hypergraph(3, [(1, 2), (1, 2)])) == 2


def test_berge_girth_matches_oracle_on_random_hypergraphs():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(3, 8)
        pool = list(combinations(range(1, n + 1), 2)) \
            + list(combinations(range(1, n + 1), 3))
        m = rng.randint(1, min(8, len(pool)))
        H = L.Hypergraph(n, rng.sample(pool, m))
        assert L.berge_girth(H) == oracle_berge_girth(H)


def test_certificate():
    C5 = edge_hypergraph(L.cycle_graph(5))
    assert L.certify_detectable(C5, 2)
    assert L.certify_detectable(C5, 1)
    triangle = edge_hypergraph(L.cycle_graph(3))
    assert not L.certify_detectable(triangle, 2)  # girth 3
    sparse = L.Hypergraph(6, [(1, 2), (3, 4), (5, 6)])
    assert not L.certify_detectable(sparse, 2)  # degree 1 too small
    with pytest.raises(ValueError):
        L.certify_detectable(L.Hypergraph(4, [(1, 2), (1, 2, 3)]), 2)
    with pytest.raises(ValueError):
        L.certify_detectable(C5, 3)  # k' above the uniform cardinality


def test_degree_properties():
    H = six_cycle()
    rep = check_degree_properties(H, 2)
    assert rep.ok and rep.k == 2
    # dropping edges at vertex 1 starves pairs containing it
    H2 = L.Hypergraph(6, [(2, 3), (3, 4), (4, 5), (5, 6)])
    rep2 = check_degree_properties(H2, 2)
    assert not rep2.ok
    assert any(v.u == 1 or v.v == 1 for v in rep2.violations)
    with pytest.raises(ValueError):
        check_degree_properties(L.Hypergraph(5, [(1,), (2, 3)]), 1)
    with pytest.raises(ValueError):
        check_degree_properties(L.Hypergraph(5, [(1, 2)]), 2)  # n < 3k


def test_conversions_roundtrip():
    H = six_cycle()
    S = L.hypergraph_to_resolving(H, 2, 6)
    assert S == (0, 4, 5, 9, 12, 14)
    H2 = L.resolving_to_hypergraph(S, 2, 6)
    assert H2.canonical_edges() == H.canonical_edges()
    cert = L.is_resolving(L.kneser_graph(2, 6), S)
    assert cert.verified


def test_conversion_round_trips_every_kneser_subset():
    # a k-subset of 1..n, as a one-edge hypergraph, is the K(k,n) vertex
    # it labels, and that vertex converts back to it
    rng = random.Random(4)
    for k, n in ((2, 6), (3, 9)):
        subsets = L.kneser_vertex_subsets(k, n)
        G = L.kneser_graph(k, n)
        for i, s in enumerate(subsets):
            reversed_edge = L.Hypergraph(n, [s[::-1]])
            assert L.hypergraph_to_resolving(reversed_edge, k, n) == (i,)
            assert L.resolving_to_hypergraph((i,), k, n).edges == (s,)
            assert G.label_of(i) == "".join(map(str, s))
        shuffled = rng.sample(subsets, len(subsets))
        everything = L.hypergraph_to_resolving(L.Hypergraph(n, shuffled), k, n)
        assert everything == tuple(range(math.comb(n, k)))


def test_conversion_ranks_edges_without_listing_subsets():
    # C(40, 5) = 658,008 subsets; three edges are ranked, none listed
    edges = [(1, 2, 3, 4, 5), (2, 9, 17, 30, 33), (36, 37, 38, 39, 40)]
    tracemalloc.start()
    try:
        S = L.hypergraph_to_resolving(L.Hypergraph(40, edges), 5, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    subsets = L.kneser_vertex_subsets(5, 40)
    assert S == tuple(subsets.index(e) for e in edges)
    assert S[0] == 0 and S[-1] == math.comb(40, 5) - 1


def test_conversion_validation():
    H = six_cycle()
    with pytest.raises(ValueError):
        L.hypergraph_to_resolving(H, 2, 5)  # n mismatch
    with pytest.raises(ValueError):
        L.hypergraph_to_resolving(fano_plane(), 2, 7)  # not 2-uniform
    with pytest.raises(ValueError):
        L.hypergraph_to_resolving(L.Hypergraph(5, [(1, 2)]), 2, 5)  # n < 3k
    with pytest.raises(ValueError):
        L.resolving_to_hypergraph((99,), 2, 6)


def test_default_regularity():
    assert L.default_regularity(2) == 2
    assert L.default_regularity(3) == 3
    assert L.default_regularity(4) == 3
    assert L.default_regularity(5) == 4


def test_gadget_search_k2_finds_five_cycle():
    budget = L.Budget(max_nodes=10**7)
    res = L.search_girth5_gadget(2, budget=budget)
    assert res and res.complete
    assert budget.nodes == 22
    assert res.gadget.canonical_edges() == ((1, 2), (1, 3), (2, 4), (3, 5),
                                            (4, 5))
    assert L.berge_girth(res.gadget) == 5


def test_gadget_search_k2_r3_finds_petersen():
    import networkx as nx
    budget = L.Budget(max_nodes=10**7)
    res = L.search_girth5_gadget(2, regularity=3, budget=budget)
    assert budget.nodes == 133
    H = res.gadget
    assert H is not None and H.n == 10 and len(H.edges) == 15
    assert H.regularity() == 3
    assert L.berge_girth(H) == 5
    A = nx.Graph([(u - 1, v - 1) for u, v in H.edges])
    B = nx.Graph(list(L.petersen().edges))
    assert nx.is_isomorphic(A, B)


def test_gadget_search_k3_absence_is_complete():
    budget = L.Budget(max_nodes=10**7)
    res = L.search_girth5_gadget(3, max_vertices=12, budget=budget)
    assert res.gadget is None
    assert res.complete
    assert budget.nodes == 949
    assert not res


CYCLE5 = ((1, 2), (1, 3), (2, 4), (3, 5), (4, 5))
PETERSEN = ((1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 7), (3, 8), (4, 9),
            (4, 10), (5, 7), (5, 9), (6, 8), (6, 10), (7, 10), (8, 9))
# (k, regularity) -> (gadget edges, budget.nodes) at max_vertices 8..13;
# every search in the grid is complete
GADGET_GRID = {
    (2, None): ((CYCLE5,) * 6, (22, 22, 22, 22, 22, 22)),
    (2, 2): ((CYCLE5,) * 6, (22, 22, 22, 22, 22, 22)),
    (2, 3): ((None, None) + (PETERSEN,) * 4, (84, 84, 133, 133, 133, 133)),
    (2, 4): ((None,) * 6, (137, 202, 283, 381, 498, 636)),
    (3, None): ((None,) * 6, (133, 259, 423, 658, 949, 1347)),
    (3, 2): ((None,) * 6, (26, 128, 128, 128, 368, 368)),
    (3, 3): ((None,) * 6, (133, 259, 423, 658, 949, 1347)),
    (3, 4): ((None,) * 6, (0, 133, 133, 133, 443, 443)),
    (4, None): ((None,) * 6, (0, 0, 0, 0, 615, 615)),
    (4, 2): ((None,) * 6, (90, 90, 349, 349, 883, 883)),
    (4, 3): ((None,) * 6, (0, 0, 0, 0, 615, 615)),
    (4, 4): ((None,) * 6, (0, 0, 0, 0, 0, 1045)),
}


def test_gadget_search_grid_is_pinned():
    for (k, reg), (gadgets, nodes) in GADGET_GRID.items():
        for mv, edges, count in zip(range(8, 14), gadgets, nodes):
            budget = L.Budget(max_nodes=10**7)
            res = L.search_girth5_gadget(k, max_vertices=mv, regularity=reg,
                                         budget=budget)
            got = res.gadget.edges if res.gadget else None
            assert (got, res.complete, budget.nodes) == (edges, True, count), \
                (k, reg, mv)


def test_gadget_search_budget_exhaustion():
    res = L.search_girth5_gadget(2, regularity=3,
                                 budget=L.Budget(max_nodes=3))
    assert res.gadget is None
    assert not res.complete


def test_gadget_search_is_deterministic():
    first = L.search_girth5_gadget(2, regularity=3)
    again = L.search_girth5_gadget(2, regularity=3)
    assert again.gadget.canonical_edges() == first.gadget.canonical_edges()


def test_cover_k2_sizes_and_validity():
    gadget = L.search_girth5_gadget(2).gadget
    for n in (10, 11, 12, 15, 20):
        S = L.kneser_resolving_cover(2, n, gadget)
        G = L.kneser_graph(2, n)
        assert L.is_resolving(G, S).verified, n
        bound = L.kneser_beta_upper(2, n, gadget.n)
        assert len(S) <= bound.bound


def test_cover_validation():
    gadget = L.search_girth5_gadget(2).gadget
    with pytest.raises(ValueError):
        L.kneser_resolving_cover(2, 5, gadget)  # n < 3k
    with pytest.raises(ValueError):
        L.kneser_resolving_cover(3, 9, gadget)  # gadget not 3-uniform
