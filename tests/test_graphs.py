import json
import math
import random
import tracemalloc
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locdim as L
from locdim.game import _split
from locdim.graphs import (UNREACHABLE, bits, kneser_labels, orbit_reps,
                           point_stabilizer)

from oracles import (adjacent, bfs_girth, distance_rows,
                     distance_vector_groups, first_repeated_vector, has_c4,
                     json_graph_hash, moore_degree, neighbors, to_nx)


def layer_rows(G):
    """rows[u][v]: the index of the layer of ``distance_layers(u)`` holding
    v, UNREACHABLE when v is in the last one, the vertices u does not reach."""
    rows = []
    for u in range(G.n):
        *layers, _ = G.distance_layers(u)
        rows.append([next((d for d, m in enumerate(layers) if m >> v & 1),
                          UNREACHABLE) for v in range(G.n)])
    return rows


def corpus():
    return [
        L.cycle_graph(5),
        L.petersen(),
        L.hoffman_singleton(),
        L.kneser_graph(2, 6),
        L.er_polarity_graph(3).graph,
    ]


def test_bfs_matches_networkx():
    for G in corpus():
        H = to_nx(G)
        for s in range(G.n):
            lengths = nx.single_source_shortest_path_length(H, s)
            layers = G.distance_layers(s)
            for v in range(G.n):
                d = next(d for d, m in enumerate(layers) if m >> v & 1)
                assert (d if d < len(layers) - 1 else UNREACHABLE) \
                    == lengths.get(v, UNREACHABLE)


@st.composite
def graphs_with_components(draw):
    """Graphs on 0..20 vertices whose edges stay inside up to four drawn
    components, so isolated vertices and disconnected graphs are common."""
    n = draw(st.integers(min_value=0, max_value=20))
    comp = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pool = [(a, b) for a, b in combinations(range(n), 2) if comp[a] == comp[b]]
    edges = draw(st.sets(st.sampled_from(pool))) if pool else set()
    return L.Graph(n, sorted(edges))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_distance_readers_match_networkx_rows_on_random_graphs(data):
    G = data.draw(graphs_with_components())
    rows = distance_rows(G)
    for u, row in enumerate(rows):
        # the layers at distance 0..ecc(u), then the vertices u does not reach
        expect = [sum(1 << v for v, d in enumerate(row) if d == e)
                  for e in [*range(max(row) + 1), -1]]
        assert G.distance_layers(u) == expect
    vertex = st.integers(0, max(G.n - 1, 0))
    # landmark lists, empty and with repeats included
    S = data.draw(st.lists(vertex, max_size=6 if G.n else 0))
    cert = L.is_resolving(G, S)
    pair = first_repeated_vector(G, S)
    assert (cert.verified, cert.witness_pair) == (pair is None, pair)
    B = data.draw(st.sets(vertex, max_size=G.n))
    cells = _split(map(G.distance_layers, S), sum(1 << v for v in B))
    assert {vec: frozenset(bits(c)) for vec, c in cells.items()} \
        == distance_vector_groups(G, S, B)


def test_diameter_against_networkx():
    for G in corpus():
        assert G.diameter() == nx.diameter(to_nx(G))


def test_moore_recognition():
    assert L.is_moore_diam2(L.cycle_graph(5)) == 2
    assert L.is_moore_diam2(L.petersen()) == 3
    assert L.is_moore_diam2(L.hoffman_singleton()) == 7
    assert L.is_moore_diam2(L.cycle_graph(4)) is None
    assert L.is_moore_diam2(L.kneser_graph(2, 6)) is None
    assert L.is_moore_diam2(L.er_polarity_graph(3).graph) is None


def test_moore_recognition_matches_a_diameter_oracle():
    # is_moore_diam2 reads the diameter off regularity, order and girth;
    # the oracle tests it outright
    graphs = [*map(L.cycle_graph, range(3, 13)),
              *(L.kneser_graph(2, n) for n in range(5, 9)),
              *(L.er_polarity_graph(q).graph for q in range(2, 6)),
              L.hoffman_singleton()]
    graphs += [L.Graph(10, nx.random_regular_graph(3, 10, seed=s).edges)
               for s in range(40)]
    found = [L.is_moore_diam2(G) for G in graphs]
    assert found == [moore_degree(G) for G in graphs]
    assert {2, 3, 7} <= set(found)  # C5, K(2,5) and HS


def test_hoffman_singleton_structure():
    HS = L.hoffman_singleton()
    assert HS.n == 50
    assert len(HS.edges) == 175
    assert HS.regularity() == 7
    assert HS.diameter() == 2
    assert L.graph_girth(HS) == 5
    assert not has_c4(HS)
    assert HS.label_of(0) == "P0.0"
    assert HS.vertex_by_label("Q4.4") == 49


def test_petersen_is_kneser_2_5():
    P = L.petersen()
    K = L.kneser_graph(2, 5)
    assert L.graph_hash(P) == L.graph_hash(K)
    assert nx.is_isomorphic(to_nx(P), to_nx(K))
    assert P.name == "petersen"
    assert P.labels == K.labels
    assert L.automorphism_group(P) == L.automorphism_group(K)


def test_kneser_diameter_formula():
    # d(K(k,n)) = ceil((k-1)/(n-2k)) + 1 for n > 2k
    for k in (2, 3):
        for n in range(2 * k + 1, 13):
            G = L.kneser_graph(k, n)
            expect = math.ceil((k - 1) / (n - 2 * k)) + 1
            assert G.diameter() == expect, (k, n)


def test_kneser_counts_and_adjacency():
    G = L.kneser_graph(3, 9)
    assert G.n == 84
    assert G.regularity() == math.comb(6, 3)
    for n in range(2, 10):
        for k in range(1, n):
            subsets = L.kneser_vertex_subsets(k, n)
            disjoint = [(i, j) for i, j in combinations(range(len(subsets)), 2)
                        if not set(subsets[i]) & set(subsets[j])]
            assert list(L.kneser_graph(k, n).edges) == disjoint, (k, n)


def test_kneser_labels():
    G = L.kneser_graph(2, 6)
    assert G.label_of(0) == "12"
    assert G.label_of(14) == "56"
    assert G.vertex_by_label("16") == 4
    assert G.vertex_by_label("3") == 3  # numeric fallback after label miss
    with pytest.raises(ValueError):
        G.vertex_by_label("99")
    for k, n in ((1, 2), (2, 6), (3, 9), (2, 10), (3, 11)):
        assert kneser_labels(k, n) == list(L.kneser_graph(k, n).labels)
    assert kneser_labels(2, 10)[:2] == ["1-2", "1-3"]


def test_automorphisms_preserve_adjacency():
    for G in (L.cycle_graph(5), L.cycle_graph(8), L.kneser_graph(2, 5),
              L.kneser_graph(2, 6)):
        autos = L.automorphism_group(G)
        assert autos
        assert len(set(autos)) == len(autos)
        for sig in autos:
            assert sorted(sig) == list(range(G.n))
            for u, v in G.edges:
                assert adjacent(G, sig[u], sig[v])
    assert len(L.automorphism_group(L.cycle_graph(5))) == 10
    assert len(L.automorphism_group(L.kneser_graph(2, 5))) == 120


def test_group_above_the_listing_cap_is_not_listed():
    # a group is listed while n * |group| <= 35 * 7!, K(3,7)'s listing
    G = L.kneser_graph(2, 8)  # 28 * 8! passes it
    assert len(G.generators) == 2
    assert L.automorphism_group(G) is None
    assert len(L.automorphism_group(L.kneser_graph(2, 7))) == 5040
    assert len(L.automorphism_group(L.kneser_graph(3, 7))) == 5040
    assert len(L.automorphism_group(L.cycle_graph(296))) == 2 * 296
    assert L.automorphism_group(L.cycle_graph(297)) is None
    # the listing stops at the cap: at most 35 * 7! entries are ever held
    K = L.kneser_graph(2, 30)
    tracemalloc.start()
    try:
        assert L.automorphism_group(K) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_generators_must_be_automorphisms():
    edges = L.petersen().edges
    with pytest.raises(ValueError):  # a transposition that breaks adjacency
        L.Graph(10, edges, generators=[(1, 0, *range(2, 10))])
    for sig in [(0, 0, *range(2, 10)), tuple(range(9)), tuple(range(1, 11))]:
        with pytest.raises(ValueError):
            L.Graph(10, edges, generators=[sig])
    assert L.Graph(10, edges, generators=L.petersen().generators).generators
    K = L.kneser_graph(2, 12)
    sig = list(K.generators[1])
    sig[0], sig[1] = sig[1], sig[0]  # two images swapped
    with pytest.raises(ValueError):
        L.Graph(K.n, K.edges, generators=[sig])
    assert L.Graph(K.n, K.edges, generators=K.generators).generators
    assert L.Graph(0, [], generators=[()]).generators == ((),)
    assert L.Graph(1, [], generators=[(0,)]).generators == ((0,),)


def test_family_generators_are_checked_before_a_solver_reads_them():
    K = L.kneser_graph(2, 7)
    bad = list(K._generators[1])
    bad[0], bad[1] = bad[1], bad[0]  # two images swapped
    G = L.Graph.__new__(L.Graph)
    G._init_masks(list(K.adj), None, "K(2,7)", [K._generators[0], bad])
    with pytest.raises(ValueError, match="not an automorphism"):
        L.metric_dimension(G)
    with pytest.raises(ValueError, match="not an automorphism"):
        L.automorphism_group(G)
    # without a budget K(2,7) is beyond the game's default scope, and the
    # answer "unknown" comes before any symmetry is read
    with pytest.raises(ValueError, match="not an automorphism"):
        L.loc_decide(G, 1, budget=L.Budget(max_nodes=10))


def test_family_generators_are_not_checked_unless_read():
    K = L.kneser_graph(2, 9)
    L.graph_hash(K)
    L.graph_to_json_dict(K)
    assert L.is_resolving(K, range(K.n)).verified
    assert K._unchecked
    assert len(K.generators) == 2 and not K._unchecked


def test_group_is_sn_action_for_kneser_and_dihedral_for_cycles():
    for n in range(2, 8):
        for k in range(1, n):
            subsets = list(combinations(range(1, n + 1), k))
            index = {s: i for i, s in enumerate(subsets)}
            action = {tuple(index[tuple(sorted(p[e - 1] for e in s))]
                            for s in subsets)
                      for p in permutations(range(1, n + 1))}
            assert set(L.automorphism_group(L.kneser_graph(k, n))) == action, (k, n)
    for n in range(3, 31):
        dihedral = {tuple((s + i) % n for i in range(n)) for s in range(n)} \
            | {tuple((s - i) % n for i in range(n)) for s in range(n)}
        assert set(L.automorphism_group(L.cycle_graph(n))) == dihedral, n


def test_edges_are_canonical_whatever_the_input_order():
    A = L.Graph(4, [(1, 0), (0, 1), (2, 1), (1, 2)])
    B = L.Graph(4, [(0, 1), (1, 2)])
    assert A.edges == ((0, 1), (1, 2))
    assert L.graph_to_json_dict(A) == L.graph_to_json_dict(B)
    assert L.graph_hash(A) == L.graph_hash(B)


def test_json_round_trip_and_hash():
    for G in corpus():
        data = L.graph_to_json_dict(G)
        G2 = L.graph_from_json_dict(data)
        assert G2.edges == G.edges and G2.n == G.n
        assert L.graph_hash(G2) == L.graph_hash(G)
        assert json.loads(json.dumps(data)) == data
    # the hash covers structure only, not labels
    A = L.Graph(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
    B = L.Graph(3, [(0, 1), (1, 2)])
    assert L.graph_hash(A) == L.graph_hash(B)
    C = L.Graph(3, [(0, 1), (0, 2)])
    assert L.graph_hash(A) != L.graph_hash(C)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_graph_hash_matches_json_route_on_random_graphs(data):
    # isolated vertices included; edges may come reversed or twice
    n = data.draw(st.integers(min_value=0, max_value=40))
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs))) if pairs else []
    edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in edges]
    edges += data.draw(st.lists(st.sampled_from(edges))) if edges else []
    assert L.graph_hash(L.Graph(n, edges)) == json_graph_hash(n, edges)


def test_graph_hash_matches_json_route_on_families():
    families = [L.hoffman_singleton(), L.kneser_graph(4, 12)]
    families += [L.er_polarity_graph(q).graph for q in (2, 3, 4, 5, 7)]
    families += [L.cycle_graph(n) for n in (3, 4, 5, 9, 64)]
    for G in families:
        edges = [(u, v) for u in range(G.n) for v in range(G.n)
                 if adjacent(G, u, v)]
        assert L.graph_hash(G) == json_graph_hash(G.n, edges), G


def test_dot_export():
    G = L.cycle_graph(5)
    dot = L.graph_to_dot(G)
    lines = dot.strip().splitlines()
    assert lines[0].startswith("graph")
    assert lines[-1] == "}"
    assert sum("--" in ln for ln in lines) == len(G.edges)


def test_girth_matches_oracle_on_random_graphs():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(4, 9)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.35]
        G = L.Graph(n, edges)
        adj = {v: neighbors(G, v) for v in range(n)}
        assert L.graph_girth(G) == bfs_girth(adj)


def test_girth_of_forests_is_infinite():
    G = L.Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert L.graph_girth(G) == math.inf


def test_has_c4_matches_brute_force():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(4, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        G = L.Graph(n, edges)
        brute = any(
            adjacent(G, a, b) and adjacent(G, b, c) and adjacent(G, c, d)
            and adjacent(G, d, a)
            for a, b, c, d in __import__("itertools").permutations(range(n), 4)
            if a == min(a, b, c, d))
        assert has_c4(G) == brute


def test_disconnected_distances():
    G = L.Graph(4, [(0, 1), (2, 3)])
    assert layer_rows(G)[0][2] == UNREACHABLE
    assert not G.is_connected()
    assert G.diameter() == math.inf


def test_distance_layers_rejects_vertices_outside_the_graph():
    C5 = L.cycle_graph(5)
    for u in (-1, 5):
        with pytest.raises(IndexError, match=r"vertex -?\d outside 0\.\.4"):
            C5.distance_layers(u)


def test_neighborhood_helpers():
    P = L.petersen()
    assert P.degrees() == (3,) * 10
    assert P.degrees() == tuple(len(neighbors(P, v)) for v in range(10))


def test_construction_validation():
    with pytest.raises(ValueError):
        L.cycle_graph(2)
    with pytest.raises(ValueError):
        L.Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        L.Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        L.kneser_graph(0, 5)
    with pytest.raises(ValueError):
        L.kneser_graph(5, 3)
    assert len(L.kneser_graph(3, 5).edges) == 0  # legal but edgeless


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pool = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pool)))
    return L.Graph(n, sorted(edges))


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_distance_axioms(G):
    dist = layer_rows(G)
    for u in range(G.n):
        assert dist[u][u] == 0
        for v in range(G.n):
            assert dist[u][v] == dist[v][u]
            for w in range(G.n):
                duv, dvw, duw = dist[u][v], dist[v][w], dist[u][w]
                if duv != UNREACHABLE and dvw != UNREACHABLE:
                    assert duw != UNREACHABLE and duw <= duv + dvw


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_girth_oracle_property(G):
    adj = {v: neighbors(G, v) for v in range(G.n)}
    assert L.graph_girth(G) == bfs_girth(adj)


SYMMETRIC = [L.petersen(), *map(L.cycle_graph, range(3, 11)), L.kneser_graph(2, 6),
             *(L.er_polarity_graph(q).graph for q in (3, 4, 5))]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_group_helpers_match_enumeration(data):
    """Along a drawn base, each stabilizer's orbits are those of the
    enumerated group filtered to it, and the orbit lengths multiply to |G|."""
    for G in SYMMETRIC:
        n, gens, group = G.n, G.generators, L.automorphism_group(G)
        order, product = len(group), 1
        for x in data.draw(st.permutations(range(n))):
            reps = orbit_reps(gens, n)
            assert reps == [min(g[v] for g in group) for v in range(n)], G
            assert set(gens) <= set(group)
            product *= reps.count(reps[x])
            gens = point_stabilizer(gens, n, x)
            group = [g for g in group if g[x] == x]
        assert product == order and len(group) == 1 and gens == [], G
