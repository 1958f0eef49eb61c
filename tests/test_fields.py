import random

import pytest

import locdim as L
from locdim.fields import Field, projective_points

from oracles import adjacent, dot3, has_c4

ORDERS = (2, 3, 4, 5, 7, 8, 9, 16)


def test_field_axioms_exhaustively():
    for q in ORDERS:
        F = L.gf(q)
        add, mul, neg = F.add_table, F.mul_table, F.neg_table
        els = range(q)
        for a in els:
            assert add[a][0] == a
            assert mul[a][1] == a
            assert mul[a][0] == 0
            assert add[a][neg[a]] == 0
            if a:
                assert mul[a][F.inv(a)] == 1
            for b in els:
                assert add[a][b] == add[b][a]
                assert mul[a][b] == mul[b][a]
        # associativity and distributivity on a random third of triples
        rng = random.Random(q)
        for _ in range(200):
            a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
            assert add[add[a][b]][c] == add[a][add[b][c]]
            assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
            assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_multiplicative_group_is_cyclic_of_order_q_minus_1():
    for q in ORDERS:
        F = L.gf(q)
        for a in range(1, q):
            # a^(q-1) = 1 for every nonzero a
            acc = 1
            for _ in range(q - 1):
                acc = F.mul_table[acc][a]
            assert acc == 1


def test_non_prime_power_rejected():
    for bad in (0, 1, 6, 10, 12, 15):
        with pytest.raises(ValueError):
            L.gf(bad)
    assert L.is_prime_power(27) is True  # a prime power, just not constructible
    with pytest.raises(ValueError):
        L.gf(27)  # no irreducible polynomial on file
    assert L.is_prime_power(8) is True
    assert L.is_prime_power(12) is False


def test_gf_is_cached():
    assert L.gf(5) is L.gf(5)
    assert L.gf(4) is not L.gf(5)


def test_projective_points_are_normalized_and_counted():
    for q in (2, 3, 4, 5, 7):
        F = L.gf(q)
        pts = projective_points(F)
        assert len(pts) == q * q + q + 1
        assert pts == sorted(pts)
        assert len(set(pts)) == len(pts)
        for p in pts:
            first = next(c for c in p if c != 0)
            assert first == 1
            assert L.normalize_point(F, p) == p


def test_normalize_point_kills_scaling():
    for q in (3, 4, 5):
        F = L.gf(q)
        rng = random.Random(q)
        for _ in range(60):
            p = tuple(rng.randrange(q) for _ in range(3))
            if p == (0, 0, 0):
                continue
            lam = rng.randrange(1, q)
            scaled = tuple(F.mul_table[lam][c] for c in p)
            assert L.normalize_point(F, scaled) == L.normalize_point(F, p)


def test_dot3_symmetry_and_linearity():
    F = L.gf(8)
    rng = random.Random(8)
    for _ in range(100):
        u = tuple(rng.randrange(8) for _ in range(3))
        v = tuple(rng.randrange(8) for _ in range(3))
        w = tuple(rng.randrange(8) for _ in range(3))
        assert dot3(F, u, v) == dot3(F, v, u)
        vw = tuple(F.add_table[a][b] for a, b in zip(v, w))
        assert dot3(F, u, vw) == F.add_table[dot3(F, u, v)][dot3(F, u, w)]


def test_er_polarity_graph_invariants():
    for q in (2, 3, 4, 5, 7, 8, 9):
        P = L.er_polarity_graph(q)
        G = P.graph
        assert G.n == q * q + q + 1
        assert len(G.edges) == q * (q + 1) ** 2 // 2
        assert G.diameter() == 2
        assert not has_c4(G)
        assert len(P.absolute) == q + 1
        degs = G.degrees()
        for v in range(G.n):
            assert degs[v] == (q if v in P.absolute else q + 1)
        absolutes = sorted(P.absolute)
        for i, a in enumerate(absolutes):
            for b in absolutes[i + 1:]:
                assert not adjacent(G, a, b)


def test_er_rejects_non_prime_power():
    with pytest.raises(ValueError):
        L.er_polarity_graph(6)
    with pytest.raises(ValueError):
        L.er_polarity_graph(1)


def test_er_adjacency_is_orthogonality():
    P = L.er_polarity_graph(3)
    F = L.gf(3)
    for u, v in P.graph.edges:
        assert dot3(F, P.points[u], P.points[v]) == 0
    # absolute points are exactly the self-orthogonal ones
    for i, pt in enumerate(P.points):
        assert (dot3(F, pt, pt) == 0) == (i in P.absolute)


# |group| of the polarity-preserving collineations ER(q) carries: S_3 on the
# coordinates, times sign changes for odd q, times Frobenius for q = p^d
ER_GROUP_ORDERS = {2: 6, 3: 24, 4: 12, 5: 24, 7: 24, 8: 18, 9: 48, 11: 24, 16: 24}


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_er_generators_fix_the_absolute_points(q):
    P = L.er_polarity_graph(q)
    assert len(P.graph.generators) == 2 + q % 2 + (L.gf(q).deg > 1)
    for sig in P.graph.generators:
        assert {sig[v] for v in P.absolute} == P.absolute
    assert len(L.automorphism_group(P.graph)) == ER_GROUP_ORDERS[q]


@pytest.mark.parametrize("q", sorted(ER_GROUP_ORDERS))
def test_er_masks_match_all_pairs_orthogonality(q):
    P = L.er_polarity_graph(q)
    F = L.gf(q)

    def dot(u, v):
        acc = 0
        for a, b in zip(u, v):
            acc = F.add_table[acc][F.mul_table[a][b]]
        return acc

    pts = P.points
    edges = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
             if dot(pts[i], pts[j]) == 0]
    assert P.graph.adj == L.Graph(len(pts), edges).adj
    assert P.absolute == {i for i, x in enumerate(pts) if dot(x, x) == 0}
