"""GF(q) arithmetic, projective points of PG(2,q), and polarity graphs.

Field elements are integers 0..q-1. For prime q the integer is the residue
itself; for prime powers it encodes the coefficient vector of the residue
polynomial in base p (little-endian), reduced by a fixed irreducible
polynomial. Full addition/multiplication tables are precomputed, so all
arithmetic is table lookups.

ER(q) is built line by line, straight into adjacency masks: a point's
neighbours are the points of its polar line. It carries generators of a
group of collineations that keep the polarity (the coordinate swap
(x0 x1), the 3-cycle of the coordinates, the negation of x0 for odd q and
the Frobenius map for q = p^d, d > 1), which the game solver's symmetry
pruning reads.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .graphs import Graph

# Irreducible monic polynomials x^d + ... used for the supported prime powers,
# given as low-order coefficient tuples (c0, c1, ..., c_{d-1}).
_IRREDUCIBLE = {
    4: (2, (1, 1)),        # x^2 + x + 1 over GF(2)
    8: (2, (1, 1, 0)),     # x^3 + x + 1 over GF(2)
    9: (3, (1, 0)),        # x^2 + 1 over GF(3)
    16: (2, (1, 1, 0, 0)),  # x^4 + x + 1 over GF(2)
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            m = n
            while m % p == 0:
                m //= p
            return m == 1
        p += 1
    return True  # n itself is prime


class Field:
    """GF(q) with exhaustive arithmetic tables; construct via gf(q)."""

    def __init__(self, q: int) -> None:
        if _is_prime(q):
            p, deg = q, 1
            poly = None
        elif q in _IRREDUCIBLE:
            p, coeffs = _IRREDUCIBLE[q]
            deg = len(coeffs)
            poly = coeffs
        else:
            raise ValueError(
                f"unsupported field order {q}: must be prime or one of "
                f"{sorted(_IRREDUCIBLE)}"
            )
        self.q = q
        self.p = p
        self.deg = deg

        def to_vec(i: int) -> list[int]:
            vec = []
            for _ in range(deg):
                vec.append(i % p)
                i //= p
            return vec

        def from_vec(vec) -> int:
            out = 0
            for c in reversed(vec):
                out = out * p + c
            return out

        def mul_vec(a, b):
            prod = [0] * (2 * deg - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        prod[i + j] = (prod[i + j] + ai * bj) % p
            # reduce by x^deg = -(poly), repeatedly folding the top term down
            for top in range(2 * deg - 2, deg - 1, -1):
                c = prod[top]
                if c:
                    prod[top] = 0
                    for j, pj in enumerate(poly):
                        prod[top - deg + j] = (prod[top - deg + j] - c * pj) % p
            return prod[:deg]

        if deg == 1:
            self.add_table = tuple(tuple((a + b) % p for b in range(q)) for a in range(q))
            self.mul_table = tuple(tuple((a * b) % p for b in range(q)) for a in range(q))
        else:
            vecs = [to_vec(i) for i in range(q)]
            self.add_table = tuple(
                tuple(from_vec([(x + y) % p for x, y in zip(vecs[a], vecs[b])])
                      for b in range(q))
                for a in range(q)
            )
            self.mul_table = tuple(
                tuple(from_vec(mul_vec(vecs[a], vecs[b])) for b in range(q))
                for a in range(q)
            )
        self.neg_table = tuple(next(b for b in range(q) if self.add_table[a][b] == 0)
                               for a in range(q))
        self.inv_table = {a: next(b for b in range(q) if self.mul_table[a][b] == 1)
                          for a in range(1, q)}

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.inv_table[a]

    def __repr__(self) -> str:
        return f"GF({self.q})"


@functools.lru_cache(maxsize=None)
def gf(q: int) -> Field:
    """The field context for GF(q); cached so contexts compare by identity."""
    return Field(q)


def normalize_point(field: Field, coords: tuple[int, int, int]) -> tuple[int, int, int]:
    lead = next(filter(None, coords), 0)
    if not lead:
        raise ValueError("the zero triple is not a projective point")
    row = field.mul_table[field.inv(lead)]
    return tuple(map(row.__getitem__, coords))


def projective_points(field: Field) -> list[tuple[int, int, int]]:
    """All points of PG(2,q) as normalized triples, in lexicographic order."""
    q = field.q
    pts = [(0, 0, 1)]
    pts.extend((0, 1, b) for b in range(q))
    pts.extend((1, a, b) for a in range(q) for b in range(q))
    return sorted(pts)


class PolarityGraph(NamedTuple):
    """ER(q): projective points with u ~ v iff their dot product vanishes."""

    graph: Graph
    q: int
    absolute: frozenset
    points: tuple[tuple[int, int, int], ...]


def er_polarity_graph(q: int) -> PolarityGraph:
    """The orthogonal-polarity graph on the q^2+q+1 points of PG(2,q).

    Built line by line, straight into masks: the neighbours of x are the
    q+1 points of its polar line x^⊥, minus x itself when x is absolute.
    x's leading coordinate x_i is 1, so each point (y_j, y_k) of PG(1,q)
    on the other two coordinates gives y_i = -(x_j y_j + x_k y_k).

    The graph carries generators of a group of collineations that keep
    the polarity (x.y = 0 implies g(x).g(y) = 0), so each is an
    automorphism: the swap of x0 and x1, the 3-cycle (x0, x1, x2) ->
    (x1, x2, x0), for odd q the negation of x0, and for q = p^d with
    d > 1 the Frobenius map c -> c^p on every coordinate.
    """
    field = gf(q)
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    points = projective_points(field)
    index = {pt: v for v, pt in enumerate(points)}

    def vertex(coords) -> int:
        return index[normalize_point(field, coords)]

    pg1 = [(0, 1)] + [(1, t) for t in range(q)]
    adj = []
    for x in points:
        i = x.index(1)  # the leading coordinate of a normalized point
        j, k = (i + 1) % 3, (i + 2) % 3
        m = 0
        for a, b in pg1:
            y = [0, 0, 0]
            y[i], y[j], y[k] = neg[add[mul[x[j]][a]][mul[x[k]][b]]], a, b
            m |= 1 << vertex(tuple(y))
        adj.append(m)
    absolute = frozenset(v for v, m in enumerate(adj) if m >> v & 1)
    adj = [m & ~(1 << v) for v, m in enumerate(adj)]

    maps = [lambda x: (x[1], x[0], x[2]), lambda x: (x[1], x[2], x[0])]
    if q % 2:
        maps.append(lambda x: (neg[x[0]], x[1], x[2]))
    if field.deg > 1:
        frob = list(range(q))
        for _ in range(field.p - 1):
            frob = [mul[f][c] for c, f in enumerate(frob)]
        maps.append(lambda x: tuple(frob[c] for c in x))
    gens = [tuple(vertex(g(x)) for x in points) for g in maps]
    labels = ["(" + ":".join(str(c) for c in pt) + ")" for pt in points]
    graph = Graph.__new__(Graph)
    graph._init_masks(adj, labels, f"ER({q})", gens)
    return PolarityGraph(graph=graph, q=q, absolute=absolute, points=tuple(points))
