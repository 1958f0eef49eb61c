"""Immutable graphs stored as adjacency bitmasks, plus named families.

Vertices are always the dense integers 0..n-1. Families with natural vertex
names (k-subsets for Kneser graphs, pentagon/pentagram coordinates for the
Hoffman-Singleton graph) carry them in ``labels``; adjacency logic never
looks at labels, so one engine serves every family. A graph stores its masks
and symmetry generators, which a family attaches at every size, checked on
first read; edges, the group (``automorphism_group`` lists it while
n * |group| <= 35 * 7!, the one size cap) and every distance are derived,
each from ``distance_layers``. Kneser graphs (and ER(q), in ``fields``) are
built and hashed straight from the masks, never as an edge list.
"""

from __future__ import annotations

import hashlib
import math
from functools import reduce
from itertools import combinations, compress
from operator import itemgetter, or_

UNREACHABLE = -1  # distance sentinel for disconnected pairs


def bits(m: int) -> list[int]:
    """The positions of the set bits of m, in increasing order."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _least(m: int) -> int:
    """The position of the lowest set bit of m > 0."""
    return (m & -m).bit_length() - 1


class Graph:
    """Simple undirected graph stored as adjacency bitmasks.

    Bit v of ``adj[u]`` is set iff uv is an edge; ``generators`` are
    automorphisms, checked on first read. ``edges`` is derived from the
    masks, and every distance from ``distance_layers(u)``; nothing else is kept.
    """

    __slots__ = ("n", "labels", "name", "_generators", "_unchecked", "adj")

    def __init__(self, n: int, edges, labels=None, name: str | None = None,
                 generators=None) -> None:
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count must be a non-negative int, got {n!r}")
        adj = [0] * n
        for u, v in edges:
            if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u!r},{v!r}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._init_masks(adj, labels, name, generators)
        self.generators  # outside input is checked here, not on first read

    def _init_masks(self, adj, labels, name, generators) -> None:
        """Adopt the adjacency masks ``adj`` (taken as symmetric and
        loop-free) and check the labels; the generators are checked when
        ``generators`` is first read."""
        n = self.n = len(adj)
        self.adj = tuple(adj)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError("labels must cover every vertex")
        self.labels = labels
        self.name = name
        self._generators = tuple(tuple(sig) for sig in generators or ())
        self._unchecked = self._generators

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        """The symmetry generators, each checked on first read: row sig[u],
        read at sig[0], sig[1], ..., must be row u (linear in n)."""
        n, todo = self.n, self._unchecked
        rows = [format(m, f"0{n}b")[::-1] for m in self.adj] if todo else ()
        for sig in todo:
            if sorted(sig) != list(range(n)):
                raise ValueError(f"generator {sig} is not a permutation of 0..{n - 1}")
            if any("".join(itemgetter(*sig)(rows[w])) != rows[u]
                   for u, w in enumerate(sig)):
                raise ValueError(f"generator {sig} is not an automorphism")
        self._unchecked = ()
        return self._generators

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once as (u, v) with u < v, in lexicographic order."""
        return tuple((u, v) for u, row in _upper_rows(self, range(self.n))
                     for v in row)

    # -- distance and neighborhood views -------------------------------------

    def distance_layers(self, u: int) -> list[int]:
        """A partition of V by distance from u: the masks of the vertices at
        distance 0, 1, ..., ecc(u), then the mask of the vertices u does not
        reach (0 when G is connected). A bitset BFS over ``adj`` that stops
        once every vertex is reached."""
        if not 0 <= u < self.n:
            raise IndexError(f"vertex {u} outside 0..{self.n - 1}")
        adj, full = self.adj, (1 << self.n) - 1
        seen = layer = 1 << u
        layers = []
        while layer:
            layers.append(layer)
            if seen == full:
                break
            reached = 0
            for v in bits(layer):
                reached |= adj[v]
            layer = reached & ~seen
            seen |= layer
        layers.append(full ^ seen)
        return layers

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj)

    def is_connected(self) -> bool:
        return self.n == 0 or not self.distance_layers(0)[-1]

    def diameter(self) -> int | float:
        """Largest finite distance; math.inf when disconnected.

        Read from ``distance_layers``, which stops once V is covered: on a
        diameter-2 graph each vertex costs one OR per neighbour.
        """
        if not self.is_connected():
            return math.inf
        return max((len(self.distance_layers(u)) for u in range(self.n)), default=2) - 2

    def regularity(self) -> int | None:
        """The common degree when the graph is regular, else None."""
        degs = set(self.degrees())
        if len(degs) == 1:
            return degs.pop()
        return None

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels else str(v)

    def vertex_by_label(self, text: str) -> int:
        """Resolve a CLI-style vertex spec: a label if present, else an index."""
        if self.labels is not None and text in self.labels:
            return self.labels.index(text)
        v = int(text)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {text} outside 0..{self.n - 1}")
        return v

    def __repr__(self) -> str:
        name = self.name or "graph"
        return f"<{name}: {self.n} vertices, {sum(self.degrees()) // 2} edges>"


_MAX_LISTING = 35 * 5040  # n * |group| of K(3,7), the largest a game reads


def automorphism_group(G: Graph) -> list[tuple[int, ...]] | None:
    """The group that G's generators produce, closed by BFS over
    compositions; None without generators, or as soon as n * |group| passes
    ``_MAX_LISTING``: neither a larger listing nor the game's n^2 masks of
    |group| bits is ever built."""
    if not G.generators:
        return None
    group = [tuple(range(G.n))]
    seen = set(group)
    for sig in group:  # grows while it is walked
        for gen in G.generators:
            img = tuple(map(gen.__getitem__, sig))
            if img not in seen:
                seen.add(img)
                group.append(img)
                if G.n * len(group) > _MAX_LISTING:
                    return None
    return group


def orbit_reps(gens, n: int) -> list[int]:
    """The least vertex of each vertex's orbit under the group that the
    permutations ``gens`` of 0..n-1 generate: union-find over the
    generators, each root the least of its class."""
    rep = list(range(n))

    def find(v: int) -> int:
        while rep[v] != v:
            rep[v] = rep[rep[v]]  # path halving
            v = rep[v]
        return v

    for g in gens:
        for v, w in enumerate(g):
            a, b = find(v), find(w)
            if a != b:
                rep[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


def point_stabilizer(gens, n: int, x: int) -> list[tuple[int, ...]]:
    """Generators of the stabilizer of x in the group that ``gens``
    generate; empty when it is trivial. The group is never enumerated.

    A BFS over x's orbit gives, per orbit point y, a transversal element
    u_y with u_y(x) = y. The Schreier generators u_{g(y)}^-1 g u_y, over
    orbit points y and generators g, generate the stabilizer (Seress,
    *Permutation Group Algorithms*, 2003, Lemma 4.2.1). A Sims filter keeps
    at most one element per (first moved point p, image of p): an element
    whose key is taken is divided by the holder, which fixes p too, and
    sifted on; one reduced to the identity is dropped.
    """
    orbit, transversal = [x], {x: tuple(range(n))}
    for y in orbit:  # grows while it is walked
        for g in gens:
            if g[y] not in transversal:
                transversal[g[y]] = tuple(map(g.__getitem__, transversal[y]))
                orbit.append(g[y])
    undo = {y: sorted(range(n), key=u.__getitem__) for y, u in transversal.items()}
    table = {}  # (p, s[p]) -> (s, s^-1)
    for y, u in transversal.items():
        for g in gens:
            back = undo[g[y]]
            s = tuple(back[g[i]] for i in u)
            while (p := next((i for i, w in enumerate(s) if i != w), None)) is not None:
                if (p, s[p]) not in table:
                    table[p, s[p]] = s, sorted(range(n), key=s.__getitem__)
                    break
                s = tuple(map(table[p, s[p]][1].__getitem__, s))  # fixes 0..p
    return [s for s, _ in table.values()]


# -- serialization ------------------------------------------------------------


def graph_to_json_dict(G: Graph) -> dict:
    out: dict = {"n": G.n, "edges": [list(e) for e in G.edges]}
    if G.labels is not None:
        out["labels"] = list(G.labels)
    return out


def graph_from_json_dict(data: dict) -> Graph:
    if not (isinstance(data, dict) and isinstance(data.get("edges"), list)
            and all(isinstance(e, list) for e in data["edges"])
            and isinstance(data.get("labels") or [], list)):
        raise ValueError("a graph artifact is an object with n, a list of "
                         "[u, v] edges and optional labels")
    return Graph(data["n"], data["edges"], labels=data.get("labels"))


_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")  # bin() digits as bytes 0, 1


def _upper_rows(G: Graph, names):
    """(u, the names ``names[v]`` of u's neighbours v > u, in increasing
    order) per vertex u. A row is read from its mask's reversed ``bin()``
    string, linear in the mask's width (``bits`` is quadratic there)."""
    for u, m in enumerate(G.adj):
        flags = bin(m >> (u + 1))[:1:-1].encode("ascii").translate(_DIGIT_FLAGS)
        yield u, compress(names[u + 1:], flags)


def graph_hash(G: Graph) -> str:
    """Structural hash: the sha256 of the compact sorted-key JSON
    ``{"edges":[[u,v],...],"n":N}``, with the edges as in ``G.edges``;
    labels are excluded. The bytes are fed one vertex row at a time,
    straight from the masks, so the edge list is never built."""
    h = hashlib.sha256(b'{"edges":[')
    sep = ""
    for u, row in _upper_rows(G, list(map(str, range(G.n)))):
        if text := f"],[{u},".join(row):
            h.update(f"{sep}[{u},{text}]".encode("ascii"))
            sep = ","
    h.update(f'],"n":{G.n}}}'.encode("ascii"))
    return h.hexdigest()


def graph_to_dot(G: Graph) -> str:
    lines = ["graph G {"]
    for v in range(G.n):
        label = G.label_of(v).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{v} [label="{label}"];')
    for u, v in G.edges:
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- structural predicates -----------------------------------------------------


def graph_girth(G: Graph) -> int | float:
    """Length of the shortest cycle; math.inf for forests.

    A BFS from each root r visits layer d (the vertices at distance d). An
    edge inside layer d closes a cycle of length at most 2d+1; a vertex of
    layer d+1 with two neighbors in layer d closes one of length at most
    2d+2. A root on a shortest cycle meets it at exactly its length, so the
    minimum over roots is the girth.
    """
    adj = G.adj
    best = math.inf
    for r in range(G.n):
        seen = layer = 1 << r
        d = 0
        while layer and 2 * d + 1 < best:
            if any(adj[v] & layer for v in bits(layer)):
                best = 2 * d + 1
                break
            reached = twice = 0
            for v in bits(layer):
                new = adj[v] & ~seen
                twice |= reached & new
                reached |= new
            if twice:
                best = 2 * d + 2
                break
            seen |= reached
            layer = reached
            d += 1
        if best == 3:
            return 3
    return best


def is_moore_diam2(G: Graph) -> int | None:
    """The degree k when G is k-regular of diameter 2, girth 5, order k^2+1.

    The diameter needs no pass of its own: at girth 5 the k neighbors of
    any vertex and their k(k-1) further neighbors are all distinct, so
    with the vertex itself they are all k^2+1 vertices.
    """
    k = G.regularity()
    if k is None or k < 2:
        return None
    if G.n != k * k + 1:
        return None
    if graph_girth(G) != 5:
        return None
    return k


# -- generators ----------------------------------------------------------------


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple(-i % n for i in range(n))
    return Graph(n, edges, name=f"C{n}", generators=[rotation, reflection])


def kneser_vertex_subsets(k: int, n: int) -> list[tuple[int, ...]]:
    """The vertex labels of K(k,n) as subsets, in vertex-index order."""
    return list(combinations(range(1, n + 1), k))


def kneser_labels(k: int, n: int) -> list[str]:
    """The labels of K(k,n)'s vertices, in vertex-index order: each subset's
    elements, run together when n <= 9 and joined by "-" beyond."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    if k >= n:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    sep = "" if n <= 9 else "-"
    return [sep.join(map(str, s)) for s in combinations(range(1, n + 1), k)]


def kneser_graph(k: int, n: int) -> Graph:
    """Vertices are the k-subsets of {1..n} in lexicographic order; edges join
    disjoint subsets. With holders[e] the mask of the subsets that contain e,
    S is joined to every vertex outside the holders of its elements."""
    labels = kneser_labels(k, n)
    subsets = kneser_vertex_subsets(k, n)
    holders = [0] * (n + 1)
    for i, s in enumerate(subsets):
        for e in s:
            holders[e] |= 1 << i
    full = (1 << len(subsets)) - 1
    adj = [full ^ reduce(or_, [holders[e] for e in s]) for s in subsets]
    # the transposition (1 2) and the n-cycle (1 2 ... n) generate S_n
    index = {s: i for i, s in enumerate(subsets)}
    perms = ((2, 1, *range(3, n + 1)), (*range(2, n + 1), 1))
    gens = [[index[tuple(sorted(p[e - 1] for e in s))] for s in subsets] for p in perms]
    G = Graph.__new__(Graph)
    G._init_masks(adj, labels, f"K({k},{n})", gens)
    return G


def petersen() -> Graph:
    """The Petersen graph in its Kneser K(2,5) layout."""
    G = kneser_graph(2, 5)
    G.name = "petersen"
    return G


def hoffman_singleton() -> Graph:
    """Pentagon/pentagram construction: pentagons P_h (j ~ j+-1), pentagrams
    Q_i (j ~ j+-2), and P_h vertex j joined to Q_i vertex h*i+j (mod 5)."""
    def p(h, j):
        return 5 * h + j

    def q(i, j):
        return 25 + 5 * i + j

    edges = []
    labels = [""] * 50
    for h in range(5):
        for j in range(5):
            labels[p(h, j)] = f"P{h}.{j}"
            labels[q(h, j)] = f"Q{h}.{j}"
            edges.append((p(h, j), p(h, (j + 1) % 5)))
            edges.append((q(h, j), q(h, (j + 2) % 5)))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((p(h, j), q(i, (h * i + j) % 5)))
    return Graph(50, edges, labels=labels, name="hoffman-singleton")
