"""Immutable graphs stored as adjacency bitmasks, plus named families.

Vertices are always the dense integers 0..n-1. Families with natural vertex
names (k-subsets for Kneser graphs, pentagon/pentagram coordinates for the
Hoffman-Singleton graph) carry them in ``labels``; adjacency logic never
looks at labels, so one engine serves every family. A graph stores its masks
and symmetry generators; edges, distances and the group are derived.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

UNREACHABLE = -1  # dist() sentinel for disconnected pairs


def bits(m: int) -> list[int]:
    """The positions of the set bits of m, in increasing order."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


class Graph:
    """Simple undirected graph stored as adjacency bitmasks.

    Bit v of ``adj[u]`` is set iff uv is an edge; ``generators`` are checked
    automorphisms. ``edges`` is derived from the masks; ``distance_layers(u)``
    runs a bitset BFS from u, and the first ``distance_row(u)`` call keeps
    its result as a row.
    """

    __slots__ = ("n", "labels", "name", "generators", "adj", "_rows")

    def __init__(
        self,
        n: int,
        edges,
        labels=None,
        name: str | None = None,
        generators=None,
    ) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError("labels must cover every vertex")
        self.labels = labels
        self.name = name
        self.generators = tuple(tuple(sig) for sig in generators or ())
        for sig in self.generators:
            if sorted(sig) != list(range(n)):
                raise ValueError(f"generator {sig} is not a permutation of 0..{n - 1}")
            if any(sum(1 << sig[v] for v in bits(m)) != adj[sig[u]]
                   for u, m in enumerate(adj)):
                raise ValueError(f"generator {sig} is not an automorphism")
        self._rows: list[tuple[int, ...] | None] = [None] * n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once as (u, v) with u < v, in lexicographic order."""
        return tuple((u, v) for u, m in enumerate(self.adj)
                     for v in bits(m >> (u + 1) << (u + 1)))

    # -- distance and neighborhood views -------------------------------------

    def dist(self, u: int, v: int) -> int:
        return self.distance_row(u)[v]

    def distance_layers(self, u: int) -> list[int]:
        """Masks of the vertices at distance 0, 1, 2, ... from u: a bitset
        BFS over ``adj`` that stops once every vertex is reached."""
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
        return layers

    def distance_row(self, u: int) -> tuple[int, ...]:
        row = self._rows[u]
        if row is None:
            dist = [UNREACHABLE] * self.n
            for d, layer in enumerate(self.distance_layers(u)):
                for v in bits(layer):
                    dist[v] = d
            row = self._rows[u] = tuple(dist)
        return row

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, u: int) -> frozenset:
        return frozenset(bits(self.adj[u]))

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj)

    def is_connected(self) -> bool:
        return self.n <= 1 or UNREACHABLE not in self.distance_row(0)

    def diameter(self) -> int | float:
        """Largest finite distance; math.inf when disconnected.

        Read from ``distance_layers``, which stops once V is covered: on a
        diameter-2 graph each vertex costs one OR per neighbour, and no
        distance row is kept beyond vertex 0's.
        """
        if not self.is_connected():
            return math.inf
        return max((len(self.distance_layers(u)) for u in range(self.n)), default=1) - 1

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


def automorphism_group(G: Graph) -> list[tuple[int, ...]] | None:
    """The group that G's generators produce, closed by BFS over
    compositions; None when G carries no generators."""
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
    return group


# -- serialization ------------------------------------------------------------


def graph_to_json_dict(G: Graph) -> dict:
    out: dict = {"n": G.n, "edges": [list(e) for e in G.edges]}
    if G.labels is not None:
        out["labels"] = list(G.labels)
    return out


def graph_from_json_dict(data: dict, name: str | None = None) -> Graph:
    return Graph(data["n"], [tuple(e) for e in data["edges"]],
                 labels=data.get("labels"), name=name)


def graph_hash(G: Graph) -> str:
    """Structural hash (vertex count + canonical edge list); labels excluded."""
    return artifact_hash(graph_to_json_dict(G))


def artifact_hash(art: dict) -> str:
    """``graph_hash`` of the graph whose ``graph_to_json_dict`` is ``art``,
    read from the artifact's own ``n`` and ``edges``."""
    payload = json.dumps({"n": art["n"], "edges": art["edges"]},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


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


def has_c4(G: Graph) -> bool:
    """True iff some pair of vertices has at least two common neighbors."""
    adj = G.adj
    return any((adj[u] & adj[v]).bit_count() >= 2
               for u in range(G.n) for v in range(u + 1, G.n))


def is_moore_diam2(G: Graph) -> int | None:
    """The degree k when G is k-regular of diameter 2, girth 5, order k^2+1."""
    k = G.regularity()
    if k is None or k < 2:
        return None
    if G.n != k * k + 1:
        return None
    if G.diameter() != 2:
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


# Kneser graphs up to this n carry generators of the S_n action. Above it the
# group is too large: ``loc_decide`` maps every new belief through all n!
# elements, which stops paying for itself.
_KNESER_AUTOMORPHISM_MAX_N = 7


def kneser_vertex_subsets(k: int, n: int) -> list[tuple[int, ...]]:
    """The vertex labels of K(k,n) as subsets, in vertex-index order."""
    return list(itertools.combinations(range(1, n + 1), k))


def kneser_graph(k: int, n: int) -> Graph:
    """Vertices are the k-subsets of {1..n} in lexicographic order; edges join
    disjoint subsets."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    if k >= n:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    subsets = kneser_vertex_subsets(k, n)
    index = {s: i for i, s in enumerate(subsets)}
    edges = []
    for i, a in enumerate(subsets):
        rest = [e for e in range(1, n + 1) if e not in a]
        edges.extend((i, j) for b in itertools.combinations(rest, k)
                     if (j := index[b]) > i)
    # Single digits concatenate unambiguously; beyond 9 use a separator.
    sep = "" if n <= 9 else "-"
    labels = [sep.join(map(str, s)) for s in subsets]
    # the transposition (1 2) and the n-cycle (1 2 ... n) generate S_n
    perms = ((2, 1, *range(3, n + 1)), (*range(2, n + 1), 1))
    gens = [tuple(index[tuple(sorted(p[e - 1] for e in s))] for s in subsets)
            for p in perms] if n <= _KNESER_AUTOMORPHISM_MAX_N else None
    return Graph(len(subsets), edges, labels=labels, name=f"K({k},{n})",
                 generators=gens)


def kneser_vertex_index(subset, k: int, n: int) -> int:
    """Lexicographic rank of a k-subset of {1..n} among all k-subsets."""
    s = tuple(sorted(subset))
    if len(s) != k or len(set(s)) != k or s[0] < 1 or s[-1] > n:
        raise ValueError(f"{subset} is not a k-subset of 1..{n}")
    rank = 0
    prev = 0
    for pos, value in enumerate(s):
        for skipped in range(prev + 1, value):
            rank += math.comb(n - skipped, k - pos - 1)
        prev = value
    return rank


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
