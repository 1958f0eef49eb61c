"""Detection vectors, detectability, Berge girth, and the gadget machinery.

Hypergraph vertices are the integers 1..n (matching the subset labels of
Kneser vertices, which is what the conversion operations trade in). Edges
keep their construction order so detection vectors stay aligned with them;
duplicate edges are representable. The kernels read vertex masks, bit v for
vertex v: edges, probe sets and the rows of the gadget's section graph.
"""

from __future__ import annotations

import enum
import math
from itertools import combinations
from typing import NamedTuple

from .budget import Budget, BudgetExceededError
from .graphs import Graph, bits, graph_girth, kneser_vertex_subsets

DEFAULT_DETECT_BUDGET = 10**8  # vector-entry comparisons


class Detection(enum.IntEnum):
    """Per-hyperedge outcome of probing a vertex set."""

    ZERO = 0   # the probe set misses the hyperedge
    ONE = 1    # partial intersection
    FULL = 2   # the probe set contains all k vertices of the hyperedge


class Hypergraph:
    """Vertex set {1..n} plus an ordered list of nonempty hyperedges."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges) -> None:
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count must be a non-negative int, got {n!r}")
        clean = []
        for e in edges:
            if not isinstance(e, (list, tuple)):
                raise ValueError(f"hyperedge {e!r} is not a list of vertices")
            seq = tuple(e)
            if not seq:
                raise ValueError("hyperedges must be nonempty")
            if not all(type(x) is int and 1 <= x <= n for x in seq):
                raise ValueError(f"hyperedge {seq} outside 1..{n}")
            t = tuple(sorted(set(seq)))
            if len(t) != len(seq):
                raise ValueError(f"hyperedge {seq} repeats a vertex")
            clean.append(t)
        self.n = n
        self.edges = tuple(clean)

    def max_edge_cardinality(self) -> int:
        return max((len(e) for e in self.edges), default=0)

    def uniformity(self) -> int | None:
        """The common edge cardinality for uniform hypergraphs, else None."""
        sizes = {len(e) for e in self.edges}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def degrees(self) -> tuple[int, ...]:
        counts = [0] * (self.n + 1)
        for e in self.edges:
            for u in e:
                counts[u] += 1
        return tuple(counts[1:])

    def regularity(self) -> int | None:
        degs = set(self.degrees())
        if len(degs) == 1:
            return degs.pop()
        return None

    def canonical_edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.edges))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.canonical_edges()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Hypergraph":
        if not (isinstance(data, dict) and isinstance(data.get("edges"), list)):
            raise ValueError("a hypergraph is an object with n and a list of edges")
        return cls(data.get("n"), data["edges"])

    def __repr__(self) -> str:
        return f"<hypergraph: {self.n} vertices, {len(self.edges)} edges>"


# -- detection ----------------------------------------------------------------


def _detector(H: Hypergraph):
    """The detection vector of a probe mask (bit v for vertex v), as a
    function: per edge of H, 0 when the probe misses it, 2 when the probe
    meets as many of its vertices as the largest edge has, else 1."""
    masks = [sum(1 << v for v in e) for e in H.edges]
    levels = (0, *[1] * (H.max_edge_cardinality() - 1), 2)
    return lambda probe: tuple([levels[(e & probe).bit_count()] for e in masks])


def detection_vector(H: Hypergraph, B) -> tuple[Detection, ...]:
    """Per-edge ZERO/ONE/FULL record of how the probe set B meets each edge.

    FULL means the intersection has the full uniform cardinality (the largest
    edge size), so it can only appear when |B| reaches that size.
    """
    probe = 0
    for v in B:
        if type(v) is not int or not 1 <= v <= H.n:
            raise ValueError(f"probe vertex {v!r} outside 1..{H.n}")
        probe |= 1 << v
    return tuple(map(Detection, _detector(H)(probe)))


class DetectResult(NamedTuple):
    """Outcome of a brute-force detectability check."""

    detectable: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    sets_checked: int

    def __bool__(self) -> bool:
        return self.detectable


def is_detectable(H: Hypergraph, kprime: int, budget: Budget | None = None) -> DetectResult:
    """True iff all k'-subsets of vertices have pairwise distinct detection
    vectors; on failure carries the first colliding pair in lexicographic
    order. Raises BudgetExceededError when the enumeration would exceed the
    budget, signalling the caller to fall back to certify_detectable."""
    if kprime < 0:
        raise ValueError("k' must be non-negative")
    if budget is None:
        budget = Budget(max_nodes=DEFAULT_DETECT_BUDGET)
    cost = max(1, len(H.edges))
    detect = _detector(H)
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    checked = 0
    for B in combinations(range(1, H.n + 1), kprime):
        budget.spend(cost)
        checked += 1
        vec = detect(sum(1 << v for v in B))
        prior = seen.get(vec)
        if prior is not None:
            return DetectResult(False, (prior, B), checked)
        seen[vec] = B
    return DetectResult(True, None, checked)


# -- Berge girth ---------------------------------------------------------------


def berge_girth(H: Hypergraph) -> int | float:
    """Length of the shortest Berge cycle: distinct vertices v1..vl and
    pairwise-distinct hyperedges e1..el with {vi, vi+1} in ei, cyclically,
    l >= 2. Computed as half the girth of the vertex/edge incidence graph;
    math.inf when acyclic."""
    n, g = H.n, len(H.edges)
    incidence = []
    for i, e in enumerate(H.edges):
        for v in e:
            incidence.append((v - 1, n + i))
    inc_graph = Graph(n + g, incidence)
    girth = graph_girth(inc_graph)
    return girth if girth == math.inf else girth // 2


def certify_detectable(H: Hypergraph, kprime: int) -> bool:
    """Sound one-sided certificate: a k-uniform hypergraph with minimum
    hyperedge-degree at least k'/2 + 1 and Berge girth at least 5 is
    k'-detectable. False is inconclusive."""
    k = H.uniformity()
    if k is None:
        raise ValueError("certificate requires a uniform hypergraph")
    if kprime > k:
        raise ValueError(f"k'={kprime} exceeds the uniform cardinality {k}")
    min_degree = min(H.degrees(), default=0) if H.n else 0
    if 2 * min_degree < kprime + 2:  # integer form of degree >= k'/2 + 1
        return False
    return berge_girth(H) >= 5


# -- conversions between detectable hypergraphs and Kneser resolving sets -------


def hypergraph_to_resolving(H: Hypergraph, k: int, n: int) -> tuple[int, ...]:
    """Read each hyperedge as a K(k,n) vertex; a k-detectable k-uniform
    hypergraph on [n] becomes a resolving set of the same cardinality."""
    if n < 3 * k:
        raise ValueError(f"conversion requires n >= 3k, got n={n}, k={k}")
    if H.n != n:
        raise ValueError(f"hypergraph is on {H.n} vertices, expected {n}")
    if H.uniformity() != k:
        raise ValueError(f"hypergraph must be {k}-uniform")
    # The lexicographic rank of {c_1 < ... < c_k}: C(n, k) - 1 minus the
    # subsets after it, C(n - c_i, k - i + 1) of which first differ at
    # place i, there exceeding c_i.
    top = math.comb(n, k) - 1
    return tuple(sorted({top - sum(math.comb(n - c, k - i) for i, c in enumerate(e))
                         for e in H.edges}))


def resolving_to_hypergraph(S, k: int, n: int) -> Hypergraph:
    """Read each K(k,n) landmark's label as a hyperedge on [n]."""
    if n < 3 * k:
        raise ValueError(f"conversion requires n >= 3k, got n={n}, k={k}")
    subsets = kneser_vertex_subsets(k, n)
    edges = []
    for s in S:
        if not 0 <= s < len(subsets):
            raise ValueError(f"{s} is not a K({k},{n}) vertex index")
        edges.append(subsets[s])
    return Hypergraph(n, sorted(edges))


# -- girth-5 gadget search -------------------------------------------------------


def default_regularity(k: int) -> int:
    """ceil(k/2 + 1), the hyperedge-degree the cover construction needs."""
    return (k + 1) // 2 + 1


class GadgetSearchResult(NamedTuple):
    gadget: Hypergraph | None
    complete: bool  # True when the whole space up to max_vertices was refuted

    def __bool__(self) -> bool:
        return self.gadget is not None


def search_girth5_gadget(
    k: int,
    max_vertices: int = 12,
    regularity: int | None = None,
    budget: Budget | None = None,
) -> GadgetSearchResult:
    """Backtracking search for a k-uniform, regularity-regular hypergraph of
    Berge girth at least 5 on at most max_vertices vertices.

    The default regularity is ceil(k/2 + 1). Absence is a value:
    complete=True means the whole space was exhausted, not just the budget.
    """
    if k < 2:
        raise ValueError("gadgets need k >= 2")
    r = default_regularity(k) if regularity is None else regularity
    if r < 1:
        raise ValueError("regularity must be positive")
    if budget is None:
        budget = Budget(max_nodes=10**7)
    # Any vertex lies in r edges that pairwise share only that vertex.
    min_m = max(k, 1 + r * (k - 1))
    for m in range(min_m, max_vertices + 1):
        if (m * r) % k != 0:
            continue
        try:
            found = _gadget_backtrack(k, r, m, budget)
        except BudgetExceededError:
            return GadgetSearchResult(None, complete=False)
        if found is not None:
            H = Hypergraph(m, found)
            # Independent verification of what the incremental pruning
            # promised; raised, not asserted, so python -O keeps it.
            if H.uniformity() != k or H.regularity() != r or berge_girth(H) < 5:
                raise RuntimeError(f"gadget search built a hypergraph that is not "
                                   f"{k}-uniform, {r}-regular and of girth 5")
            return GadgetSearchResult(H, complete=True)
    return GadgetSearchResult(None, complete=True)


def _gadget_backtrack(k: int, r: int, m: int, budget: Budget):
    """Depth-first construction over [m]; every edge is added at the least
    vertex still short of degree r. Girth is maintained incrementally: a new
    edge's internal pairs must be at Berge distance >= 4 in the section graph
    built so far, whose row ``sec[v]`` masks the vertices sharing an edge
    with v."""
    target_edges = m * r // k
    deg = [0] * (m + 1)
    sec = [0] * (m + 1)
    edges: list[tuple[int, ...]] = []

    def candidate_ok(edge: tuple[int, ...], mask: int) -> bool:
        for a in edge:  # the radius-3 ball around a meets no other vertex
            ball = frontier = 1 << a
            for _ in range(3):
                for x in bits(frontier):
                    frontier |= sec[x]
                frontier &= ~ball
                ball |= frontier
            if ball & mask != 1 << a:
                return False
        return True

    def toggle(edge: tuple[int, ...], mask: int, step: int) -> None:
        # an accepted edge joins no pair already joined, so XOR adds or removes it
        for v in edge:
            sec[v] ^= mask ^ 1 << v
            deg[v] += step

    def extend() -> bool:
        if len(edges) == target_edges:
            return all(deg[v] == r for v in range(1, m + 1))
        # while edges are short, sum(deg) = k * len(edges) < m * r
        u = next(v for v in range(1, m + 1) if deg[v] < r)
        eligible = [v for v in range(u + 1, m + 1) if deg[v] < r]
        unused = [v for v in eligible if deg[v] == 0]
        for combo in combinations(eligible, k - 1):
            budget.spend()
            picked_unused = [v for v in combo if deg[v] == 0]
            # Untouched vertices are interchangeable: only the least ones count.
            if picked_unused != unused[: len(picked_unused)]:
                continue
            edge = (u,) + combo
            mask = sum(1 << v for v in edge)
            if not candidate_ok(edge, mask):
                continue
            edges.append(edge)
            toggle(edge, mask, 1)
            if extend():
                return True
            edges.pop()
            toggle(edge, mask, -1)
        return False

    return list(edges) if extend() else None


# -- cover construction -----------------------------------------------------------


def kneser_resolving_cover(k: int, n: int, gadget: Hypergraph) -> tuple[int, ...]:
    """Tile [n] with copies of a certified gadget (parts of size m, the last
    part overlapping backward over already-covered elements) and convert the
    union to a resolving set of K(k,n)."""
    if n < 3 * k:
        raise ValueError(f"cover construction requires n >= 3k, got n={n}, k={k}")
    if gadget.uniformity() != k:
        raise ValueError(f"gadget must be {k}-uniform")
    m = gadget.n
    if m > n:
        raise ValueError(f"gadget on {m} vertices cannot tile [{n}]")
    if not certify_detectable(gadget, k):
        raise ValueError("gadget fails the girth-5/min-degree certificate")
    parts = []
    r = math.ceil(n / m)
    for i in range(r - 1):
        parts.append(list(range(i * m + 1, (i + 1) * m + 1)))
    parts.append(list(range(n - m + 1, n + 1)))
    union: set[tuple[int, ...]] = set()
    for part in parts:
        for e in gadget.edges:
            union.add(tuple(sorted(part[x - 1] for x in e)))
    cover = Hypergraph(n, sorted(union))
    return hypergraph_to_resolving(cover, k, n)
