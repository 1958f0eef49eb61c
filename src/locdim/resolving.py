"""Resolving-set verification, exact metric dimension, and the constructive
resolving sets for diameter-2 Moore graphs and polarity graphs.

Both solvers start from each vertex's distance layers as bitmasks. The greedy
refines the partition of V by distance vector; the branch and bound covers
vertex pairs with one pair-bit mask per landmark, built a block of pairs at
a time from those layers. A child's uncovered pairs are a subset of its
parent's, so the counts a node takes for its landmarks bound those at every
child from above, and children are pruned against them before they are
entered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .budget import Budget, BudgetExceededError
from .graphs import Graph, bits, graph_hash, is_moore_diam2

if TYPE_CHECKING:
    from .fields import PolarityGraph

DEFAULT_MD_BUDGET = 2 * 10**6  # branch-and-bound nodes


@dataclass(frozen=True)
class ResolvingCertificate:
    """Verifiable witness that a landmark set does (or does not) resolve."""

    graph_hash: str
    landmarks: tuple[int, ...]
    verified: bool
    witness_pair: tuple[int, int] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "graph_hash": self.graph_hash,
            "landmarks": list(self.landmarks),
            "verified": self.verified,
        }
        if self.witness_pair is not None:
            out["witness_pair"] = list(self.witness_pair)
        return out


def is_resolving(G: Graph, S) -> ResolvingCertificate:
    """Certificate with verified=True iff every vertex pair differs in
    distance to some landmark; otherwise the first unresolved pair."""
    landmarks = tuple(sorted(set(S)))
    for s in landmarks:
        if not 0 <= s < G.n:
            raise ValueError(f"landmark {s} outside 0..{G.n - 1}")
    seen: dict[tuple[int, ...], int] = {}
    for v in range(G.n):
        vec = tuple(G.dist(s, v) for s in landmarks)
        prior = seen.get(vec)
        if prior is not None:
            return ResolvingCertificate(graph_hash(G), landmarks, False, (prior, v))
        seen[vec] = v
    return ResolvingCertificate(graph_hash(G), landmarks, True)


def _layer_masks(G: Graph) -> list[list[int]]:
    """layers[v][d] is the mask of the vertices at distance d from v, for
    d = 0..ecc(v), plus a last entry for the UNREACHABLE ones (0 when G is
    connected)."""
    full = (1 << G.n) - 1
    layers = []
    for v in range(G.n):
        masks = G.distance_layers(v)
        masks.append(full - sum(masks))  # the layers are disjoint
        layers.append(masks)
    return layers


def _greedy(layers: list[list[int]]) -> tuple[tuple[int, ...], int]:
    """Greedy on the partition of V by distance vector to the chosen
    landmarks; returns the landmarks and the pairs left after the first.

    A landmark v leaves unseparated the pairs inside each class C that share
    a layer of v: the sum of C(|C & m|, 2) over the classes and v's layers.
    The landmark with the fewest left is chosen, least index on ties (the
    pair-count greedy of set cover, without the pairs). Classes are refined
    by its layers; singletons drop out.
    """
    n = len(layers)
    # Layer {v} meets a class in at most one vertex and the last non-empty
    # layer's share is what the others leave, so neither is popcounted.
    probes = [[m for m in masks[1:] if m][:-1] for masks in layers]
    classes = [(1 << n) - 1] if n > 1 else []
    chosen: list[int] = []
    first = 0
    while classes:
        classes.sort(key=int.bit_count, reverse=True)  # big terms first
        sized = [(c, c.bit_count()) for c in classes]
        best_v, best = -1, math.inf
        for v, probe in enumerate(probes):
            left = 0
            for c, size in sized:
                rest = size - (c >> v & 1)
                for m in probe:
                    k = (c & m).bit_count()
                    left += k * (k - 1) >> 1
                    rest -= k
                left += rest * (rest - 1) >> 1
                if left >= best:
                    break
            else:  # no break: fewer left than every lower index
                best_v, best = v, left
        if not chosen:
            first = best
        chosen.append(best_v)
        classes = [p for c in classes for m in layers[best_v]
                   if (p := c & m) & (p - 1)]
    return tuple(sorted(chosen)), first


def greedy_resolving(G: Graph) -> tuple[int, ...]:
    """Iteratively add the landmark separating the most still-unresolved
    pairs, least vertex index on ties. Always returns a resolving set (a
    vertex separates itself from every other)."""
    return _greedy(_layer_masks(G))[0]


def _cover_masks(layers: list[list[int]], budget: Budget | None = None) -> list[int]:
    """cover[v] has bit i set iff landmark v separates the i-th vertex pair,
    pairs (a, b) with a < b in lexicographic order.

    The pairs (a, .) form one block of n-a-1 bits: v separates (a, b) iff b
    lies outside v's layer holding a, so the block is that layer's
    complement shifted right by a+1. ``budget.spend(0)`` per landmark reads
    the clock without charging nodes.
    """
    n = len(layers)
    full = (1 << n) - 1
    starts = [a * n - a * (a + 1) // 2 for a in range(n)]  # index of (a, a+1)
    masks = []
    for masks_v in layers:
        if budget is not None:
            budget.spend(0)
        mask = 0
        for m in masks_v:
            outside = full ^ m
            for a in bits(m):
                mask |= outside >> (a + 1) << starts[a]
        masks.append(mask)
    return masks


def _distance_bound(layers: list[list[int]]) -> int:
    """The least beta with beta + D^beta >= n on a connected graph of
    diameter D, else 0. Outside a resolving set of beta landmarks every
    vertex has a distinct vector in {1..D}^beta (Khuller, Raghavachari and
    Rosenfeld, "Landmarks in graphs", 1996)."""
    n = len(layers)
    if n == 0 or layers[0][-1]:  # some vertex UNREACHABLE from vertex 0
        return 0
    diameter = max(map(len, layers)) - 2
    beta = 0
    while beta + diameter ** beta < n:
        beta += 1
    return beta


@dataclass(frozen=True)
class MetricDimensionResult:
    lower: int
    upper: int
    landmarks: tuple[int, ...]
    exact: bool
    certificate: ResolvingCertificate
    nodes: int

    @property
    def value(self) -> int | None:
        return self.upper if self.exact else None


def metric_dimension(G: Graph, budget: Budget | None = None) -> MetricDimensionResult:
    """Branch-and-bound set cover over separating landmarks, with the greedy
    set as incumbent. Exact when the search closes; otherwise certified
    [lower, upper] bounds, lower being the larger of the pair-count bound
    and ``_distance_bound``. Deterministic: least-index tie-breaks only.

    Each open node counts, once, the uncovered pairs every unbanned
    landmark separates, and bounds each child from those counts. A child
    with d landmarks and R uncovered pairs is open iff d + 1 < |best| and
    some unbanned landmark separates more than ceil(R / (|best| - d - 1)) - 1
    of them. Only the landmarks whose count at the parent exceeds that are
    recounted on the child's pairs, largest first, up to the first that
    still does. Most nodes end there. Every node, open or not, is one
    ``budget.spend()``, in depth-first order."""
    if budget is None:
        budget = Budget(max_nodes=DEFAULT_MD_BUDGET)
    n = G.n
    if n < 2:
        cert = ResolvingCertificate(graph_hash(G), (), True)
        return MetricDimensionResult(0, 0, (), True, cert, 0)
    layers = _layer_masks(G)
    # The greedy is not charged, so a capped run always holds a resolving
    # set; its first step gives the best single landmark's pair count.
    incumbent, first_left = _greedy(layers)
    npairs = n * (n - 1) // 2
    lower0 = max(math.ceil(npairs / (npairs - first_left)), _distance_bound(layers))

    best = list(incumbent)

    def expand(chosen: list[int], covered: int, pool: list[int]) -> None:
        """Branch an open node on its lowest uncovered pair. ``pool`` holds,
        ascending, the landmarks not banned here that separate some
        uncovered pair. Each child is charged and bounded here, from the
        counts of this node; only the open ones recurse."""
        nonlocal best
        remaining = full ^ covered
        counts = [(masks[u] & remaining).bit_count() for u in pool]
        ranked = sorted(range(len(pool)), key=counts.__getitem__, reverse=True)
        pair_bit = remaining & -remaining
        depth = len(chosen) + 1
        banned = 0  # the earlier siblings, as a vertex mask
        for v in pool:
            if not masks[v] & pair_bit:
                continue
            budget.spend()
            child = covered | masks[v]
            if child == full:
                if depth < len(best):
                    best = chosen + [v]
            elif (slack := len(best) - depth) > 1:
                # Open iff some landmark covers more than cap of the child's
                # pairs: depth + ceil(left / max) < len(best). The counts
                # here bound those of the child from above.
                left = remaining & ~masks[v]
                cap = (left.bit_count() - 1) // (slack - 1)
                for i in ranked:
                    if counts[i] <= cap:
                        break
                    u = pool[i]
                    if not banned >> u & 1 and (masks[u] & left).bit_count() > cap:
                        chosen.append(v)
                        expand(chosen, child, [w for w, c in zip(pool, counts)
                                               if c and not banned >> w & 1])
                        chosen.pop()
                        break
            banned |= 1 << v

    exact = True
    try:
        masks = _cover_masks(layers, budget)
        full = (1 << npairs) - 1
        budget.spend()  # the root, bounded like any child
        if len(best) > 1 and npairs - first_left > (npairs - 1) // (len(best) - 1):
            expand([], 0, list(range(n)))
    except BudgetExceededError:
        exact = False
    landmarks = tuple(sorted(best))
    cert = is_resolving(G, landmarks)
    assert cert.verified
    lower = len(best) if exact else lower0
    return MetricDimensionResult(lower, len(best), landmarks, exact, cert, budget.nodes)


def moore_resolving(G: Graph, u: int | None = None, v: int | None = None,
                    w: int | None = None) -> tuple[int, ...]:
    """The 2k-3 vertices (N(u) u N(v)) minus {u, v, w} for adjacent u, v and
    w in N(v)\\{u}; a resolving set of any k-regular diameter-2 Moore graph
    with k >= 3."""
    k = is_moore_diam2(G)
    if k is None:
        raise ValueError("graph is not a diameter-2 Moore graph")
    if k < 3:
        raise ValueError(f"construction needs regularity k >= 3, got k={k}")
    if u is None:
        u = 0
    if not 0 <= u < G.n:
        raise ValueError(f"u={u} is not a vertex")
    if v is None:
        v = min(G.neighbors(u))
    if v not in G.neighbors(u):
        raise ValueError(f"v={v} must be a neighbor of u={u}")
    if w is None:
        w = min(G.neighbors(v) - {u})
    if w not in G.neighbors(v) or w == u:
        raise ValueError(f"w={w} must be in N(v) minus u")
    S = tuple(sorted((G.neighbors(u) | G.neighbors(v)) - {u, v, w}))
    assert len(S) == 2 * k - 3  # adjacent neighborhoods are disjoint at girth 5
    return S


def polarity_resolving(P: PolarityGraph) -> tuple[int, ...]:
    """(N(u) u N(v)) minus {u, v} for the least absolute vertex u and its
    least neighbor v; 2q-1 vertices resolving a polarity graph."""
    G = P.graph
    if not P.absolute:
        raise ValueError("polarity graph has no degree-q (absolute) vertex")
    u = min(P.absolute)
    assert G.degree(u) == P.q
    v = min(G.neighbors(u))
    S = tuple(sorted((G.neighbors(u) | G.neighbors(v)) - {u, v}))
    # No triangle passes through an absolute vertex, so the neighborhoods
    # are disjoint and v is non-absolute of degree q+1.
    assert len(S) == 2 * P.q - 1
    return S
