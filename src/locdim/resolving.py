"""Resolving-set verification, exact metric dimension, and the constructive
resolving sets for diameter-2 Moore graphs and polarity graphs.

Every kernel here reads distances as ``Graph.distance_layers``: per vertex,
a partition of V into bitmasks by distance. The certificate check and the
greedy refine the partition of V by distance vector; the branch and bound
covers vertex pairs with one pair-bit mask per landmark, built a block of
pairs at a time from those layers. A child's uncovered pairs are a subset
of its parent's, so the counts a node takes for its landmarks bound those at
every child from above, and children are pruned against them before they
are entered. A graph's generators prune symmetric siblings by orbital
branching (Ostrowski, Linderoth, Rossi and Smriglio, Math. Programming 126,
2011); each node's group is carried as stabilizer generators, never listed.
Each node branches on its lowest uncovered pair. The search stops at its
first cover of a proven lower bound's size, and none runs when the greedy
set already has it; on a graph of diameter at most 2 that bound includes a
count of the landmarks' neighborhoods (Héger and Takáts, Electron. J.
Combin. 19, 2012).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .budget import Budget, BudgetExceededError
from .graphs import (Graph, _least, bits, graph_hash, is_moore_diam2,
                     orbit_reps, point_stabilizer)

if TYPE_CHECKING:
    from .fields import PolarityGraph

DEFAULT_MD_BUDGET = 2 * 10**6  # branch-and-bound nodes


class ResolvingCertificate(NamedTuple):
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
    distance to some landmark; otherwise the first unresolved pair.

    V is refined by each landmark's distance layers, singletons dropped. The
    first vertex whose distance vector repeats is the least second member
    of a surviving class, and its earlier twin is that class's least member.
    """
    S = tuple(S)
    for s in S:
        if type(s) is not int or not 0 <= s < G.n:
            raise ValueError(f"landmark {s!r} outside 0..{G.n - 1}")
    landmarks = tuple(sorted(set(S)))
    classes = [(1 << G.n) - 1] if G.n > 1 else []
    for s in landmarks:
        layers = G.distance_layers(s)
        classes = [p for c in classes for m in layers if (p := c & m) & (p - 1)]
    if not classes:
        return ResolvingCertificate(graph_hash(G), landmarks, True)
    c = min(classes, key=lambda c: _least(c & (c - 1)))
    return ResolvingCertificate(graph_hash(G), landmarks, False,
                                (_least(c), _least(c & (c - 1))))


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
    return _greedy([G.distance_layers(v) for v in range(G.n)])[0]


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


def _trace_bound(layers: list[list[int]]) -> int:
    """The least t with 2(n-1) - 3t <= the sum of the t largest degrees on a
    connected graph of diameter at most 2, else 0. Outside a resolving set S
    of t landmarks each vertex is told apart by its trace, its neighbors in
    S: at most one trace is empty and at most t are singletons, so the traces
    sum to at least 2(n-1) - 3t, and to at most the degrees of S. Héger and
    Takáts count traces so in projective planes ("Resolving sets and
    semi-resolving sets in finite projective planes", Electron. J. Combin.
    19, 2012)."""
    n = len(layers)
    if n == 0 or layers[0][-1] or max(map(len, layers)) > 4:
        return 0
    degrees = sorted((masks[1].bit_count() for masks in layers), reverse=True)
    t = total = 0
    while 2 * (n - 1) - 3 * t > total:
        total += degrees[t]
        t += 1
    return t


class _Closed(Exception):
    """The search found a cover of the lower bound's size: a least one."""


class MetricDimensionResult(NamedTuple):
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
    [lower, upper] bounds, lower being the largest of the pair-count bound,
    ``_distance_bound`` and ``_trace_bound``. When the greedy set already
    has that many landmarks it is returned as exact with no search (0
    nodes); otherwise the search stops at its first cover of that size,
    which the full search would keep, since none is smaller.
    Deterministic: least-index tie-breaks only.

    Each open node branches on its lowest uncovered pair. It counts, once,
    the uncovered pairs every unbanned landmark separates, and bounds each
    child from those counts. A child with d landmarks and R uncovered pairs
    is open iff d + 1 < |best| and some unbanned landmark separates more
    than ceil(R / (|best| - d - 1)) - 1 of them. Only the landmarks whose
    count at the parent exceeds that are recounted on the child's pairs,
    largest first, up to the first that still does. Most nodes end there.
    A child whose landmark shares an orbit with an earlier sibling's, under
    the group that fixes the node's landmarks and bans, is banned and
    skipped: each resolving set below it maps to one below that sibling, so
    the first least set in depth-first order is kept. Every other node,
    open or not, is one ``budget.spend()``, in depth-first order; skipped
    symmetric siblings are not charged. A run stopped by its budget returns
    the interval from the lower bound to the best cover found so far."""
    if budget is None:
        budget = Budget(max_nodes=DEFAULT_MD_BUDGET)
    n = G.n
    if n < 2:
        cert = ResolvingCertificate(graph_hash(G), (), True)
        return MetricDimensionResult(0, 0, (), True, cert, 0)
    layers = [G.distance_layers(v) for v in range(n)]
    gens = G.generators  # checked here, even when no search runs
    # The greedy is not charged, so a capped run always holds a resolving
    # set; its first step gives the best single landmark's pair count.
    incumbent, first_left = _greedy(layers)
    npairs = n * (n - 1) // 2
    lower0 = max(math.ceil(npairs / (npairs - first_left)),
                 _distance_bound(layers), _trace_bound(layers))

    best = list(incumbent)
    limit = len(best)  # a cover is kept iff it is smaller than this

    def expand(chosen: list[int], covered: int, pool: list[int], gens) -> None:
        """Branch an open node on its lowest uncovered pair. ``pool`` holds,
        ascending, the landmarks not banned here that separate some
        uncovered pair; ``gens`` generate the pointwise stabilizer of
        ``chosen`` and of the landmarks banned above. Each child is charged
        and bounded here, from the counts of this node; only the open ones
        recurse, each under the stabilizer of its landmark and its earlier
        siblings."""
        nonlocal best, limit
        remaining = full ^ covered
        counts = [(masks[u] & remaining).bit_count() for u in pool]
        ranked = sorted(range(len(pool)), key=counts.__getitem__, reverse=True)
        pair_bit = remaining & -remaining
        depth = len(chosen) + 1
        banned = 0  # the earlier siblings, as a vertex mask
        reps = orbit_reps(gens, n) if gens else None
        seen = set()  # the orbits of the earlier siblings
        unfixed = []  # earlier siblings that gens may move
        for v in pool:
            if not masks[v] & pair_bit:
                continue
            if reps is not None:
                unfixed.append(v)
                if reps[v] in seen:  # symmetric to an earlier sibling
                    banned |= 1 << v
                    continue
                seen.add(reps[v])
            budget.spend()
            child = covered | masks[v]
            if child == full:
                if depth < limit:
                    best, limit = chosen + [v], depth
                    if depth == lower0:  # nothing smaller exists
                        raise _Closed
            elif (slack := limit - depth) > 1:
                # Open iff some landmark covers more than cap of the child's
                # pairs: depth + ceil(left / max) < limit. The counts here
                # bound those of the child from above.
                left = remaining & ~masks[v]
                cap = (left.bit_count() - 1) // (slack - 1)
                for i in ranked:
                    if counts[i] <= cap:
                        break
                    u = pool[i]
                    if not banned >> u & 1 and (masks[u] & left).bit_count() > cap:
                        while unfixed and gens:  # stabilize them and v
                            gens = point_stabilizer(gens, n, unfixed.pop())
                        chosen.append(v)
                        expand(chosen, child, [w for w, c in zip(pool, counts)
                                               if c and not banned >> w & 1], gens)
                        chosen.pop()
                        break
            banned |= 1 << v

    exact = True
    # The root is open whenever the greedy set is above lower0, which is at
    # least the pair-count bound ceil(npairs / the best landmark's count).
    if limit > lower0:
        try:
            masks = _cover_masks(layers, budget)
            full = (1 << npairs) - 1
            budget.spend()  # the root
            expand([], 0, list(range(n)), gens)
        except _Closed:
            pass
        except BudgetExceededError:
            exact = False
    landmarks = tuple(sorted(best))
    cert = is_resolving(G, landmarks)
    if not cert.verified:  # raised, not asserted: python -O keeps the check
        raise RuntimeError(f"landmarks {landmarks} do not resolve the graph: "
                           f"pair {cert.witness_pair} is not separated")
    lower = len(best) if exact else lower0
    return MetricDimensionResult(lower, len(best), landmarks, exact, cert, budget.nodes)


def moore_resolving(G: Graph) -> tuple[int, ...]:
    """The 2k-3 vertices (N(u) u N(v)) minus {u, v, w}, a resolving set of
    any k-regular diameter-2 Moore graph with k >= 3. Any adjacent u, v and
    any w in N(v)\\{u} resolve; here u = 0, v is its least neighbor and w
    the least vertex of N(v)\\{u}."""
    k = is_moore_diam2(G)
    if k is None:
        raise ValueError("graph is not a diameter-2 Moore graph")
    if k < 3:
        raise ValueError(f"construction needs regularity k >= 3, got k={k}")
    adj = G.adj
    v = _least(adj[0])
    w = _least(adj[v] & ~1)
    S = tuple(bits((adj[0] | adj[v]) & ~(1 | 1 << v | 1 << w)))
    assert len(S) == 2 * k - 3  # adjacent neighborhoods are disjoint at girth 5
    return S


def polarity_resolving(P: PolarityGraph) -> tuple[int, ...]:
    """(N(u) u N(v)) minus {u, v} for the least absolute vertex u and its
    least neighbor v; 2q-1 vertices resolving a polarity graph."""
    if not P.absolute:
        raise ValueError("polarity graph has no degree-q (absolute) vertex")
    adj = P.graph.adj
    u = min(P.absolute)
    assert adj[u].bit_count() == P.q
    v = _least(adj[u])
    S = tuple(bits((adj[u] | adj[v]) & ~(1 << u | 1 << v)))
    # No triangle passes through an absolute vertex, so the neighborhoods
    # are disjoint and v is non-absolute of degree q+1.
    assert len(S) == 2 * P.q - 1
    return S
