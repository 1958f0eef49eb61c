"""Resolving-set verification, exact metric dimension, and the constructive
resolving sets for diameter-2 Moore graphs and polarity graphs."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .budget import Budget, BudgetExceededError
from .fields import PolarityGraph
from .graphs import Graph, graph_hash, is_moore_diam2

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


def _pair_list(G: Graph) -> list[tuple[int, int]]:
    return [(a, b) for a in range(G.n) for b in range(a + 1, G.n)]


def _cover_masks(G: Graph, pairs) -> list[int]:
    """cover[v] has bit i set iff landmark v separates pair i."""
    masks = [0] * G.n
    for i, (a, b) in enumerate(pairs):
        bit = 1 << i
        row_a = G.distance_row(a)
        row_b = G.distance_row(b)
        for v in range(G.n):
            if row_a[v] != row_b[v]:
                masks[v] |= bit
    return masks


def greedy_resolving(G: Graph) -> tuple[int, ...]:
    """Iteratively add the landmark separating the most still-unresolved
    pairs, least vertex index on ties. Always returns a resolving set."""
    pairs = _pair_list(G)
    return _greedy_cover(G.n, _cover_masks(G, pairs), (1 << len(pairs)) - 1)


def _greedy_cover(n: int, masks: list[int], full: int) -> tuple[int, ...]:
    covered = 0
    chosen: list[int] = []
    while covered != full:
        best_v, best_gain = None, -1
        for v in range(n):
            gain = (masks[v] & ~covered).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        if best_gain <= 0:
            # No landmark separates the rest: identical distance rows
            # (only possible with twin vertices in degenerate inputs).
            raise ValueError("graph has indistinguishable vertices; no resolving set exists")
        chosen.append(best_v)
        covered |= masks[best_v]
    return tuple(sorted(chosen))


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
    [lower, upper] bounds. Deterministic: least-index tie-breaks only."""
    if budget is None:
        budget = Budget(max_nodes=DEFAULT_MD_BUDGET)
    pairs = _pair_list(G)
    if not pairs:
        cert = ResolvingCertificate(graph_hash(G), (), True)
        return MetricDimensionResult(0, 0, (), True, cert, 0)
    masks = _cover_masks(G, pairs)
    full = (1 << len(pairs)) - 1
    incumbent = list(_greedy_cover(G.n, masks, full))
    max_cover = max(m.bit_count() for m in masks)
    lower0 = max(1, math.ceil(len(pairs) / max_cover))

    best = incumbent

    def dfs(chosen: list[int], covered: int, banned: frozenset) -> None:
        nonlocal best
        budget.spend()
        if covered == full:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + 1 >= len(best):
            return
        remaining = full & ~covered
        # cheapest admissible completion: every landmark covers <= max_avail
        max_avail = 0
        for v in range(G.n):
            if v not in banned:
                c = (masks[v] & remaining).bit_count()
                if c > max_avail:
                    max_avail = c
        if max_avail == 0:
            return
        if len(chosen) + math.ceil(remaining.bit_count() / max_avail) >= len(best):
            return
        pair_bit = remaining & -remaining
        candidates = [v for v in range(G.n)
                      if v not in banned and masks[v] & pair_bit]
        newly_banned = set()
        for v in candidates:
            chosen.append(v)
            dfs(chosen, covered | masks[v], banned | frozenset(newly_banned))
            chosen.pop()
            newly_banned.add(v)

    exact = True
    try:
        dfs([], 0, frozenset())
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
