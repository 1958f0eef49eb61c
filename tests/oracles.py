"""Small independent implementations used to cross-check the package.

Everything here is deliberately written with a different algorithm than the
module under test: exhaustive subset scans instead of branch and bound,
BFS-per-vertex girth instead of edge-removal girth, a plain sweeping fixpoint
instead of the symmetry-pruned attractor. Slow but obviously correct.
The ``pair_*`` functions are earlier, plainer versions of the resolving
kernels, and the ``image_*`` ones of the game solver's symmetry pruning,
kept as references that the faster ones must match exactly.
``json_graph_hash`` is the structural hash as first defined: the whole
edge list serialized at once. Distances come from networkx BFS
(``distance_rows``), never from the package, and neighborhoods from the
edge list (``neighbors``). ``moore_degree`` recognizes Moore graphs with
an explicit diameter test. ``detection`` and ``detectable`` intersect
frozensets and compare vectors pairwise, where the package intersects
vertex masks and keys a dict. ``adjacent``, ``dot3``, ``has_c4`` and
``check_degree_properties`` are checks that only the tests call.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import combinations

import networkx as nx


def to_nx(G) -> nx.Graph:
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges)
    return H


def neighbors(G, v: int) -> frozenset:
    """The neighbors of v, read off the edge list ``G.edges``."""
    return frozenset(b if a == v else a for a, b in G.edges if v in (a, b))


def distance_rows(G) -> list[list[int]]:
    """rows[u][v] is the distance from u to v by networkx BFS, -1 when v is
    not reachable from u."""
    H = to_nx(G)
    rows = []
    for u in range(G.n):
        lengths = nx.single_source_shortest_path_length(H, u)
        rows.append([lengths.get(v, -1) for v in range(G.n)])
    return rows


def first_repeated_vector(G, S):
    """(the first vertex whose distance vector to the landmarks S repeats,
    its earlier twin), twin first; None when every vector is distinct."""
    rows = distance_rows(G)
    landmarks = sorted(set(S))
    seen = {}
    for v in range(G.n):
        vec = tuple(rows[s][v] for s in landmarks)
        if vec in seen:
            return seen[vec], v
        seen[vec] = v
    return None


def distance_vector_groups(G, P, B) -> dict:
    """The vertices of B grouped by their distance vector to the placement
    P, in P's order, -1 for a cop that does not reach the vertex."""
    rows = distance_rows(G)
    groups = {}
    for v in B:
        groups.setdefault(tuple(rows[p][v] for p in P), set()).add(v)
    return {vec: frozenset(vs) for vec, vs in groups.items()}


def json_graph_hash(n: int, edges) -> str:
    """sha256 of the compact sorted-key JSON of n and the sorted, deduplicated
    edge list, each edge written [min, max]."""
    canon = sorted({(min(u, v), max(u, v)) for u, v in edges})
    payload = json.dumps({"n": n, "edges": [list(e) for e in canon]},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def exhaustive_metric_dimension(G):
    """Smallest resolving set by direct enumeration; fine for n <= 16."""
    rows = distance_rows(G)

    def resolves(S):
        seen = set()
        for v in range(G.n):
            vec = tuple(rows[s][v] for s in S)
            if vec in seen:
                return False
            seen.add(vec)
        return True

    if G.n <= 1:
        return ()
    for r in range(1, G.n + 1):
        for S in combinations(range(G.n), r):
            if resolves(S):
                return S
    raise AssertionError("the full vertex set always resolves")


def bfs_girth(adj: dict) -> float:
    """Shortest cycle via BFS from every vertex; inf if acyclic."""
    best = float("inf")
    for root in adj:
        dist = {root: 0}
        parent = {root: None}
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and parent.get(w) != u:
                        # non-tree contact closes a cycle through the root
                        best = min(best, dist[u] + dist[w] + 1)
            queue = nxt
    return best


def moore_degree(G):
    """k when G is k-regular with k >= 2, has k^2+1 vertices, diameter 2
    (by networkx) and girth 5 (by ``bfs_girth``); else None."""
    H = to_nx(G)
    degrees = {d for _, d in H.degree()}
    k = degrees.pop() if len(degrees) == 1 else None
    if k is None or k < 2 or G.n != k * k + 1:
        return None
    if not nx.is_connected(H) or nx.diameter(H) != 2:
        return None
    adj = {v: neighbors(G, v) for v in range(G.n)}
    return k if bfs_girth(adj) == 5 else None


def oracle_berge_girth(H) -> float:
    """Berge girth as half the girth of the bipartite incidence graph."""
    adj = {("v", u): set() for u in range(1, H.n + 1)}
    for i, e in enumerate(H.edges):
        adj[("e", i)] = set()
        for u in e:
            adj[("e", i)].add(("v", u))
            adj[("v", u)].add(("e", i))
    g = bfs_girth(adj)
    return g if g == float("inf") else g // 2


def detection(H, B) -> tuple[int, ...]:
    """Per edge of H, by frozenset intersection: 0 when B misses it, 2 when
    B holds as many of its vertices as the largest edge has, else 1."""
    probe = frozenset(B)
    k_max = max((len(e) for e in H.edges), default=0)
    sizes = [len(probe & frozenset(e)) for e in H.edges]
    return tuple(0 if c == 0 else 2 if c == k_max else 1 for c in sizes)


def detectable(H, kprime: int):
    """(detectable, the first colliding pair of k'-subsets, sets checked) by
    a pairwise scan: the pair's second member is the least subset whose
    detection vector an earlier one shares."""
    subsets = list(combinations(range(1, H.n + 1), kprime))
    vectors = [detection(H, B) for B in subsets]
    for j in range(len(subsets)):
        for i in range(j):
            if vectors[i] == vectors[j]:
                return False, (subsets[i], subsets[j]), j + 1
    return True, None, len(subsets)


def sweep_loc_decide(G, k: int) -> str:
    """Localization-game decision by naive repeated sweeping, no symmetry."""
    n = G.n
    if n == 1:
        return "cop-win"
    if k < 1:
        return "robber-win"
    placements = list(combinations(range(n), min(k, n)))
    rows = distance_rows(G)
    closed = {v: {v} for v in range(n)}
    for a, b in G.edges:
        closed[a].add(b)
        closed[b].add(a)
    start = frozenset(range(n))
    succ = {}
    stack = [start]
    while stack:
        B = stack.pop()
        if B in succ:
            continue
        opts = []
        for P in placements:
            groups = {}
            for v in B:
                groups.setdefault(tuple(rows[p][v] for p in P), set()).add(v)
            nxt = []
            for g in groups.values():
                if len(g) > 1:
                    nxt.append(frozenset().union(*(closed[u] for u in g)))
            opts.append(nxt)
        succ[B] = opts
        for nxt in opts:
            for b in nxt:
                if b not in succ:
                    stack.append(b)
    win = set()
    changed = True
    while changed:
        changed = False
        for B, opts in succ.items():
            if B in win:
                continue
            if any(all(b in win for b in nxt) for nxt in opts):
                win.add(B)
                changed = True
    return "cop-win" if start in win else "robber-win"


def image_max_image(autos, n: int, b: int):
    """The image of mask b (vertex v is bit v) with the lexicographically
    least sorted vertex tuple under the listed automorphisms, mapping b
    through every one of them, and the automorphisms that produce it; for
    such a least image, its stabilizer."""
    src = [i for i in range(n) if b >> i & 1]
    images = [sorted(sig[i] for i in src) for sig in autos]
    best = min(images)
    return (sum(1 << v for v in best),
            [sig for sig, img in zip(autos, images) if img == best])


def image_orbit_firsts(placements, stab) -> list[int]:
    """Indices of the first placement of each orbit of the permutations in
    stab, in list order: a placement is first unless an earlier one's images,
    kept as sorted vertex tuples, already hold it."""
    seen, out = set(), []
    for i, P in enumerate(placements):
        if P not in seen:
            out.append(i)
            seen.update(tuple(sorted(sig[p] for p in P)) for sig in stab)
    return out


def randomized_resolving(G, rng):
    """A random resolving set: vertices in shuffled order, kept when they
    separate a still-unseparated pair. Total because the full set resolves."""
    order = list(range(G.n))
    rng.shuffle(order)
    pending = {(u, v) for u in range(G.n) for v in range(u + 1, G.n)}
    rows = distance_rows(G)
    S = []
    for v in order:
        if not pending:
            break
        row = rows[v]
        sep = {p for p in pending if row[p[0]] != row[p[1]]}
        if sep:
            S.append(v)
            pending -= sep
    assert not pending
    return tuple(sorted(S))


def pair_cover_masks(G) -> list[int]:
    """cover[v] has bit i set iff landmark v separates the i-th vertex pair,
    pairs in lexicographic order: one distance comparison per pair and
    landmark."""
    masks = [0] * G.n
    pairs = [(a, b) for a in range(G.n) for b in range(a + 1, G.n)]
    rows = distance_rows(G)
    for i, (a, b) in enumerate(pairs):
        row_a, row_b = rows[a], rows[b]
        for v in range(G.n):
            if row_a[v] != row_b[v]:
                masks[v] |= 1 << i
    return masks


def pair_greedy_resolving(G) -> tuple[int, ...]:
    """Greedy set cover over pair masks: add the landmark separating the
    most still-unseparated pairs, least index on ties."""
    masks = pair_cover_masks(G)
    full = (1 << (G.n * (G.n - 1) // 2)) - 1
    covered = 0
    chosen = []
    while covered != full:
        gains = [(m & ~covered).bit_count() for m in masks]
        best = gains.index(max(gains))
        chosen.append(best)
        covered |= masks[best]
    return tuple(sorted(chosen))


def trace_bound(G) -> int:
    """The least t with 2(n-1) - 3t <= the sum of the t largest degrees
    when every distance (by networkx BFS) is at most 2, else 0; degrees
    from the edge list. A resolving set of t landmarks gives the n - t
    other vertices distinct sets of landmark neighbors: one may be empty,
    t may be single landmarks, and those sets sum to at most the degrees
    of the landmarks."""
    if any(not 0 <= d <= 2 for row in distance_rows(G) for d in row):
        return 0
    degrees = sorted((len(neighbors(G, v)) for v in range(G.n)), reverse=True)
    return next(t for t in range(G.n + 1)
                if 2 * (G.n - 1) - 3 * t <= sum(degrees[:t]))


class _Stop(Exception):
    pass


def pair_metric_dimension(G, budget, to_the_end=False):
    """The branch and bound as it was before children were pruned from
    their parent's counts: every node spends, then takes one AND and
    popcount per unbanned landmark for its bound, and branches on its
    lowest uncovered pair. Same incumbent, masks and interval as
    ``resolving.metric_dimension`` on a graph without generators, so the
    two must agree node for node; returns (lower, upper, landmarks, exact,
    nodes).

    Nothing is searched when the greedy set meets the lower bound, which
    includes ``trace_bound``; otherwise the search stops at its first cover
    of that size. ``to_the_end`` searches without the skip or the stop."""
    from locdim import resolving as R

    n = G.n
    if n < 2:
        return 0, 0, (), True, 0
    layers = [G.distance_layers(v) for v in range(n)]
    incumbent, first_left = R._greedy(layers)
    npairs = n * (n - 1) // 2
    lower0 = max(math.ceil(npairs / (npairs - first_left)),
                 R._distance_bound(layers), trace_bound(G))
    if not to_the_end and len(incumbent) == lower0:
        return lower0, lower0, incumbent, True, budget.nodes

    best = list(incumbent)
    limit, target = len(best), 0 if to_the_end else lower0

    def dfs(chosen: list[int], covered: int, banned: frozenset) -> None:
        nonlocal best, limit
        budget.spend()
        if covered == full:
            if len(chosen) < limit:
                best, limit = list(chosen), len(chosen)
                if limit == target:
                    raise _Stop
            return
        if len(chosen) + 1 >= limit:
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
        if len(chosen) + math.ceil(remaining.bit_count() / max_avail) >= limit:
            return
        pair = next(p for p in range(npairs) if remaining >> p & 1)
        candidates = [v for v in range(G.n)
                      if v not in banned and masks[v] >> pair & 1]
        newly_banned = set()
        for v in candidates:
            chosen.append(v)
            dfs(chosen, covered | masks[v], banned | frozenset(newly_banned))
            chosen.pop()
            newly_banned.add(v)

    exact = True
    try:
        masks = R._cover_masks(layers, budget)
        full = (1 << npairs) - 1
        dfs([], 0, frozenset())
    except _Stop:
        pass
    except R.BudgetExceededError:
        exact = False
    lower = len(best) if exact else lower0
    return lower, len(best), tuple(sorted(best)), exact, budget.nodes


def dot3(F, u, v) -> int:
    """Dot product of coordinate triples over the field F, from its tables."""
    acc = 0
    for a, b in zip(u, v):
        acc = F.add_table[acc][F.mul_table[a][b]]
    return acc


def adjacent(G, u, v) -> bool:
    """u ~ v, read off G's adjacency masks."""
    return bool(G.adj[u] >> v & 1)


def has_c4(G) -> bool:
    """True iff some pair of vertices has at least two common neighbors."""
    adj = G.adj
    return any((adj[u] & adj[v]).bit_count() >= 2
               for u in range(G.n) for v in range(u + 1, G.n))


@dataclass(frozen=True)
class DegreeViolation:
    u: int
    v: int
    adjacent: bool
    degree_sum: int
    required: int


@dataclass(frozen=True)
class DegreeCheckReport:
    k: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_degree_properties(H, k: int) -> DegreeCheckReport:
    """Necessary conditions for k-detectability: every non-adjacent vertex
    pair needs hyperedge-degree sum >= k, every adjacent pair >= k + 2
    (adjacent means sharing a hyperedge)."""
    if any(len(e) == 1 for e in H.edges):
        raise ValueError("singleton hyperedges are not supported here")
    if H.n < 3 * k:
        raise ValueError(f"conditions require n >= 3k, got n={H.n}, k={k}")
    deg = (0,) + H.degrees()
    adjacent = set()
    for e in H.edges:
        for a, b in combinations(e, 2):
            adjacent.add((a, b))
    violations = []
    for u in range(1, H.n + 1):
        for v in range(u + 1, H.n + 1):
            adj = (u, v) in adjacent
            required = k + 2 if adj else k
            s = deg[u] + deg[v]
            if s < required:
                violations.append(DegreeViolation(u, v, adj, s, required))
    return DegreeCheckReport(k=k, violations=tuple(violations))
