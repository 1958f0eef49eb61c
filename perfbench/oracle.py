"""Independent answer checks and seeded inputs, owned by the benchmark.

Nothing here imports locdim: graphs are edge lists, distances come from this
module's own breadth-first search, and the localization game is re-solved by
a separate bitmask fixpoint. A benchmark answer counts as correct only when
these checks agree with it.
"""

from __future__ import annotations

from itertools import combinations


def adjacency_masks(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def distance_rows(n: int, edges) -> list[list[int]]:
    """All-pairs BFS distances; -1 marks unreachable pairs."""
    adj = adjacency_masks(n, edges)
    rows = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        seen, frontier, d = 1 << s, 1 << s, 0
        while frontier:
            d += 1
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                m ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
            m = frontier
            while m:
                low = m & -m
                m ^= low
                row[low.bit_length() - 1] = d
        rows.append(row)
    return rows


def is_diameter2(n: int, adj: list[int]) -> bool:
    full = (1 << n) - 1
    complete = True
    for s in range(n):
        reach = adj[s] | (1 << s)
        complete = complete and reach == full
        m = adj[s]
        while m:
            low = m & -m
            m ^= low
            reach |= adj[low.bit_length() - 1]
        if reach != full:
            return False
    return not complete


def random_diameter2(rng, n: int, p: float) -> list[tuple[int, int]]:
    """A G(n, p) sample plus an edge for each pair it leaves at distance
    above 2, redrawn in the rare case that this makes it complete."""
    pairs = list(combinations(range(n), 2))
    while True:
        edges = [e for e in pairs if rng.random() < p]
        adj = adjacency_masks(n, edges)
        for u, v in pairs:
            if not (adj[u] >> v) & 1 and not adj[u] & adj[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                edges.append((u, v))
        if is_diameter2(n, adj):
            return sorted(edges)


def resolves(rows: list[list[int]], landmarks) -> bool:
    """True iff every vertex has a distinct distance vector to the landmarks."""
    vectors = {tuple(rows[s][v] for s in landmarks) for v in range(len(rows))}
    return len(vectors) == len(rows)


def kneser_resolves(k: int, n: int, landmarks) -> bool:
    """Resolving check on K(k,n) from subset disjointness alone (distance 1
    iff disjoint, else 2 for distinct vertices); valid for n >= 3k-1."""
    subsets = [frozenset(s) for s in combinations(range(1, n + 1), k)]
    marks = [subsets[i] for i in landmarks]
    seen = set()
    for i, s in enumerate(subsets):
        seen.add(tuple(0 if s == m else 1 if s.isdisjoint(m) else 2
                       for m in marks))
    return len(seen) == len(subsets)


def cop_win(n: int, edges, k: int) -> bool:
    """Does the k-cop localization game from the all-vertices belief end in
    capture? Least fixpoint over reachable beliefs held as bitmasks, with
    every placement tried (no symmetry pruning)."""
    rows = distance_rows(n, edges)
    adj = adjacency_masks(n, edges)
    closed = [adj[v] | (1 << v) for v in range(n)]
    size = min(k, n)
    classes = []
    for P in combinations(range(n), size):
        by_vec: dict[tuple[int, ...], int] = {}
        for v in range(n):
            vec = tuple(rows[p][v] for p in P)
            by_vec[vec] = by_vec.get(vec, 0) | (1 << v)
        classes.append(tuple(by_vec.values()))

    def spread(mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            mask ^= low
            out |= closed[low.bit_length() - 1]
        return out

    start = (1 << n) - 1
    options: dict[int, list[frozenset]] = {}
    stack = [start]
    while stack:
        B = stack.pop()
        if B in options:
            continue
        opts = []
        for cms in classes:
            succ = set()
            for cm in cms:
                c = B & cm
                if c & (c - 1):
                    succ.add(spread(c))
            opts.append(frozenset(succ))
            stack.extend(s for s in succ if s not in options)
        options[B] = opts
    winning: set[int] = set()
    changed = True
    while changed:
        changed = False
        for B, opts in options.items():
            if B not in winning and any(o <= winning for o in opts):
                winning.add(B)
                changed = True
    return start in winning
