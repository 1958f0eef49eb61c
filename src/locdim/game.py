"""Belief-state semantics of the localization game.

A belief is the set of vertices consistent with every probe so far. Each
round the cops place, the observed distance vector refines the belief to one
observation class, and (if that class is not a singleton) the robber moves,
spreading the class to the union of its closed neighborhoods. Capture means
a refined class is a singleton.

Beliefs and classes are vertex masks throughout (vertex v is bit v, as in
``Graph.adj``): the solver's beliefs and the strategy it returns, the
verifier's classes, and the class a strategy's ``decide`` receives.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .budget import Budget, BudgetExceededError
from .graphs import (UNREACHABLE, Graph, _least, automorphism_group, bits,
                     graph_hash, is_moore_diam2)
from .resolving import greedy_resolving

# Budget units: |belief| x cops for every placement evaluated.
DEFAULT_LOC_BUDGET = 5 * 10**7

# Default scope of the exact decision; larger instances return "unknown"
# unless the caller supplies an explicit budget.
DEFAULT_MAX_N = 12
DEFAULT_MAX_K = 4


def _spread(adj, b: int) -> int:
    """Where the robber may be after moving from mask b: the union of the
    closed neighbourhoods of its vertices."""
    out = b
    for v in bits(b):
        out |= adj[v]
    return out


def _split(cop_layers, b: int) -> dict[tuple[int, ...], int]:
    """Mask b split by each cop's ``distance_layers`` in turn: the non-empty
    cells, keyed by the distance vector to the cops, UNREACHABLE (-1) where
    a cop does not reach."""
    cells = {(): b} if b else {}
    for *layers, unreached in cop_layers:
        keyed = [*enumerate(layers), (UNREACHABLE, unreached)]
        cells = {vec + (d,): c & m for vec, c in cells.items()
                 for d, m in keyed if c & m}
    return cells


class _Memo(dict):
    """A dict that fills each missing key from a function of the key."""

    def __init__(self, fill) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _max_image(to: list[list[int]], b: int) -> tuple[int, int]:
    """The canonical image of mask b under the group of table to, the one
    whose sorted vertex tuple is lexicographically least (the largest mask
    when vertex 0 is read as the most significant bit), and the mask of the
    elements that reach it (b's stabilizer when b is canonical). One walk up
    the target vertices: t joins the image iff an element still in C sends
    a vertex of b to t, and then C keeps only those elements."""
    src = bits(b)
    out, left, C = 0, len(src), -1  # C = -1: every element
    for t, row in enumerate(to):
        x = 0
        for i in src:
            x |= row[i]
        x &= C
        if x:
            C = x
            out |= 1 << t
            left -= 1
            if not left:
                break
    return out, C


class _Orbits:
    """Canonical forms under ``autos``, a listed permutation group: each
    belief is replaced by its image with the least sorted vertex tuple
    (found with its stabilizer by ``_max_image``, one walk up a table of
    group-element masks), and placements are deduplicated under each
    belief's stabilizer; pruning only removes isomorphic branches, so the
    solver's outcome is schedule-independent."""

    def __init__(self, autos: list[tuple[int, ...]]) -> None:
        # to[t][i]: the mask, over indices into autos, of those sending i to t
        self.autos = autos
        n = len(autos[0])
        rows = [[bytearray(len(autos) + 7 >> 3) for _ in range(n)] for _ in range(n)]
        for j, sig in enumerate(autos):
            byte, bit = j >> 3, 1 << (j & 7)
            for v, w in enumerate(sig):
                rows[w][v][byte] |= bit
        self.to = [[int.from_bytes(r, "little") for r in row] for row in rows]

    def image(self, b: int) -> int:
        return _max_image(self.to, b)[0]

    def firsts(self, B: int, placements):
        """Indices of the placements that come first, in list order, in
        their orbit under the stabilizer of canonical mask B."""
        stab = [self.autos[j] for j in bits(_max_image(self.to, B)[1])]
        if len(stab) <= 1:
            return range(len(placements))
        seen, out = set(), []
        for i, P in enumerate(placements):
            if P not in seen:
                out.append(i)
                seen.update(tuple(sorted(sig[p] for p in P)) for sig in stab)
        return out


class _NoOrbits:
    """``_Orbits`` of the trivial group, for a group that is not listed."""
    image = staticmethod(lambda b: b)
    firsts = staticmethod(lambda B, placements: range(len(placements)))


def _expand(start: int, seen: set, options_of) -> dict[int, list[list]]:
    """Expand each belief B reachable from start (0, a located robber, aside),
    adding B to ``seen`` once done, and return each option of B filed under
    each successor as ``[successors not yet winning, B, placement index]``."""
    dependents: dict[int, list[list]] = {}
    frontier = [start]
    while frontier:
        B = frontier.pop()
        if B in seen:
            continue
        for nexts, i in (opts := options_of(B)).items():
            entry = [len(nexts), B, i]
            for nc in nexts:
                dependents.setdefault(nc, []).append(entry)
        seen.add(B)
        frontier.extend(frozenset().union(*opts).difference(seen, (0,)))
    return dependents


def _propagate(dependents: dict[int, list[list]]) -> dict[int, int]:
    """Each winning belief mapped to its winning placement's index. Wins
    spread from 0: an entry fires once all its successors are winning."""
    winning, queue = {}, [0]
    while queue:
        for entry in dependents.get(queue.pop(), ()):
            entry[0] -= 1
            if entry[0] == 0 and entry[1] not in winning:
                winning[entry[1]] = entry[2]
                queue.append(entry[1])
    return winning


class LocDecision(NamedTuple):
    result: str  # "cop-win" | "robber-win" | "unknown"
    k: int
    strategy: dict | None = None
    beliefs: int = 0
    placements: int = 0
    reason: str | None = None


def loc_decide(G: Graph, k: int, budget: Budget | None = None) -> LocDecision:
    """Least-fixed-point decision of the k-cop localization game from the
    all-vertices belief. A belief wins iff some placement makes every
    observation class a singleton or a class whose spread wins.

    Winning beliefs are downward closed, so placements of size exactly
    min(k, n) lose no generality. ``_Orbits`` brings in G's listed group,
    ``_expand`` the beliefs and their options, ``_propagate`` the wins.

    Beliefs and observation classes are vertex masks, spread by ``_spread``
    and split by ``_split``. The returned strategy maps each winning belief
    mask (canonical when G's group is listed) to its placement.
    """
    n = G.n
    if n == 0:
        raise ValueError("empty graph")
    if k < 0:
        raise ValueError(f"cop count must be >= 0, got {k}")
    if n == 1:
        return LocDecision("cop-win", k, strategy={1: ()})
    if k < 1:
        return LocDecision("robber-win", k)
    if budget is None:
        if n > DEFAULT_MAX_N or k > DEFAULT_MAX_K:
            return LocDecision(
                "unknown", k,
                reason=f"instance beyond default scope (n <= {DEFAULT_MAX_N}, "
                       f"k <= {DEFAULT_MAX_K}); pass a budget to extend")
        budget = Budget(max_nodes=DEFAULT_LOC_BUDGET)
    size = min(k, n)
    start = (1 << n) - 1  # fixed by every automorphism
    layers = _Memo(G.distance_layers)  # a cop's BFS runs when first placed
    orbits = _Orbits(autos) if (autos := automorphism_group(G)) else _NoOrbits()
    all_placements = list(combinations(range(n), size))
    # per placement index, the cells of V split by distance vector to it;
    # per class, its canonical spread (0 once the class is located)
    atoms = _Memo(lambda i: tuple(
        _split([layers[p] for p in all_placements[i]], start).values()))
    successors = _Memo(
        lambda c: orbits.image(_spread(G.adj, c)) if c & (c - 1) else 0)
    placements = 0

    def options_of(B: int) -> dict[frozenset, int]:
        """Each distinct set of successors a placement leads B to, with the
        index of the first placement that does (0, located, always wins)."""
        nonlocal placements
        opts: dict[frozenset, int] = {}
        charge = B.bit_count() * size
        for i in orbits.firsts(B, all_placements):
            budget.spend(charge)
            placements += 1
            nexts = frozenset(map(successors.__getitem__,
                                  map(B.__and__, atoms[i])))
            opts.setdefault(nexts, i)
        return opts

    seen: set[int] = set()
    try:
        dependents = _expand(start, seen, options_of)
    except BudgetExceededError:
        return LocDecision("unknown", k, None, len(seen), placements,
                           "budget exhausted during belief expansion")
    winning = _propagate(dependents)
    if start not in winning:
        return LocDecision("robber-win", k, None, len(seen), placements)
    strategy = {B: all_placements[j] for B, j in winning.items()}
    return LocDecision("cop-win", k, strategy, len(seen), placements)


class LocNumberResult(NamedTuple):
    lower: int
    upper: int
    exact: bool
    method: str
    decisions: tuple[tuple[int, str], ...] = ()

    @property
    def value(self) -> int | None:
        return self.lower if self.exact else None


def localization_number(G: Graph, budget: Budget | None = None) -> LocNumberResult:
    """Least k with a cop win; scans loc_decide upward. Diameter-2 Moore
    graphs with k >= 5 are answered from the structural range [k-1, k]
    without attempting the (infeasible) decision."""
    if G.n == 0:
        raise ValueError("empty graph")
    mk = is_moore_diam2(G)
    if mk is not None and mk >= 5:
        return LocNumberResult(mk - 1, mk, False, "moore-range")
    decisions = []
    start = 0 if G.n == 1 else 1
    for k in range(start, G.n + 1):
        d = loc_decide(G, k, budget=budget)
        decisions.append((k, d.result))
        if d.result == "cop-win":
            return LocNumberResult(k, k, True, "decided", tuple(decisions))
        if d.result == "unknown":
            upper = len(greedy_resolving(G))  # one-round win with beta cops
            return LocNumberResult(k, upper, False, "budget", tuple(decisions))
    raise AssertionError("k = n cops always win; unreachable")


# -- strategies -----------------------------------------------------------------


class UnhandledBeliefError(Exception):
    """A strategy met a belief, a vertex mask, outside its case forms."""

    def __init__(self, belief: int) -> None:
        self.belief = belief
        super().__init__(f"no strategy case covers belief {bits(belief)}")


class ConstantStrategy:
    """Places the same cops every round; baseline for the verifier."""

    def __init__(self, placement) -> None:
        self.placement = tuple(sorted(placement))

    def decide(self, prev_class=None):
        return self.placement, "static"


class MooreStrategy:
    """Staged k-cop strategy for k-regular diameter-2 Moore graphs, k >= 5.

    The placement depends only on the previous round's refined class, a
    vertex mask read against ``G.adj``, whose form the girth-5 structure
    pins down: the opening probe, the echo of the opening around a spared
    neighbor ("init2"), the inductive middle game on a class A inside one
    neighborhood, and the two-candidate endgame. All free choices are
    resolved by least vertex index so traces are reproducible. Any class
    outside these forms raises UnhandledBeliefError, which the verifier
    surfaces verbatim.
    """

    def __init__(self, G: Graph) -> None:
        k = is_moore_diam2(G)
        if k is None:
            raise ValueError("strategy applies to diameter-2 Moore graphs only")
        if k < 5:
            raise ValueError(f"strategy needs regularity k >= 5, got k={k}")
        self.G = G
        self.k = k

    def decide(self, prev_class: int | None = None) -> tuple[tuple[int, ...], str]:
        adj = self.G.adj
        if prev_class is None:
            return self._probe(0, _least(adj[0]), "init")
        C = prev_class
        if not C & (C - 1):
            raise ValueError("strategy queried after the robber was located")
        u = next((x for x, m in enumerate(adj) if m & C == C), None)
        if u is not None:
            size = C.bit_count()
            if size == 2:
                return self._endgame(u, *bits(C))
            if 3 <= size <= self.k - 1:
                return self._middle(u, C)
            raise UnhandledBeliefError(C)
        for y in bits(C):
            if C & ~adj[y] == 1 << y and adj[y] & ~C:
                # The robber is on y or on C - {y} inside N(y); one neighbor
                # of y is known clean, so replay the opening centered at y
                # sparing it.
                return self._probe(y, _least(adj[y] & ~C), "init2")
        raise UnhandledBeliefError(C)

    def _probe(self, x: int, spared: int, tag: str):
        # Cops on N(x) minus the spared neighbor, plus the least neighbor
        # (other than x) of the least other neighbor of x.
        adj = self.G.adj
        cops = adj[x] & ~(1 << spared)
        w = _least(adj[_least(cops)] & ~(1 << x))
        P = tuple(bits(cops | 1 << w))
        assert len(P) == self.k  # w is at distance 2 from x: a fresh cop
        return P, tag

    def _middle(self, u: int, A: int):
        # Stage alpha = k - |A|: cops on A minus its least vertex v, plus
        # alpha+1 marks in N(v); every class this produces is strictly
        # smaller, driving the induction toward the endgame.
        adj, k = self.G.adj, self.k
        alpha = k - A.bit_count()
        v = _least(A)
        marks = bits(adj[v] & ~(1 << u))[: alpha + 1]
        P = tuple(sorted({*bits(A & ~(1 << v)), *marks}))
        assert len(P) == k  # N(u) and N(v) are disjoint for adjacent u, v
        return P, f"middle-alpha{alpha}"

    def _endgame(self, u: int, a1: int, a2: int):
        adj = self.G.adj
        c1, c2 = bits(adj[a1] & ~(1 << u))[:2]
        far = adj[a2] & ~(1 << u)
        marked = far & (adj[c1] | adj[c2])
        assert marked.bit_count() == 2  # each of c1, c2 marks exactly one vertex
        cops = far & ~marked | 1 << u | 1 << c1 | 1 << c2
        P = tuple(bits(cops))
        assert len(P) == self.k
        assert not any(adj[p] & cops for p in P)  # the no-adjacent-cops clause
        return P, "endgame"


def moore_strategy(G: Graph) -> MooreStrategy:
    """Alias of ``MooreStrategy``, kept because perfbench/workloads.py calls it."""
    return MooreStrategy(G)


# -- exhaustive adversarial verification ------------------------------------------


class VerificationReport:
    def __init__(self, outcome: str, k: int, graph_hash: str,
                 max_rounds_allowed: int) -> None:
        self.outcome = outcome  # "captured" | "evaded"
        self.k = k
        self.graph_hash = graph_hash
        self.max_rounds_allowed = max_rounds_allowed
        self.captured_max_rounds: int | None = None
        self.classes_explored = 0
        self.reason: str | None = None
        self.trace: list = []
        self.stage_tags: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "k": self.k,
            "graph_hash": self.graph_hash,
            "max_rounds_allowed": self.max_rounds_allowed,
            "captured_max_rounds": self.captured_max_rounds,
            "classes_explored": self.classes_explored,
            "reason": self.reason,
            "stage_tags": sorted(self.stage_tags),
            "trace": self.trace,
        }


class _Evasion(Exception):
    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


def verify_strategy(G: Graph, strategy, k: int,
                    max_rounds: int | None = None) -> VerificationReport:
    """Explores every observation class at every reachable refined belief.

    The strategy's ``decide`` receives the previous refined class as a
    vertex mask, None before the first probe. Captured means every
    adversarial play ends with a singleton class within max_rounds probes;
    the report carries the worst-case round count.
    Evaded carries the offending trace: a repeated belief along a play (the
    robber loops forever), an unhandled belief, or the round limit.
    """
    if max_rounds is None:
        max_rounds = 2 * G.n + 4
    layers = _Memo(G.distance_layers)  # each cop's BFS runs once per call
    memo: dict[int, int] = {}
    onstack: set[int] = set()
    path: list[dict] = []
    tags: set[str] = set()
    report = VerificationReport("evaded", k, graph_hash(G), max_rounds)

    def place(prev):
        placement, tag = strategy.decide(prev)
        P = tuple(sorted(placement))
        if len(P) > k or len(set(P)) != len(P) \
                or any(not 0 <= p < G.n for p in P):
            raise ValueError(f"strategy returned invalid placement {placement}")
        tags.add(tag)
        return P, tag

    def explore(c: int | None, depth: int) -> int:
        # height: the probes still needed once the robber is pinned to class
        # mask c, or anywhere (c is None) before the first probe
        if c is not None and not c & (c - 1):
            return 0
        if c in onstack:
            raise _Evasion("cycle: the same refined belief repeats along a play")
        cached = memo.get(c)
        if cached is not None:
            if depth + cached > max_rounds:
                raise _Evasion("round limit exceeded")
            return cached
        if depth >= max_rounds:
            raise _Evasion("round limit exceeded")
        try:
            P, tag = place(c)
        except UnhandledBeliefError as exc:
            raise _Evasion(f"unhandled belief {bits(exc.belief)}") from exc
        belief = (1 << G.n) - 1 if c is None else _spread(G.adj, c)
        parts = _split([layers[p] for p in P], belief)
        onstack.add(c)
        worst = 0
        for obs in sorted(parts):
            report.classes_explored += 1
            path.append({
                "round": depth + 1,
                "belief": bits(belief),
                "placement": list(P),
                "stage": tag,
                "observation": list(obs),
                "refined": bits(parts[obs]),
            })
            worst = max(worst, explore(parts[obs], depth + 1))
            path.pop()
        onstack.discard(c)
        memo[c] = worst + 1
        return worst + 1

    try:
        rounds = explore(None, 0)
    except _Evasion as ev:
        report.reason = ev.reason
        report.trace = list(path)
    else:
        report.outcome = "captured"
        report.captured_max_rounds = rounds
    report.stage_tags = tuple(sorted(tags))
    return report
