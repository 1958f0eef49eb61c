"""The three benchmark workloads as job lists, built from the workload seed.

A job is one user question: it builds its graph itself, as every CLI call
does, and its answer is checked afterwards, outside the timed region, against
a table of known values or an independent certificate from ``oracle``.

Instance sizes are kept well inside a 2-CPU, 8 GB machine. Rows of the
project's performance ladder left out, with the times measured on it:
``kneser_graph(5,15)`` (121 s); ``md exact`` on kneser:4:13 (296 s);
``hyper cover --k 2 --n 70`` (482 s and 1.4 GB, since K(2,70) is still below
the CLI's verification vertex limit); ``loc_decide`` with k = 2 on a random
28-vertex diameter-2 graph (killed, most likely out of memory: ``Budget``
caps nodes, not memory).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable

import oracle

# Random instances are drawn once, in set-up, for this many rounds; later
# rounds reuse them in order.
POOL_ROUNDS = 8

# Most random graphs share one size, so that the median job falls inside a
# block of similar jobs rather than between two size classes.
MD_RANDOM_SIZES = (16, 18, 20, 24, 26, 28) + (22,) * 22
MD_RANDOM_P = 0.35
MD_HS_NODES = 20_000
MD_HS_JOBS = 4

LOC_RANDOM_N = 12
LOC_RANDOM_P = 0.45
LOC_RANDOM_PER_ROUND = 24
LOC_BUDGET_NODES = 5 * 10**7
# Repeats of the deterministic K(2,6), k = 2 decision: they sit at the top of
# the random jobs' time range, so the 90th percentile falls among them.
LOC_K26_REPEATS = 6

# Known values: beta is the metric dimension, zeta the localization number.
KNOWN_BETA = {"petersen": 3, "ER(5)": 8, "K(2,8)": 6, "K(3,7)": 5}
KNOWN_ZETA = {"petersen": 3, "K(2,6)": 3}
MOORE_HS_LANDMARKS = 11
HS_CAPTURE_ROUNDS = 4


def zeta_cycle(n: int) -> int:
    return 2 if n <= 6 else 1


@dataclass
class Job:
    """One timed question. In-process jobs have ``run(budget)``; CLI jobs
    have ``argv`` and an expected exit code. ``check`` gets the answer (or
    the parsed artifact) and returns an error message or None."""

    name: str
    check: Callable
    run: Callable | None = None
    budget: Callable | None = None
    argv: list[str] = field(default_factory=list)
    exit_code: int = 0
    cap_s: float | None = None


def _rng(seed: int, *tag) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed,) + tag))


def _expect(cond: bool, what: str) -> str | None:
    return None if cond else what


# -- md-search -------------------------------------------------------------------


def _md_check(name, expected=None, edges=None, closed=True):
    """Metric-dimension answer: the landmarks resolve (checked on the
    benchmark's own distances), the size is the upper bound, and a closed
    search matches the known value when there is one."""

    def check(answer):
        G, res = answer
        rows = oracle.distance_rows(G.n, edges if edges is not None else G.edges)
        if not oracle.resolves(rows, res.landmarks):
            return f"{name}: landmarks do not resolve"
        if len(res.landmarks) != res.upper or res.lower > res.upper:
            return f"{name}: interval [{res.lower}, {res.upper}] inconsistent"
        if res.exact != closed:
            return f"{name}: exact={res.exact}, expected {closed}"
        if closed and res.lower != res.upper:
            return f"{name}: closed search with open interval"
        if expected is not None and res.upper != expected:
            return f"{name}: beta {res.upper}, expected {expected}"
        # Every landmark splits vertices three ways at diameter 2.
        return _expect(3 ** res.upper >= G.n, f"{name}: beta below 3^beta >= n")
    return check


def md_search(L, seed: int) -> list[list[Job]]:
    def exact(name, build, **kw):
        def run(budget):
            G = build()
            return G, L.metric_dimension(G)
        return Job(f"md:{name}", _md_check(name, KNOWN_BETA.get(name), **kw),
                   run=run)

    def greedy(n):
        def run(budget):
            G = L.kneser_graph(3, n)
            S = L.greedy_resolving(G)
            return S, L.is_resolving(G, S)

        def check(answer):
            S, cert = answer
            return _expect(cert.verified and oracle.kneser_resolves(3, n, S),
                           f"greedy K(3,{n}): landmarks do not resolve")
        return Job(f"greedy:K(3,{n})", check, run=run)

    def hs_capped():
        def run(budget):
            G = L.hoffman_singleton()
            return G, L.metric_dimension(G, budget=budget)
        base = _md_check("HS", closed=False)

        def check(answer):
            err = base(answer)
            return err or _expect(answer[1].lower <= MOORE_HS_LANDMARKS,
                                  "HS: lower bound above the Moore construction")
        return Job("md:HS-capped", check, run=run,
                   budget=lambda: L.Budget(max_nodes=MD_HS_NODES))

    fixed = [
        exact("petersen", lambda: L.petersen()),
        exact("ER(3)", lambda: L.er_polarity_graph(3).graph),
        exact("ER(4)", lambda: L.er_polarity_graph(4).graph),
        exact("ER(5)", lambda: L.er_polarity_graph(5).graph),
        exact("K(2,7)", lambda: L.kneser_graph(2, 7)),
        exact("K(2,8)", lambda: L.kneser_graph(2, 8)),
        exact("K(3,7)", lambda: L.kneser_graph(3, 7)),
        greedy(10),
        greedy(11),
    ] + [hs_capped() for _ in range(MD_HS_JOBS)]
    rounds = []
    for r in range(POOL_ROUNDS):
        rng = _rng(seed, "md", r)
        jobs = list(fixed)
        for n in MD_RANDOM_SIZES:
            edges = oracle.random_diameter2(rng, n, MD_RANDOM_P)
            jobs.append(exact(f"random{n}",
                              lambda n=n, e=edges: L.Graph(n, e), edges=edges))
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


# -- loc-game --------------------------------------------------------------------


@lru_cache(maxsize=None)
def _oracle_cop_win(n: int, edges: tuple, k: int) -> bool:
    return oracle.cop_win(n, edges, k)


def loc_game(L, seed: int) -> list[list[Job]]:
    def decide(name, build, k, expected_win=None, edges=None, budgeted=False):
        def run(budget):
            G = build()
            return G, L.loc_decide(G, k, budget=budget)

        def check(answer):
            G, d = answer
            if d.result == "unknown":
                return f"{name} k={k}: unknown ({d.reason})"
            want = expected_win
            if want is None:
                want = _oracle_cop_win(G.n, tuple(G.edges if edges is None
                                                  else edges), k)
            return _expect((d.result == "cop-win") == want,
                           f"{name} k={k}: {d.result}, oracle says "
                           f"{'cop' if want else 'robber'}-win")
        return Job(f"loc:{name}:k{k}", check, run=run,
                   budget=(lambda: L.Budget(max_nodes=LOC_BUDGET_NODES))
                   if budgeted else None)

    def cycle_number(n):
        def check(res):
            return _expect(res.exact and res.value == zeta_cycle(n),
                           f"zeta(C{n}) = {res.value}, expected {zeta_cycle(n)}")
        return Job(f"locnum:C{n}", check,
                   run=lambda budget: L.localization_number(L.cycle_graph(n)))

    def hs_verify():
        def run(budget):
            G = L.hoffman_singleton()
            return L.verify_strategy(G, L.moore_strategy(G), 7)

        def check(rep):
            return _expect(rep.outcome == "captured"
                           and rep.captured_max_rounds == HS_CAPTURE_ROUNDS,
                           f"HS staged strategy: {rep.outcome} in "
                           f"{rep.captured_max_rounds} rounds")
        return Job("verify:HS-moore", check, run=run)

    def hs_static():
        def run(budget):
            G = L.hoffman_singleton()
            return L.verify_strategy(G, L.ConstantStrategy(range(7)), 7)
        return Job("verify:HS-static", lambda rep: _expect(
            rep.outcome == "evaded", "HS static placement did not evade"),
            run=run)

    pet_zeta = KNOWN_ZETA["petersen"]
    k26_zeta = KNOWN_ZETA["K(2,6)"]
    fixed = [cycle_number(n) for n in range(5, 13)]
    fixed += [decide("petersen", lambda: L.petersen(), k, expected_win=k >= pet_zeta)
              for k in (1, 2, 3)]
    fixed += [decide("K(2,6)", lambda: L.kneser_graph(2, 6), k,
                     expected_win=k >= k26_zeta, budgeted=True)
              for k in (2,) * LOC_K26_REPEATS + (3,)]
    fixed += [decide("ER(3)", lambda: L.er_polarity_graph(3).graph, k,
                     budgeted=True) for k in (2, 3)]
    fixed += [hs_verify(), hs_static()]
    rounds = []
    for r in range(POOL_ROUNDS):
        rng = _rng(seed, "loc", r)
        jobs = list(fixed)
        for _ in range(LOC_RANDOM_PER_ROUND):
            edges = oracle.random_diameter2(rng, LOC_RANDOM_N, LOC_RANDOM_P)
            jobs.append(decide("random12",
                               lambda e=edges: L.Graph(LOC_RANDOM_N, e), 2,
                               edges=edges))
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


# -- cli-build -------------------------------------------------------------------

CLI_CAP_S = 0.3


def _structural_hash(n: int, edges) -> str:
    payload = json.dumps({"n": n, "edges": [list(e) for e in sorted(map(tuple, edges))]},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@lru_cache(maxsize=None)
def _kneser_hash(k: int, n: int) -> str:
    subsets = [frozenset(s) for s in combinations(range(1, n + 1), k)]
    edges = [(i, j) for i, j in combinations(range(len(subsets)), 2)
             if subsets[i].isdisjoint(subsets[j])]
    return _structural_hash(len(subsets), edges)


def _graph_art_check(name, n, m, expected_hash=None):
    def check(art):
        if art["n"] != n or len(art["edges"]) != m:
            return f"{name}: {art['n']} vertices / {len(art['edges'])} edges"
        h = expected_hash() if expected_hash else _structural_hash(n, art["edges"])
        return _expect(art["hash"] == h, f"{name}: hash mismatch")
    return check


def cli_build(seed: int, workdir: str) -> list[list[Job]]:
    """One fixed round of CLI jobs: 70 small, 40 medium, 6 heavy. The mix
    puts the median inside the small block and the 90th percentile inside
    the medium block."""
    rng = _rng(seed, "cli")
    jobs: list[Job] = []

    def add(name, argv, check, exit_code=0, cap_s=None):
        jobs.append(Job(name, check, argv=argv, exit_code=exit_code, cap_s=cap_s))

    for _ in range(14):
        n = rng.randint(5, 60)
        add("graph:cycle", ["graph", "build", "--graph", f"cycle:{n}"],
            _graph_art_check(f"C{n}", n, n))
    for _ in range(14):
        n = rng.randint(5, 12)
        add("loc:number-cycle", ["loc", "number", "--graph", f"cycle:{n}"],
            lambda art, n=n: _expect(art["exact"] and art["value"] == zeta_cycle(n),
                                     f"zeta(C{n}) = {art['value']}"))
    for _ in range(14):
        fam = rng.choice(("kneser", "polarity", "moore"))
        if fam == "kneser":
            k = rng.randint(2, 4)
            params = {"k": k, "n": rng.randint(3 * k, 3 * k + 10)}
        elif fam == "polarity":
            params = {"q": rng.choice((2, 3, 4, 5, 7, 8, 9, 11))}
        else:
            params = {"k": rng.choice((3, 7))}
        argv = ["bounds", "report", "--family", fam]
        for key, val in params.items():
            argv += [f"--{key}", str(val)]
        add("bounds:report", argv,
            lambda art, fam=fam, params=params: _expect(
                art["family"] == fam and art["params"] == params
                and art["entries"], f"bounds {fam} {params}: bad report"))
    for i in range(14):
        n = rng.randint(10, 14)
        edges = oracle.random_diameter2(rng, n, 0.4)
        path = os.path.join(workdir, f"random{i}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"n": n, "edges": [list(e) for e in edges]}, fh)

        def check(art, n=n, edges=edges):
            rows = oracle.distance_rows(n, edges)
            return _expect(art["exact"] and art["value"] == len(art["landmarks"])
                           and art["graph_hash"] == _structural_hash(n, edges)
                           and oracle.resolves(rows, art["landmarks"]),
                           f"md exact random{n}: bad answer")
        add("md:exact-file", ["md", "exact", "--graph", path], check)
    for _ in range(14):
        n = rng.randint(8, 11)
        add("graph:kneser2", ["graph", "build", "--graph", f"kneser:2:{n}"],
            _graph_art_check(f"K(2,{n})", comb(n, 2),
                             comb(n, 2) * comb(n - 2, 2) // 2))

    def construct_check(name, family, size):
        return lambda art: _expect(
            art["family"] == family and art["verified"] and art["size"] == size
            and len(art["landmarks"]) == size, f"construct {name}: bad answer")

    def hs_verify_check(art):
        return _expect(art["outcome"] == "captured"
                       and art["captured_max_rounds"] == HS_CAPTURE_ROUNDS,
                       "loc verify hs: not captured in 4 rounds")

    for _ in range(10):
        add("md:construct-hs", ["md", "construct", "--graph", "hs"],
            construct_check("hs", "moore", MOORE_HS_LANDMARKS))
        add("loc:verify-hs", ["loc", "verify", "--graph", "hs"], hs_verify_check)
        q = rng.choice((3, 4, 5, 7, 8, 9))
        add("md:construct-er", ["md", "construct", "--graph", f"er:{q}"],
            construct_check(f"er:{q}", "polarity", 2 * q - 1))
        add("graph:petersen-stats",
            ["graph", "build", "--graph", "petersen", "--stats"],
            lambda art: _expect(art["diameter"] == 2 and art["girth"] == 5
                                and art["regularity"] == 3 and art["n"] == 10
                                and len(art["edges"]) == 15, "petersen stats"))

    def capped_check(art):
        return _expect(not art["exact"] and art["lower"] <= art["upper"]
                       and len(art["landmarks"]) == art["upper"]
                       and oracle.kneser_resolves(4, 11, art["landmarks"]),
                       "capped md exact K(4,11): bad interval")

    add("md:exact-capped-K(4,11)",
        ["md", "exact", "--graph", "kneser:4:11", "--budget-seconds", str(CLI_CAP_S)],
        capped_check, exit_code=2, cap_s=CLI_CAP_S)
    add("graph:kneser-4-12", ["graph", "build", "--graph", "kneser:4:12"],
        _graph_art_check("K(4,12)", comb(12, 4), comb(12, 4) * comb(8, 4) // 2,
                         lambda: _kneser_hash(4, 12)))
    add("graph:kneser-2-30", ["graph", "build", "--graph", "kneser:2:30"],
        _graph_art_check("K(2,30)", comb(30, 2), comb(30, 2) * comb(28, 2) // 2,
                         lambda: _kneser_hash(2, 30)))
    add("hyper:cover-2-30", ["hyper", "cover", "--k", "2", "--n", "30"],
        lambda art: _expect(art["verified"] is True
                            and art["size"] == len(art["landmarks"])
                            and oracle.kneser_resolves(2, 30, art["landmarks"]),
                            "hyper cover K(2,30): not a verified resolving set"))
    add("md:exact-er5", ["md", "exact", "--graph", "er:5"],
        lambda art: _expect(art["exact"] and art["value"] == KNOWN_BETA["ER(5)"],
                            f"beta(ER(5)) = {art['value']}"))
    add("md:construct-er16", ["md", "construct", "--graph", "er:16"],
        construct_check("er:16", "polarity", 31))
    rng.shuffle(jobs)
    return [jobs]
