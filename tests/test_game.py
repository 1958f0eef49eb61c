import hashlib
import json
import tracemalloc
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locdim as L
from locdim import game
from locdim.cli import resolve_graph_spec
from locdim.graphs import automorphism_group, bits

from oracles import (adjacent, image_max_image, image_orbit_firsts,
                     neighbors, sweep_loc_decide)


def mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def graph_of(spec: str) -> L.Graph:
    """The graph of a CLI spec; a "-plain" suffix drops its generators."""
    G = resolve_graph_spec(spec.removesuffix("-plain"))[0]
    return L.Graph(G.n, G.edges) if spec.endswith("-plain") else G


def split(G: L.Graph, P, b: int) -> dict[tuple[int, ...], int]:
    """Mask b split by distance vector to the placement P."""
    return game._split(map(G.distance_layers, P), b)


def test_spread_is_union_of_closed_neighborhoods():
    P = L.petersen()
    assert game._spread(P.adj, mask({0, 1})) == mask({0, 1, 5, 6, 7, 8, 9})
    for B in ({0}, {0, 1, 2}, set(range(10))):
        expect = set()
        for v in B:
            expect |= neighbors(P, v) | {v}
        assert game._spread(P.adj, mask(B)) == mask(expect)


def test_probe_partition_petersen_single_cop():
    P = L.petersen()
    parts = split(P, (0,), mask(range(10)))
    assert parts[(0,)] == mask({0})
    assert parts[(1,)] == P.adj[0]
    assert parts[(2,)] == P.distance_layers(0)[2]


def test_probe_partition_is_a_partition():
    G = L.kneser_graph(2, 6)
    parts = split(G, (0, 3, 7), mask(range(G.n)))
    seen = 0
    for vec, cls in parts.items():
        assert len(vec) == 3
        assert not seen & cls
        seen |= cls
    assert seen == mask(range(G.n))


def test_loc_decide_small_graphs():
    C5 = L.cycle_graph(5)
    assert L.loc_decide(C5, 1).result == "robber-win"
    assert L.loc_decide(C5, 2).result == "cop-win"
    P = L.petersen()
    assert L.loc_decide(P, 1).result == "robber-win"
    assert L.loc_decide(P, 2).result == "robber-win"
    d = L.loc_decide(P, 3)
    assert d.result == "cop-win"
    assert d.strategy  # a winning placement map comes with the win


def test_loc_decide_matches_sweep_oracle():
    cases = [(L.cycle_graph(n), k) for n in (4, 5, 6, 7) for k in (1, 2)]
    cases += [(L.petersen(), k) for k in (1, 2, 3)]
    cases += [(L.er_polarity_graph(2).graph, k) for k in (1, 2)]
    for G, k in cases:
        assert L.loc_decide(G, k).result == sweep_loc_decide(G, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_loc_decide_matches_sweep_oracle_on_random_graphs(data):
    # disconnected graphs included: unreachable vertices form their own class
    n = data.draw(st.integers(min_value=1, max_value=7))
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    k = data.draw(st.sampled_from((1, 2)))
    G = L.Graph(n, sorted(edges))
    assert L.loc_decide(G, k).result == sweep_loc_decide(G, k)


# (result, beliefs, placements) as first computed on frozenset beliefs
PINNED_DECISIONS = [
    ("petersen", 1, "robber-win", 5, 17),
    ("petersen", 2, "robber-win", 5, 56),
    ("petersen", 3, "cop-win", 3, 66),
    ("c5", 2, "cop-win", 1, 2),
    ("kneser:2:6", 2, "robber-win", 5, 74),
    ("kneser:2:6", 3, "cop-win", 5, 235),
    ("er:3", 2, "robber-win", 37, 1345),
    ("er:3", 3, "cop-win", 32, 3787),
    ("kneser:2:7", 3, "robber-win", 6, 387),
    ("kneser:2:7", 4, "cop-win", 5, 1017),
]


@pytest.mark.parametrize("spec,k,result,beliefs,placements", PINNED_DECISIONS)
def test_loc_decide_pinned_counts(spec, k, result, beliefs, placements):
    G = resolve_graph_spec(spec)[0]
    d = L.loc_decide(G, k, budget=L.Budget(max_nodes=10**8))
    assert (d.result, d.beliefs, d.placements) == (result, beliefs, placements)


# ER(3) without its collineations: the unpruned search's counts
@pytest.mark.parametrize("k,result,beliefs,placements", [
    (2, "robber-win", 329, 25662),
    (3, "cop-win", 275, 78650),
])
def test_loc_decide_pinned_counts_without_generators(k, result, beliefs, placements):
    G = L.er_polarity_graph(3).graph
    d = L.loc_decide(L.Graph(G.n, G.edges), k, budget=L.Budget(max_nodes=10**8))
    assert (d.result, d.beliefs, d.placements) == (result, beliefs, placements)


def test_loc_decide_keeps_no_option_sets_past_their_belief():
    # each belief's option sets are dropped once its options are filed
    # under their successors; holding them all peaked at 18.2 MiB
    tracemalloc.start()
    try:
        d = L.loc_decide(graph_of("er:3-plain"), 3,
                         budget=L.Budget(max_nodes=10**8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (d.result, d.beliefs, d.placements) == ("cop-win", 275, 78650)
    assert peak < 10 * 2**20


# sha256 of the sorted (belief, placement) items of the winning strategy; the
# Kneser rows as computed at commit 164cd7f, when beliefs were canonicalized
# by mapping each one through every automorphism, the ER(3) rows at commit
# 6acd1bc. "er:3-plain" is ER(3) without its generators (275 beliefs), so
# each form of the solver's symmetry is pinned.
STRATEGY_DIGESTS = [
    ("kneser:2:6", 3,
     "7092ccbb32003093e010ad376e3b4d944a9d0fae86ba7a6e5221adb2bc57e8c0"),
    ("kneser:2:7", 4,
     "fe02f688ec05f759969ee28aff6b3070912d4fc7a020a77bd297f7f5a1c07e71"),
    ("er:3", 3,
     "1c34d732b06df85caa89295af35f6953079caf1d0359a57fef67fb98590b13e4"),
    ("er:3-plain", 3,
     "84ba9a390cb0abca6a080865efdd9aabb817183d03c4c33145465f2d8bac41f2"),
]


@pytest.mark.parametrize("spec,k,digest", STRATEGY_DIGESTS)
def test_loc_decide_strategy_digest(spec, k, digest):
    d = L.loc_decide(graph_of(spec), k, budget=L.Budget(max_nodes=10**8))
    items = sorted((tuple(bits(B)), P) for B, P in d.strategy.items())
    assert hashlib.sha256(repr(items).encode()).hexdigest() == digest


SYMMETRIC_SPECS = [f"cycle:{n}" for n in range(3, 13)] + [
    "petersen", "kneser:2:6", "kneser:2:7"]


@lru_cache(maxsize=None)
def symmetry_of(spec: str):
    G = resolve_graph_spec(spec)[0]
    autos = automorphism_group(G)
    return G.n, autos, game._Orbits(autos)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_table_kernel_matches_per_element_images(data):
    n, autos, orbits = symmetry_of(data.draw(st.sampled_from(SYMMETRIC_SPECS)))
    b = data.draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    best, reach = image_max_image(autos, n, b)
    assert orbits.image(b) == best
    C = game._max_image(orbits.to, b)[1]
    assert [autos[j] for j in bits(C)] == reach
    # a canonical belief: the elements reaching it are its stabilizer
    stab = image_max_image(autos, n, best)[1]
    assert [autos[j] for j in bits(game._max_image(orbits.to, best)[1])] == stab
    for k in (1, 2, 3):
        placements = list(combinations(range(n), k))
        assert list(orbits.firsts(best, placements)) == \
            image_orbit_firsts(placements, stab)


class SolverStrategy:
    """Plays a loc_decide strategy: the placement for the belief the robber
    can reach from the previous class."""

    def __init__(self, G: L.Graph, strategy: dict) -> None:
        self.G = G
        self.strategy = strategy

    def decide(self, prev_class=None):
        if prev_class is None:
            return self.strategy[mask(range(self.G.n))], "solver"
        return self.strategy[game._spread(self.G.adj, prev_class)], "solver"


@pytest.mark.parametrize("spec,k", [("c5", 2), ("petersen", 3),
                                     ("er:2", 2), ("er:3", 3)])
def test_verifier_replays_whole_solver_strategy(spec, k):
    G = resolve_graph_spec(spec)[0]
    d = L.loc_decide(L.Graph(G.n, G.edges), k, budget=L.Budget(max_nodes=10**8))
    assert d.result == "cop-win"
    report = L.verify_strategy(G, SolverStrategy(G, d.strategy), k,
                               max_rounds=len(d.strategy) + 1)
    assert report.outcome == "captured"


def test_loc_decide_symmetry_pruning_changes_nothing():
    cases = [(L.cycle_graph(n), k) for n in range(4, 10) for k in (1, 2, 3)]
    cases += [(L.petersen(), k) for k in (1, 2, 3)]
    cases += [(L.kneser_graph(2, 6), k) for k in (2, 3)]  # S_6, 720 elements
    cases += [(L.er_polarity_graph(2).graph, k) for k in (1, 2)]
    cases += [(L.er_polarity_graph(3).graph, k) for k in (2, 3)]  # 24 elements
    for G, k in cases:
        # K(2,6) has 15 vertices, above DEFAULT_MAX_N, so it needs a budget
        budget = L.Budget(max_nodes=10**8) if G.n > game.DEFAULT_MAX_N else None
        a = L.loc_decide(G, k, budget=budget)
        b = L.loc_decide(L.Graph(G.n, G.edges), k, budget=budget)
        assert a.result == b.result
        assert a.placements <= b.placements


def test_loc_decide_monotone_in_cops():
    for G in (L.cycle_graph(5), L.er_polarity_graph(2).graph):
        results = [L.loc_decide(G, k).result for k in range(1, 5)]
        first_win = results.index("cop-win")
        assert all(r == "cop-win" for r in results[first_win:])


def test_loc_decide_trivia():
    assert L.loc_decide(L.Graph(1, []), 0).result == "cop-win"
    assert L.loc_decide(L.petersen(), 0).result == "robber-win"
    for G in (L.Graph(1, []), L.cycle_graph(5)):
        with pytest.raises(ValueError, match="cop count"):
            L.loc_decide(G, -1)
    with pytest.raises(ValueError):
        L.loc_decide(L.Graph(0, []), 1)


def test_localization_number_rejects_the_empty_graph():
    with pytest.raises(ValueError, match="empty graph"):
        L.localization_number(L.Graph(0, []))
    assert L.localization_number(L.Graph(1, [])).value == 0


def test_loc_decide_default_scope_guard():
    G = L.kneser_graph(2, 6)  # 15 vertices, above the default n cap
    d = L.loc_decide(G, 2)
    assert d.result == "unknown"
    assert "default scope" in d.reason
    d = L.loc_decide(G, 2, budget=L.Budget(max_nodes=10**8))
    assert d.result == "robber-win"


def test_loc_decide_budget_exhaustion():
    # the (beliefs, placements) counted when the node budget runs out
    for spec, max_nodes, counts in [("petersen", 50, (0, 1)),
                                    ("petersen", 200, (1, 8)),
                                    ("petersen", 1000, (2, 49)),
                                    ("er:3", 2000, (1, 62)),
                                    # S_8 is not listed, so the root stays open
                                    ("kneser:2:8", 200000, (0, 2380)),
                                    # no symmetry, stopped many beliefs deep
                                    ("er:3-plain", 300000, (35, 10200))]:
        d = L.loc_decide(graph_of(spec), 3, budget=L.Budget(max_nodes=max_nodes))
        assert d.result == "unknown"
        assert "budget" in d.reason
        assert (d.beliefs, d.placements) == counts


def test_capped_game_builds_only_the_layers_it_reads():
    calls = []

    class CountingGraph(L.Graph):
        def distance_layers(self, u):
            calls.append(u)
            return super().distance_layers(u)

    K = L.kneser_graph(2, 30)  # 435 vertices; S_30 is not listed
    G = CountingGraph(K.n, K.edges, generators=K.generators)
    d = L.loc_decide(G, 1, L.Budget(max_nodes=1000))
    assert d.result == "unknown" and (d.beliefs, d.placements) == (0, 2)
    assert sorted(calls) == [0, 1]  # the two placements' cops, not all 435


def test_zeta_of_kneser_2_6_is_three():
    G = L.kneser_graph(2, 6)
    budget = L.Budget(max_nodes=10**9)
    assert L.loc_decide(G, 2, budget=budget).result == "robber-win"
    assert L.loc_decide(G, 3, budget=budget).result == "cop-win"
    # strictly below the metric dimension, which is 4
    assert L.metric_dimension(G).value == 4


def test_localization_number_small():
    assert L.localization_number(L.cycle_graph(5)).value == 2
    res = L.localization_number(L.petersen())
    assert res.value == 3 and res.exact
    assert res.decisions == ((1, "robber-win"), (2, "robber-win"),
                             (3, "cop-win"))
    assert L.localization_number(L.Graph(1, [])).value == 0
    assert L.localization_number(L.Graph(2, [(0, 1)])).value == 1
    assert L.localization_number(L.er_polarity_graph(2).graph).value == 2


def test_localization_number_moore_range():
    res = L.localization_number(L.hoffman_singleton())
    assert not res.exact
    assert (res.lower, res.upper) == (6, 7)
    assert res.method == "moore-range"
    assert res.value is None


def test_localization_number_budget_interval():
    res = L.localization_number(L.kneser_graph(2, 6))  # beyond default scope
    assert not res.exact
    assert res.method == "budget"
    assert res.lower <= 3 <= res.upper  # the true value from the test above


def test_zeta_never_exceeds_beta():
    for G in (L.cycle_graph(5), L.cycle_graph(6), L.petersen(),
              L.er_polarity_graph(2).graph):
        z = L.localization_number(G)
        b = L.metric_dimension(G)
        assert z.value <= b.value


# -- the staged Moore strategy ---------------------------------------------------


def test_moore_strategy_requires_large_moore_graph():
    with pytest.raises(ValueError):
        L.MooreStrategy(L.cycle_graph(5))
    with pytest.raises(ValueError):
        L.MooreStrategy(L.petersen())  # k = 3 < 5
    with pytest.raises(ValueError):
        L.MooreStrategy(L.kneser_graph(2, 6))


def test_moore_strategy_opening_shape():
    HS = L.hoffman_singleton()
    strat = L.moore_strategy(HS)
    P, tag = strat.decide(None)
    assert tag == "init"
    assert len(P) == 7
    nbrs = sorted(neighbors(HS, 0))
    assert set(nbrs[1:]) <= set(P)  # all of N(0) except the spared y
    assert nbrs[0] not in P


def test_moore_strategy_captures_on_hoffman_singleton():
    HS = L.hoffman_singleton()
    report = L.verify_strategy(HS, L.moore_strategy(HS), 7)
    assert report.outcome == "captured"
    assert report.captured_max_rounds == 4
    assert report.classes_explored == 1513
    assert report.stage_tags == ("init", "init2", "middle-alpha2",
                                 "middle-alpha4")
    json.dumps(report.to_json_dict())


def test_moore_strategy_endgame_always_locates():
    # two non-adjacent candidates under one common neighbor: the endgame
    # placement must split every vertex of the spread into its own class
    HS = L.hoffman_singleton()
    strat = L.moore_strategy(HS)
    for u in (0, 17, 42):
        nbrs = sorted(neighbors(HS, u))
        for a1, a2 in combinations(nbrs, 2):
            assert not adjacent(HS, a1, a2)  # neighborhoods are independent
            C = mask({a1, a2})
            P, tag = strat.decide(C)
            assert tag == "endgame"
            assert len(P) == 7
            for x, y in combinations(P, 2):
                assert not adjacent(HS, x, y)
            parts = split(HS, P, game._spread(HS.adj, C))
            assert all(cls.bit_count() == 1 for cls in parts.values())


def test_moore_strategy_middle_stage_shrinks_classes():
    HS = L.hoffman_singleton()
    strat = L.moore_strategy(HS)
    u = 5
    nbrs = sorted(neighbors(HS, u))
    for size in (3, 4, 5, 6):
        A = mask(nbrs[:size])
        P, tag = strat.decide(A)
        assert tag == f"middle-alpha{7 - size}"
        assert len(P) == 7
        parts = split(HS, P, game._spread(HS.adj, A))
        for cls in parts.values():
            if cls.bit_count() > 1:
                assert cls.bit_count() < size
                owners = [w for w in range(HS.n) if cls & HS.adj[w] == cls]
                assert len(owners) == 1  # next round stays in strategy form


def test_moore_strategy_rejects_singleton_query():
    strat = L.moore_strategy(L.hoffman_singleton())
    with pytest.raises(ValueError):
        strat.decide(mask({3}))


def test_moore_strategy_raises_on_beliefs_outside_its_forms():
    HS = L.hoffman_singleton()
    strat = L.moore_strategy(HS)
    # a whole neighbourhood: one common neighbour, but k classes to split
    with pytest.raises(L.UnhandledBeliefError) as err:
        strat.decide(HS.adj[0])
    assert err.value.belief == HS.adj[0]
    # an independent triple with no common neighbour
    C = mask({0, 2, 5})
    assert not any(C & HS.adj[v] == C for v in range(HS.n))
    assert all(not HS.adj[u] >> v & 1 for u, v in combinations((0, 2, 5), 2))
    with pytest.raises(L.UnhandledBeliefError) as err:
        strat.decide(C)
    assert err.value.belief == C


def test_unhandled_belief_error_carries_the_belief():
    err = L.UnhandledBeliefError(mask({3, 1, 2}))
    assert err.belief == mask({1, 2, 3})
    assert "1, 2, 3" in str(err)


# -- the adversarial verifier ----------------------------------------------------


def test_verify_static_resolving_set_captures_in_one_round():
    P = L.petersen()
    report = L.verify_strategy(P, L.ConstantStrategy((0, 1, 2)), 3)
    assert report.outcome == "captured"
    assert report.captured_max_rounds == 1


def test_verify_detects_cycles():
    P = L.petersen()
    report = L.verify_strategy(P, L.ConstantStrategy((0, 1)), 2)
    assert report.outcome == "evaded"
    assert "repeats" in report.reason
    assert report.trace  # the offending play is in the artifact


def test_verify_round_limit():
    HS = L.hoffman_singleton()
    strat = L.moore_strategy(HS)
    report = L.verify_strategy(HS, strat, 7, max_rounds=3)
    assert report.outcome == "evaded"
    assert report.reason == "round limit exceeded"
    assert L.verify_strategy(HS, strat, 7, max_rounds=4).outcome == "captured"


@pytest.mark.parametrize("spec", ["c5", "cycle:6", "petersen", "er:2"])
def test_verify_keeps_the_opening_round_within_max_rounds(spec):
    # a limit of m rounds captures iff the unlimited replay captures within
    # m; the opening probe counts as round 1, so m <= 0 never captures
    G = resolve_graph_spec(spec)[0]
    captured = 0
    for size in (1, 2, 3):
        for P in combinations(range(G.n), size):
            free = L.verify_strategy(G, L.ConstantStrategy(P), size)
            for max_rounds in (-5, 0, 1, 2, 3):
                rep = L.verify_strategy(G, L.ConstantStrategy(P), size,
                                        max_rounds=max_rounds)
                assert rep.max_rounds_allowed == max_rounds
                if rep.outcome == "captured":
                    captured += 1
                    assert rep.captured_max_rounds <= max_rounds
                    assert rep.captured_max_rounds == free.captured_max_rounds
                else:
                    assert free.outcome == "evaded" \
                        or free.captured_max_rounds > max_rounds
    assert captured  # some static placement locates the robber


def test_verify_computes_each_cops_layers_once():
    calls = {}

    class CountingGraph(L.Graph):
        def distance_layers(self, u):
            calls[u] = calls.get(u, 0) + 1
            return super().distance_layers(u)

    HS = L.hoffman_singleton()
    G = CountingGraph(HS.n, HS.edges)
    strategy = L.moore_strategy(G)  # checks the Moore property
    calls.clear()
    report = L.verify_strategy(G, strategy, 7)
    assert report.outcome == "captured" and report.classes_explored == 1513
    assert calls and set(calls.values()) == {1}


def test_verify_surfaces_unhandled_beliefs():
    class OpeningOnly:
        def decide(self, prev_class=None):
            if prev_class is None:
                return (0, 1), "init"  # two cops never resolve the Petersen graph
            raise L.UnhandledBeliefError(prev_class)

    P = L.petersen()
    report = L.verify_strategy(P, OpeningOnly(), 2)
    assert report.outcome == "evaded"
    assert report.reason.startswith("unhandled belief")


def test_verify_rejects_invalid_placements():
    class TooMany:
        def decide(self, prev_class=None):
            return (0, 1, 2, 3), "bad"

    with pytest.raises(ValueError):
        L.verify_strategy(L.petersen(), TooMany(), 3)


def test_verifier_agrees_with_solver_strategy():
    # a winning placement exists for 2 cops on C5; replay the solver's own
    # choice for the opening through the verifier
    C5 = L.cycle_graph(5)
    d = L.loc_decide(C5, 2)
    opening = d.strategy[mask(range(5))]
    report = L.verify_strategy(C5, L.ConstantStrategy(opening), 2)
    assert report.outcome == "captured"
    assert report.captured_max_rounds == 1


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    extra = draw(st.sets(st.sampled_from(list(combinations(range(n), 2)))))
    path = {(i, i + 1) for i in range(n - 1)}
    return L.Graph(n, sorted(path | extra))


@settings(max_examples=25, deadline=None)
@given(connected_graphs())
def test_full_placement_always_wins(G):
    d = L.loc_decide(G, G.n, budget=L.Budget(max_nodes=10**7))
    assert d.result == "cop-win"


@settings(max_examples=25, deadline=None)
@given(connected_graphs())
def test_spread_is_monotone(G):
    full = mask(range(G.n))
    assert game._spread(G.adj, full) == full
    half = mask(range(G.n // 2 + 1))
    assert game._spread(G.adj, half) & ~full == 0
    assert half & ~game._spread(G.adj, half) == 0
