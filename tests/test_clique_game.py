"""Clique game tests: plan identities, matching extraction, the triangle and
k-clique strategies with in-trace legality checks."""

import math
import tracemalloc

import numpy as np
import pytest

from purchase_games.clique_game import (
    CliqueGoal,
    TriangleMaker,
    alpha_k,
    clique_plan,
    extract_matching,
    kclique_maker,
    plan_mimic_breaker,
    triangle_maker_unrestricted,
    triangle_mimic_breaker,
)
from purchase_games.engine import (
    BREAKER,
    UNOWNED,
    EdgeLabels,
    GameRules,
    NeverTake,
    RandomStrategy,
    SlowTurns,
    Strategy,
    generate_market,
    mix_seed,
    play,
)
from purchase_games.item_game import cheap_grab_breaker
from purchase_games.verify import contains_clique


def _edge_rules(b, phases, k):
    return GameRules(b=b, phase_count=phases, goal=lambda: CliqueGoal(k))


# --------------------------------------------------------------------------
# Exponents and plans
# --------------------------------------------------------------------------


def test_alpha_k_values():
    assert alpha_k(3) == pytest.approx(4.0 / 7.0)
    assert alpha_k(4) == pytest.approx(2.0 / 9.0)
    assert alpha_k(5) == pytest.approx(1.0 / 10.0)
    with pytest.raises(ValueError):
        alpha_k(2)


def test_plan_identities_small_grid():
    for k in (3, 4, 6, 10):
        for n in (1000, 100_000):
            plan = clique_plan(n, 1, k)
            nest, closing = plan.identity_residuals()
            assert nest <= 1e-12 and closing <= 1e-12
            assert plan.ells[0] == pytest.approx(n)


def test_plan_k3_degeneration():
    plan = clique_plan(5000, 2, 3)
    assert len(plan.ells) == 1
    assert plan.ell == pytest.approx(5000)
    assert plan.r == pytest.approx(5000.0 ** (-4.0 / 7.0))
    assert len(plan.star_thresholds) == 0


def test_plan_k4_ell1_sqrt():
    n = 100_000
    plan = clique_plan(n, 1, 4)
    assert plan.ells[1] == pytest.approx(math.sqrt(plan.r * n))


def test_plan_dump_and_report():
    plan = clique_plan(2000, 1, 4)
    text = plan.dump_text()
    for key in ("k:", "n:", "b:", "alpha_k:", "r:", "ells:", "star_thresholds:"):
        assert key in text
    report = plan.feasibility_report()
    assert "targets_feasible" in report


# --------------------------------------------------------------------------
# Matching extraction
# --------------------------------------------------------------------------


def test_matching_disjoint_input():
    edges = [(0, 1), (2, 3), (4, 5)]
    assert extract_matching(edges) == edges


def test_matching_star_conflict():
    assert extract_matching([(0, 1), (0, 2), (0, 3)]) == [(0, 1)]


def test_matching_output_is_matching_and_greedy_maximal():
    rng = np.random.default_rng(5)
    for _ in range(50):
        edges = [tuple(sorted(rng.choice(40, size=2, replace=False).tolist()))
                 for _ in range(60)]
        matched = extract_matching(edges)
        used = [v for e in matched for v in e]
        assert len(used) == len(set(used))
        matched_set = set(matched)
        for e in edges:
            if e not in matched_set:
                assert any(v in used for v in e)  # blocked by an earlier pick


@pytest.mark.slow
def test_matching_size_at_desk_scale():
    # 2 ell^(5/7) random low-cost edges on ell vertices usually contain a
    # matching of ell^(5/7) edges.
    ell = 3000
    target = math.ceil(ell ** (5.0 / 7.0))
    good = 0
    trials = 40
    rng = np.random.default_rng(99)
    for _ in range(trials):
        edges = []
        while len(edges) < 2 * target:
            u, v = rng.choice(ell, size=2, replace=False)
            edges.append((min(u, v), max(u, v)))
        if len(extract_matching(edges)) >= target:
            good += 1
    assert good >= 0.95 * trials


# --------------------------------------------------------------------------
# Goal detection
# --------------------------------------------------------------------------


def test_clique_goal_matches_brute_force():
    rng = np.random.default_rng(3)
    for k in (3, 4):
        for _ in range(40):
            goal = CliqueGoal(k)
            edges = []
            fired_at = None
            for _ in range(25):
                u, v = sorted(rng.choice(8, size=2, replace=False).tolist())
                if (u, v) in edges:
                    continue
                edges.append((u, v))
                if goal.on_maker_take((u, v)) and fired_at is None:
                    fired_at = len(edges)
            has = contains_clique(edges, k)
            assert (fired_at is not None) == has
            if fired_at is not None:
                assert contains_clique(edges[:fired_at], k)
                assert not contains_clique(edges[:fired_at - 1], k)


# --------------------------------------------------------------------------
# Triangle strategy
# --------------------------------------------------------------------------


def test_triangle_small_monte_carlo():
    n, b = 100, 1
    E = n * (n - 1) // 2
    wins = 0
    for t in range(30):
        seed = mix_seed(7001, t)
        market = generate_market(E, seed, EdgeLabels(n))
        out = play(market, _edge_rules(b, 1, 3),
                   triangle_maker_unrestricted(n, b),
                   triangle_mimic_breaker(n, b))
        if out.success:
            wins += 1
            assert contains_clique(out.maker_items, 3)
    assert wins >= 24


def test_triangle_b0_still_works():
    # The closing bar uses (b+1), so b=0 keeps a usable threshold.
    maker = triangle_maker_unrestricted(200, 0)
    assert maker.close_threshold > 0
    market = generate_market(200 * 199 // 2, 8, EdgeLabels(200))
    out = play(market, _edge_rules(0, 1, 3), maker, NeverTake())
    assert out.success


def test_triangle_take_legality():
    n, b = 120, 1
    E = n * (n - 1) // 2
    market = generate_market(E, 17, EdgeLabels(n))
    maker = triangle_maker_unrestricted(n, b)
    out = play(market, _edge_rules(b, 1, 3), maker, cheap_grab_breaker(E, b))
    assert out.success
    half = maker.half
    root = maker.root
    star = [p for p in out.maker_positions if p <= half]
    closing = [p for p in out.maker_positions if p > half]
    leaves = set()
    for p in star:
        u, v = market.label(p)
        assert root in (u, v)
        assert market.costs[p - 1] <= maker.star_threshold
        leaves.add(v if u == root else u)
    assert len(closing) == 1
    u, v = market.label(closing[0])
    assert u in leaves and v in leaves
    assert market.costs[closing[0] - 1] <= maker.close_threshold


def test_triangle_star_shortfall_reports_failure():
    # An absurd quota-free market where no root edge is cheap enough: force
    # failure by shrinking the threshold via tiny n... instead, use a maker
    # whose star target cannot be met because the breaker owns everything
    # cheap at the root.
    n = 40
    E = n * (n - 1) // 2
    maker = TriangleMaker(n, 0)
    maker.star_threshold = 0.0  # nothing qualifies
    market = generate_market(E, 3, EdgeLabels(n))
    out = play(market, _edge_rules(0, 1, 3), maker, NeverTake())
    assert not out.success
    assert out.failure_phase == "star"


# --------------------------------------------------------------------------
# k-clique strategy
# --------------------------------------------------------------------------


def test_kclique_k3_small():
    n, b, k = 400, 1, 3
    E = n * (n - 1) // 2
    plan = clique_plan(n, b, k)
    wins = 0
    for t in range(20):
        seed = mix_seed(8002, t)
        market = generate_market(E, seed, EdgeLabels(n))
        out = play(market, _edge_rules(b, k, k), kclique_maker(plan),
                   plan_mimic_breaker(plan))
        if out.success:
            wins += 1
            assert contains_clique(out.maker_items, 3)
    assert wins >= 12


def test_kclique_k4_runs_star_phases():
    # Small n with k=4 will usually fail a target, but the star phases must
    # execute legally and the failure phase must be reported.
    n, b, k = 120, 1, 4
    E = n * (n - 1) // 2
    plan = clique_plan(n, b, k)
    market = generate_market(E, 5, EdgeLabels(n))
    maker = kclique_maker(plan)
    out = play(market, _edge_rules(b, k, k), maker, NeverTake())
    if not out.success:
        assert out.failure_phase is not None
    # every take satisfied its phase threshold and structure
    for p in out.maker_positions:
        phase = int(np.searchsorted(plan.ends, p)) + 1
        u, v = market.label(p)
        if phase <= k - 3:
            assert market.costs[p - 1] <= plan.star_thresholds[phase - 1]
            assert maker.progress.roots[phase - 1] in (u, v)
        elif phase == k - 2:
            assert market.costs[p - 1] <= plan.matching_threshold


def test_kclique_closing_freshness_invariant():
    # Every registered closing edge was unrevealed at registration time.
    n, b, k = 400, 1, 3
    E = n * (n - 1) // 2
    plan = clique_plan(n, b, k)
    for t in range(10):
        seed = mix_seed(9003, t)
        market = generate_market(E, seed, EdgeLabels(n))
        maker = kclique_maker(plan)
        play(market, _edge_rules(b, k, k), maker, plan_mimic_breaker(plan))
        for _edge, _closing, closing_pos, frontier in maker.progress.extensions:
            assert closing_pos > frontier


def test_kclique_fast_equals_slow():
    n, b, k = 300, 1, 3
    E = n * (n - 1) // 2
    plan = clique_plan(n, b, k)
    for t in range(8):
        seed = mix_seed(1104, t)
        o1 = play(generate_market(E, seed, EdgeLabels(n)), _edge_rules(b, k, k),
                  kclique_maker(plan), plan_mimic_breaker(plan))
        o2 = play(generate_market(E, seed, EdgeLabels(n)), _edge_rules(b, k, k),
                  SlowTurns(kclique_maker(plan)), SlowTurns(plan_mimic_breaker(plan)))
        assert o1 == o2


class TerminalBreaker(Strategy):
    """Takes every unowned edge at vertex 0 or 1, the star root's edges
    among them."""

    def decide(self, view, item):
        return item.owner == UNOWNED and item.label[0] <= 1


class CountingTriangleMaker(TriangleMaker):
    """Counts the Breaker-owned items its ``decide`` is offered."""

    preempted = 0

    def decide(self, view, item):
        self.preempted += item.owner == BREAKER
        return super().decide(view, item)


@pytest.mark.parametrize("breaker, min_preempted", [
    (triangle_mimic_breaker, 0),
    (lambda n, b: TerminalBreaker(), 1),
], ids=["mimic", "terminal"])
def test_triangle_fast_equals_slow(breaker, min_preempted):
    n, b = 80, 2
    E = n * (n - 1) // 2
    preempted = 0
    for t in range(8):
        seed = mix_seed(1105, t)
        fast = CountingTriangleMaker(n, b)
        o1 = play(generate_market(E, seed, EdgeLabels(n)), _edge_rules(b, 1, 3),
                  fast, breaker(n, b))
        o2 = play(generate_market(E, seed, EdgeLabels(n)), _edge_rules(b, 1, 3),
                  SlowTurns(triangle_maker_unrestricted(n, b)),
                  SlowTurns(breaker(n, b)))
        assert o1 == o2
        preempted += fast.preempted
    assert preempted >= min_preempted


def test_kclique_fast_equals_slow_with_random_breaker():
    n, b, k = 200, 2, 4
    E = n * (n - 1) // 2
    plan = clique_plan(n, b, k)
    for t in range(6):
        seed = mix_seed(1106, t)
        o1 = play(generate_market(E, seed, EdgeLabels(n)), _edge_rules(b, k, k),
                  kclique_maker(plan), RandomStrategy(0.02, seed + 5))
        o2 = play(generate_market(E, seed, EdgeLabels(n)), _edge_rules(b, k, k),
                  SlowTurns(kclique_maker(plan)), RandomStrategy(0.02, seed + 5))
        assert o1 == o2


def test_triangle_game_memory_stays_below_two_stream_arrays():
    """Building the mimic Breaker and playing one triangle game, the
    permutation included, allocates less than two 8-byte arrays of the
    stream plus the owner array: no stage or schedule is stream-sized."""
    n, b = 600, 3
    N = n * (n - 1) // 2
    for seed in range(2):
        market = generate_market(N, seed, EdgeLabels(n))
        tracemalloc.start()
        try:
            out = play(market, GameRules(b=b, goal=lambda: CliqueGoal(3)),
                       TriangleMaker(n, b), triangle_mimic_breaker(n, b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.success, seed  # so it built its closing stage
        assert peak < 2 * N * 8 + N * np.dtype(np.int8).itemsize, (seed, peak)
