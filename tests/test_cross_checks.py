"""Cross-module dual-route checks: every formula validated by an independent
computation path (grid enumeration, engine Monte Carlo, or both)."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purchase_games import harness
from purchase_games.engine import (GameRules, IndexLabels, Market, ScheduleStrategy, SlowTurns,
                                   generate_market, mix_seed, play)
from purchase_games.item_game import PhasedMaker, ThresholdSchedule, expected_cost, phase_plan
from purchase_games.oracle import eval_schedules_on_grid, grid_points, item_b0_dp


@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_expected_cost_agrees_with_grid_enumeration(pairs):
    # Random threshold schedules with b <= m pointwise and a forced final
    # take: the closed-form functional must agree with the sequential grid
    # enumerator once the grid is fine enough.
    n = len(pairs)
    m = np.array([max(mi, bi) for mi, bi in pairs])
    b = np.array([min(mi, bi) for mi, bi in pairs])
    m[-1] = 1.0
    b[-1] = 0.0
    exact = expected_cost(ThresholdSchedule(b, role="breaker"), ThresholdSchedule(m))
    # Snap thresholds onto grid boundaries t/g so atom classes are exact,
    # then both computations integrate the same step function.
    g = 64
    m_snap = np.round(m * g) / g
    b_snap = np.minimum(np.round(b * g) / g, m_snap)
    m_snap[-1] = 1.0
    exact_snap = expected_cost(ThresholdSchedule(b_snap, role="breaker"),
                               ThresholdSchedule(m_snap))
    grid_val = eval_schedules_on_grid(n, g, b_snap, m_snap)
    assert grid_val == pytest.approx(exact_snap, abs=1e-9)
    # and the unsnapped value is close for a fine grid
    assert abs(exact - exact_snap) < 0.1


def test_item_kernel_equals_the_grid_enumerator_exactly():
    """The bulk item kernel, ``harness._maker_takes`` at quota 1, over all
    g**n markets whose costs are grid midpoints, gives the mean cost that
    ``eval_schedules_on_grid`` computes, for 40 random schedule pairs with
    n, g <= 5.  The thresholds are grid midpoints too, so costs tie with
    them, and a strict comparison on either player's line fails."""
    rng = np.random.default_rng(10)
    for _ in range(40):
        n, g = (int(x) for x in rng.integers(1, 6, size=2))
        grid = np.array(grid_points(g))
        s, t = rng.choice(grid, size=(2, n))
        costs = grid[np.array(list(itertools.product(range(g), repeat=n)))]
        met, at = harness._maker_takes(costs, t, s, np.ones(len(costs), dtype=np.int64),
                                       None, None)
        mean = np.where(met, costs[np.arange(len(costs)), at], 0.0).mean()
        assert abs(mean - eval_schedules_on_grid(n, g, s, t)) <= 1e-12, (n, g, s, t)


def test_play_equals_the_grid_enumerator_exactly():
    """``play`` at quota 1, over all g**n markets whose costs are grid
    midpoints, with Maker and Breaker each a per-position
    ``ScheduleStrategy``, gives the mean cost that
    ``eval_schedules_on_grid`` computes, for 40 random schedule pairs with
    n, g <= 5; so does the per-item route, with both wrapped in SlowTurns.
    The thresholds are grid midpoints, so costs tie with them."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        n, g = (int(x) for x in rng.integers(1, 6, size=2))
        grid = np.array(grid_points(g))
        s, t = rng.choice(grid, size=(2, n))
        exact = eval_schedules_on_grid(n, g, s, t)
        markets = [Market(n, grid[np.array(cells)], IndexLabels(n), seed=0)
                   for cells in itertools.product(range(g), repeat=n)]
        for route, wrap in (("fast", lambda strategy: strategy), ("slow", SlowTurns)):
            mean = math.fsum(
                play(market, GameRules(b=1), wrap(ScheduleStrategy(t)),
                     wrap(ScheduleStrategy(s))).maker_cost for market in markets) / len(markets)
            assert abs(mean - exact) <= 1e-12, (n, g, s, t, route)


def test_phased_kernel_equals_play_on_every_grid_market():
    """The bulk item kernel with phase ends, ``harness._maker_takes`` with
    ``ends``, and ``play`` with a ``PhasedMaker`` against a threshold
    Breaker agree on success and on Maker's position, on the fast and the
    per-item route, over all g**n markets whose costs are grid midpoints,
    for n = 2..5, g in {2, 3}, quota b in {1, 2} with b + 1 <= n, and four
    Breaker thresholds."""
    games = 0
    for n, g, b in itertools.product(range(2, 6), (2, 3), (1, 2)):
        if b + 1 > n:
            continue
        plan = phase_plan(n, b)
        grid = np.array(grid_points(g))
        costs = grid[np.array(list(itertools.product(range(g), repeat=n)))]
        markets = [Market(n, row, IndexLabels(n), seed=0) for row in costs]
        for s in (0.3, 0.6, 0.9, 1.0):
            met, at = harness._maker_takes(costs, plan.position_thresholds, s,
                                           np.full(len(costs), b), plan.ends - 1,
                                           np.full(len(costs), -1))
            kernel = [(bool(m), int(a) + 1 if m else None) for m, a in zip(met, at)]
            for wrap in (lambda strategy: strategy, SlowTurns):
                for market, want in zip(markets, kernel):
                    out = play(market, GameRules(b=b), wrap(PhasedMaker(plan)),
                               wrap(ScheduleStrategy(s)))
                    got = (out.success, out.maker_positions[0] if out.success else None)
                    assert got == want, (n, g, b, s, market.costs)
                    games += 1
    assert games == 6616


@pytest.mark.slow
def test_engine_monte_carlo_matches_formula_random_schedules():
    rng = np.random.default_rng(2024)
    n, trials = 40, 30_000
    for _ in range(3):
        m = np.sort(rng.random(n))
        m[-1] = 1.0
        b = m * rng.random(n)
        maker = ThresholdSchedule(m)
        breaker = ThresholdSchedule(b, role="breaker")
        exact = expected_cost(breaker, maker)
        costs = np.empty(trials)
        for t in range(trials):
            out = play(generate_market(n, mix_seed(777, t)), GameRules(b=1),
                       maker.strategy(), breaker.strategy())
            costs[t] = out.maker_cost
        se = costs.std(ddof=1) / math.sqrt(trials)
        assert abs(costs.mean() - exact) <= 5 * se


@pytest.mark.slow
def test_stopping_dp_drives_engine_to_its_own_value():
    # The DP's thresholds, played through the engine at b=0, must realize the
    # DP's value: two fully independent implementations of the same game.
    n, trials = 100, 40_000
    dp = item_b0_dp(n)
    maker = dp.strategy()
    from purchase_games.engine import NeverTake

    costs = np.empty(trials)
    for t in range(trials):
        out = play(generate_market(n, mix_seed(888, t)), GameRules(b=0),
                   dp.strategy(), NeverTake())
        assert out.success
        costs[t] = out.maker_cost
    se = costs.std(ddof=1) / math.sqrt(trials)
    assert abs(costs.mean() - dp.value) <= 5 * se
