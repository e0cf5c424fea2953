"""Path game tests: plan arithmetic, tree growth invariants, and the
desk-scale override runs."""

import numpy as np
import pytest
from conftest import SMALL_WINDOW

from purchase_games.engine import (
    BREAKER,
    UNOWNED,
    EdgeLabels,
    GameRules,
    Market,
    NeverTake,
    SlowTurns,
    Strategy,
    generate_market,
    mix_seed,
    play,
)
from purchase_games.item_game import cheap_grab_breaker
from purchase_games.path_game import (
    PathGoal,
    PathMaker,
    path_maker,
    path_plan,
)
from purchase_games.verify import has_path


def _rules(b, plan):
    return GameRules(b=b, phase_count=plan.phase_count, goal=lambda: PathGoal(0, 1))


# --------------------------------------------------------------------------
# Plans
# --------------------------------------------------------------------------


def test_plan_default_k():
    plan = path_plan(10_000, 1)
    assert plan.k == 3  # ceil(ln ln 1e4) = ceil(2.22)
    assert plan.p_edge == pytest.approx((10_000.0) ** (-8.0 / 9.0))
    assert plan.degenerate  # desk scale cannot reach the asymptotic regime


def test_plan_degenerate_flag():
    plan = path_plan(5000, 1, k_override=2)
    assert plan.degenerate
    assert 5000 ** (1.0 / 6.0) / 6.0 < 1.0  # n p / 3k < 1 at these values


def test_plan_warns_without_override_when_degenerate():
    with pytest.warns(UserWarning, match="asymptotic regime unreachable"):
        path_plan(10_000, 1)


def test_degenerate_plan_refuses_strategy():
    plan = path_plan(10_000, 1)
    with pytest.raises(ValueError, match="asymptotic regime unreachable"):
        PathMaker(plan, 0, 1)


def test_plan_growth_threshold_guard():
    # (b+1) p > 1 fails construction outright.
    with pytest.raises(ValueError, match="quota too large"):
        path_plan(100, 30, k_override=1)


def test_plan_dump_echoes_overrides():
    plan = path_plan(2000, 1, k_override=1, threshold_scale=20.0)
    text = plan.dump_text()
    assert "k_overridden: True" in text
    assert "threshold_scale: 20" in text
    assert not plan.degenerate


def test_plan_targets_increase_when_branching_exceeds_one():
    plan = path_plan(4000, 1, k_override=2, threshold_scale=1.0)
    if plan.branching > 1:
        assert np.all(np.diff(plan.tree_targets) > 0)


# --------------------------------------------------------------------------
# Strategy runs
# --------------------------------------------------------------------------


def _desk_plan(n=800, b=1, scale=20.0):
    return path_plan(n, b, k_override=1, threshold_scale=scale)


def test_desk_run_succeeds_and_path_verified():
    n, b = 800, 1
    plan = _desk_plan(n, b)
    E = plan.edge_count
    wins = 0
    for t in range(25):
        seed = mix_seed(4001, t)
        market = generate_market(E, seed, EdgeLabels(n))
        out = play(market, _rules(b, plan), path_maker(plan, 0, 1),
                   cheap_grab_breaker(E, b))
        if out.success:
            wins += 1
            assert has_path(out.maker_items, 0, 1)
    assert wins >= 18


def test_tree_invariants_after_game():
    n, b = 800, 1
    plan = _desk_plan(n, b)
    E = plan.edge_count
    for t in range(10):
        seed = mix_seed(4002, t)
        market = generate_market(E, seed, EdgeLabels(n))
        maker = path_maker(plan, 0, 1)
        out = play(market, _rules(b, plan), maker, cheap_grab_breaker(E, b))
        trees = maker.trees
        maker_edges = set(out.maker_items)
        for parent_map, root in ((trees.parent_t, 0), (trees.parent_tp, 1)):
            # every tree edge is maker-owned and reaches the root acyclically
            for child, parent in parent_map.items():
                e = (min(child, parent), max(child, parent))
                assert e in maker_edges
                seen = {child}
                node = parent
                while node != root:
                    assert node not in seen  # acyclic
                    seen.add(node)
                    node = parent_map[node]


def test_growth_edges_touch_exactly_one_tree_vertex():
    n, b = 800, 1
    plan = _desk_plan(n, b)
    E = plan.edge_count
    seed = mix_seed(4003, 0)
    market = generate_market(E, seed, EdgeLabels(n))
    maker = path_maker(plan, 0, 1)
    out = play(market, _rules(b, plan), maker, cheap_grab_breaker(E, b))
    # replay the construction from the purchase order
    in_t = {0}
    in_tp = {1}
    for p in out.maker_positions:
        u, v = market.label(p)
        phase = int(np.searchsorted(plan.ends, p)) + 1
        if phase <= plan.k:
            assert (u in in_t) != (v in in_t)
            in_t.add(u)
            in_t.add(v)
        elif phase <= 2 * plan.k:
            assert (u in in_tp) != (v in in_tp)
            in_tp.add(u)
            in_tp.add(v)
        else:
            assert (u in in_t and v in in_tp) or (v in in_t and u in in_tp)


def test_growth_phase_spend_bound():
    # Total spent in growth phases is at most |V(T)| * growth_threshold for
    # each tree (each purchase adds one vertex and costs at most the bar).
    n, b = 800, 1
    plan = _desk_plan(n, b)
    E = plan.edge_count
    for t in range(10):
        seed = mix_seed(4004, t)
        market = generate_market(E, seed, EdgeLabels(n))
        maker = path_maker(plan, 0, 1)
        out = play(market, _rules(b, plan), maker, cheap_grab_breaker(E, b))
        grow_end = plan.phase_end(2 * plan.k)
        spend = sum(market.costs[p - 1] for p in out.maker_positions if p <= grow_end)
        t_size = len(maker.trees.parent_t) + 1
        tp_size = len(maker.trees.parent_tp) + 1
        assert spend <= (t_size + tp_size) * plan.growth_threshold + 1e-12


def test_intersecting_trees_win_without_connecting_edge():
    # Hand-built market: T takes (0,2), then T' takes (1,2); vertex 2 is in
    # both trees, so the goal fires before any connect-phase purchase.
    import dataclasses

    n = 6
    uni = EdgeLabels(n)
    E = uni.size  # 15, phases of 5 at k=1
    plan = path_plan(n, 1, k_override=1, threshold_scale=1.0)
    plan = dataclasses.replace(plan, int_targets=np.array([1]),
                               tree_targets=np.array([1.5]), degenerate=False,
                               growth_threshold=0.01)
    assert plan.phase_count == 3 and plan.int_targets.tolist() == [1]
    ranks = {uni.label_of_rank(r): r for r in range(E)}
    order = [(0, 2)] + [e for e in ranks if e not in {(0, 2), (1, 2)}][:4]
    order += [(1, 2)]
    order += [e for e in ranks if e not in set(order)]
    perm = np.array([ranks[e] for e in order])
    costs = np.full(E, 0.99)
    costs[0] = 0.001   # (0,2): cheap growth edge for T in phase 1
    costs[5] = 0.001   # (1,2): cheap growth edge for T' in phase 2
    market = Market(E, costs, uni, seed=None, perm=perm)
    maker = path_maker(plan, 0, 1)
    out = play(market, _rules(0, plan), maker, NeverTake())
    assert out.success
    assert len(out.maker_positions) == 2  # no connecting purchase needed
    assert has_path(out.maker_items, 0, 1)


def test_failure_reports_phase():
    # A threshold scale so tiny that no growth edge ever qualifies: the first
    # growth phase falls short and the failure names it.
    starved = path_plan(800, 1, k_override=1, threshold_scale=1e-9)
    maker = path_maker(starved, 0, 1)
    market = generate_market(starved.edge_count, 9, EdgeLabels(800))
    out = play(market, _rules(1, starved), maker, NeverTake())
    assert not out.success
    assert out.failure_phase == 1  # first growth phase fell short


class TerminalBreaker(Strategy):
    """Takes every unowned edge at a terminal, so it owns edges the path
    Maker's trees would grow by."""

    def decide(self, view, item):
        return item.owner == UNOWNED and item.label[0] <= 1


class CountingPathMaker(PathMaker):
    """Counts the Breaker-owned items its ``decide`` is offered."""

    preempted = 0

    def decide(self, view, item):
        self.preempted += item.owner == BREAKER
        return super().decide(view, item)


@pytest.mark.parametrize("n, breaker, min_preempted, first_window", [
    (500, cheap_grab_breaker, 0, None),
    (200, lambda E, b: TerminalBreaker(), 1, None),
    (500, cheap_grab_breaker, 0, SMALL_WINDOW),
    (200, lambda E, b: TerminalBreaker(), 1, SMALL_WINDOW),
], ids=["cheap_grab", "terminal", "cheap_grab-small-window", "terminal-small-window"],
   indirect=["first_window"])
def test_fast_equals_slow(n, breaker, min_preempted, first_window):
    b = 1
    plan = path_plan(n, b, k_override=1, threshold_scale=20.0)
    E = plan.edge_count
    preempted = 0
    for t in range(8):
        seed = mix_seed(4005, t)
        fast = CountingPathMaker(plan, 0, 1)
        o1 = play(generate_market(E, seed, EdgeLabels(n)), _rules(b, plan),
                  fast, breaker(E, b))
        o2 = play(generate_market(E, seed, EdgeLabels(n)), _rules(b, plan),
                  SlowTurns(path_maker(plan, 0, 1)),
                  SlowTurns(breaker(E, b)))
        assert o1 == o2
        preempted += fast.preempted
    assert preempted >= min_preempted
