"""Item game tests: schedules, best responses, the exact cost functional,
and the phased plan's guarantee."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purchase_games.engine import SlowTurns, UNOWNED, GameRules, generate_market, mix_seed, play
from purchase_games.item_game import (
    PhasedMaker,
    ThresholdSchedule,
    breaker_best_response,
    breaker_closed_form,
    cheap_grab_breaker,
    expected_cost,
    load_schedule,
    mimic_threshold_breaker,
    phase_plan,
    phased_maker_plan,
    save_schedule,
    single_threshold_maker,
)


# --------------------------------------------------------------------------
# Schedules
# --------------------------------------------------------------------------


def test_single_threshold_values():
    s = single_threshold_maker(3)
    assert np.allclose(s.values, [2.0 / 3.0, 1.0, 1.0])
    assert s.values[-1] == 1.0
    big = single_threshold_maker(500)
    assert big.values[-1] == 1.0
    assert np.all(np.diff(big.values) >= 0)  # nondecreasing


def test_best_response_spot_values():
    n = 1000
    br = breaker_best_response(single_threshold_maker(n))
    assert br.values[n - 1] == 0.0
    assert abs(br.values[n - 2] - 0.5) <= 1e-12
    # independent oracle: the best-response sum evaluated at i* = n-3 is
    # (2/((n-i)(n-i-1))) * sum_{i'>i} (n-i')/(n-i'+1) = (2/(3*2)) * (2/3+1/2+0)
    oracle = (2.0 / 6.0) * (2.0 / 3.0 + 1.0 / 2.0)
    assert abs(oracle - 7.0 / 18.0) < 1e-15
    assert abs(br.values[n - 4] - oracle) <= 1e-12


def test_closed_form_matches_best_response():
    n = 1000
    br = breaker_best_response(single_threshold_maker(n))
    cf = breaker_closed_form(n)
    assert np.max(np.abs(br.values - cf.values)) <= 1e-10
    assert abs(cf.values[n - 2] - 0.5) <= 1e-12
    assert abs(cf.values[n - 4] - 7.0 / 18.0) <= 1e-12


def test_breaker_dominated_by_maker_thresholds():
    for n in (2, 5, 50, 500):
        cf = breaker_closed_form(n)
        mk = single_threshold_maker(n)
        assert np.all(cf.values <= mk.values + 1e-15)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ThresholdSchedule(np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        ThresholdSchedule(np.array([-0.1]))


def test_schedule_refuses_a_nan_threshold():
    """A NaN threshold admits no item, so a NaN final threshold could leave
    Maker empty-handed; the constructor and ``load_schedule`` refuse it."""
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ThresholdSchedule(np.array([0.5, math.nan, 1.0]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        load_schedule(io.StringIO("0.5\nnan\n1.0\n"))


# --------------------------------------------------------------------------
# expected_cost
# --------------------------------------------------------------------------


def test_expected_cost_trivials():
    one = ThresholdSchedule(np.array([1.0]))
    zero = ThresholdSchedule(np.array([0.0]), role="breaker")
    assert expected_cost(zero, one) == 0.5
    two = ThresholdSchedule(np.array([1.0, 1.0]))
    zero2 = ThresholdSchedule(np.array([0.0, 0.0]), role="breaker")
    assert expected_cost(zero2, two) == 0.5


def test_expected_cost_length_mismatch():
    a = ThresholdSchedule(np.array([1.0]))
    b = ThresholdSchedule(np.array([0.0, 0.0]), role="breaker")
    with pytest.raises(ValueError):
        expected_cost(b, a)


def test_expected_cost_warns_when_breaker_exceeds_maker():
    m = ThresholdSchedule(np.array([0.2, 1.0]))
    b = ThresholdSchedule(np.array([0.5, 0.0]), role="breaker")
    with pytest.warns(UserWarning):
        expected_cost(b, m)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=60)
def test_expected_cost_n2_hand_formula(m1, b1):
    # For n=2 with m_2 = 1, b_2 = 0 the functional collapses to
    # (m1^2 - b1^2)/2 + (1 - m1)/2 + b1/2, derived by enumerating the three
    # disjoint events (maker takes 1; both pass to 2; breaker removed 1).
    b1 = min(b1, m1)  # stay in the b <= m regime the formula presumes
    m = ThresholdSchedule(np.array([m1, 1.0]))
    b = ThresholdSchedule(np.array([b1, 0.0]), role="breaker")
    hand = (m1 * m1 - b1 * b1) / 2.0 + (1.0 - m1) / 2.0 + b1 / 2.0
    assert expected_cost(b, m) == pytest.approx(hand, abs=1e-12)


def test_expected_cost_four_over_n():
    c = expected_cost(breaker_closed_form(2000), single_threshold_maker(2000))
    assert 3.5 <= 2000 * c <= 4.5


@pytest.mark.slow
def test_expected_cost_matches_engine_monte_carlo():
    n, trials = 60, 40_000
    maker = single_threshold_maker(n)
    breaker = breaker_closed_form(n)
    exact = expected_cost(breaker, maker)
    costs = np.empty(trials)
    for t in range(trials):
        seed = mix_seed(404, t)
        out = play(generate_market(n, seed), GameRules(b=1),
                   maker.strategy(), breaker.strategy())
        assert out.success
        costs[t] = out.maker_cost
    se = costs.std(ddof=1) / math.sqrt(trials)
    assert abs(costs.mean() - exact) <= 5 * se


# --------------------------------------------------------------------------
# cheap grab
# --------------------------------------------------------------------------


def test_cheap_grab_threshold_value():
    s = cheap_grab_breaker(100, 2)
    assert s.values == pytest.approx(0.01)
    with pytest.raises(ValueError):
        cheap_grab_breaker(100, 0)


@pytest.mark.slow
def test_cheap_grab_expected_count():
    # The expected number of items under the bar b/(2n) is b/2.
    n, b, trials = 500, 6, 4000
    counts = []
    for t in range(trials):
        m = generate_market(n, mix_seed(123, t))
        counts.append(int(np.count_nonzero(m.costs <= b / (2.0 * n))))
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1)) / math.sqrt(trials)
    assert abs(mean - b / 2.0) <= 5 * se


# --------------------------------------------------------------------------
# The phased plan
# --------------------------------------------------------------------------


def test_phased_plan_alpha():
    with pytest.warns(UserWarning):
        assert phased_maker_plan(1000, 1).alpha == 10.0
    with pytest.warns(UserWarning):
        assert phased_maker_plan(1000, 2).alpha == 20.0


def test_phased_plan_structure():
    n, b = 100_000, 4
    plan = phased_maker_plan(n, b)
    assert plan.phase_count == b + 1
    assert len(plan.ends) == b + 1
    for j in range(1, b + 2):
        t = plan.thresholds_for_phase(j)
        assert t[-1] == 1.0                       # forced final take
        assert np.all(np.diff(t) > 0)             # strictly increasing
        assert np.all((t > 0) & (t <= 1.0))


def test_phased_plan_rejects_b0():
    with pytest.raises(ValueError):
        phased_maker_plan(100, 0)


def test_phase_plans_are_memoised_and_read_only():
    plan = phase_plan(5000, 3)
    assert phase_plan(5000, 3) is plan
    assert phase_plan(5000, 4) is not plan
    with pytest.raises(ValueError):
        plan.position_thresholds[0] = 0.5
    with pytest.raises(ValueError):
        plan.ends[0] = 1


def test_memoised_plan_still_warns_on_every_call():
    for _ in range(2):
        with pytest.warns(UserWarning, match="cost guarantee degrades"):
            plan = phased_maker_plan(900, 8)
        assert plan is phase_plan(900, 8)


def test_phased_maker_one_attempt_per_phase():
    # Under any breaker, the phased maker attempts at most one item per
    # phase; with an always-taking breaker, pre-empted attempts still consume
    # the phase.
    n, b = 2000, 3
    plan = phased_maker_plan(n, b)
    for t in range(20):
        seed = mix_seed(77, t)
        out = play(generate_market(n, seed), GameRules(b=b),
                   PhasedMaker(plan), cheap_grab_breaker(n, b))
        assert out.success
        assert len(out.maker_positions) == 1
        phases = [plan.phase_of(p) for p in out.maker_positions]
        assert len(phases) == len(set(phases))


def test_phased_maker_attempt_consumed_by_preemption():
    # Build a tiny market where the breaker owns the first sub-threshold item
    # of phase 1: the maker must skip to phase 2 rather than take the next
    # cheap item in phase 1.
    n, b = 10, 1
    plan = phased_maker_plan(n, b)
    maker = PhasedMaker(plan)
    market = generate_market(n, 1)
    # Breaker takes exactly the maker's first candidate.
    thresholds = plan.position_thresholds
    first_cand = next(p for p in range(1, 6) if market.costs[p - 1] <= thresholds[p - 1])

    class TakeAt(SlowTurns):
        def __init__(self, pos):
            self.pos = pos
            self.inner = None

        def prepare(self, market):
            pass

        def begin(self, view):
            pass

        def decide(self, view, item):
            return item.position == self.pos and item.owner == UNOWNED

    out = play(market, GameRules(b=b), maker, TakeAt(first_cand))
    assert out.breaker_positions == (first_cand,)
    assert out.success
    assert plan.phase_of(out.M) >= 2  # the attempt in phase 1 was consumed


def test_phased_always_succeeds_small():
    n, b = 900, 8
    with pytest.warns(UserWarning):
        plan = phased_maker_plan(n, b)
    for t in range(100):
        seed = mix_seed(3131, t)
        out = play(generate_market(n, seed), GameRules(b=b),
                   PhasedMaker(plan), cheap_grab_breaker(n, b))
        assert out.success


def test_fast_and_slow_paths_identical():
    n = 300
    maker_s = single_threshold_maker(n)
    breaker_s = breaker_closed_form(n)
    plan = phased_maker_plan(n, 2)
    for t in range(40):
        seed = mix_seed(911, t)
        o1 = play(generate_market(n, seed), GameRules(b=1),
                  maker_s.strategy(), breaker_s.strategy())
        o2 = play(generate_market(n, seed), GameRules(b=1),
                  SlowTurns(maker_s.strategy()), SlowTurns(breaker_s.strategy()))
        assert o1 == o2
        o3 = play(generate_market(n, seed), GameRules(b=2),
                  PhasedMaker(plan), cheap_grab_breaker(n, 2))
        o4 = play(generate_market(n, seed), GameRules(b=2),
                  SlowTurns(PhasedMaker(plan)), SlowTurns(cheap_grab_breaker(n, 2)))
        assert o3 == o4


def test_mimic_breaker_steals_maker_candidates():
    n = 200
    maker_s = single_threshold_maker(n)
    out = play(generate_market(n, 5), GameRules(b=1),
               maker_s.strategy(), mimic_threshold_breaker(maker_s))
    assert out.success
    # the breaker's single removal is the first item the maker wanted
    if out.breaker_positions:
        assert out.breaker_positions[0] < out.M or out.M < out.breaker_positions[0]


# --------------------------------------------------------------------------
# Schedule text I/O
# --------------------------------------------------------------------------


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
@settings(max_examples=40)
def test_schedule_roundtrip(values):
    sched = ThresholdSchedule(np.asarray(values))
    buf = io.StringIO()
    save_schedule(buf, sched)
    back = load_schedule(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.values, sched.values)


def test_schedule_file_roundtrip(tmp_path):
    sched = single_threshold_maker(17)
    for path in (str(tmp_path / "as_str.txt"), tmp_path / "as_path.txt"):
        save_schedule(path, sched)
        back = load_schedule(path)
        assert np.array_equal(back.values, sched.values)


@pytest.mark.slow
def test_cheap_grab_lower_bound_against_other_makers():
    # Any maker pays at least ~b/(8n) on average once the cheap-grab breaker
    # has swept the floor (the argument gives b/(4n)-scale in expectation).
    n, b, trials = 1000, 10, 3000
    grab_mean = 0.0
    for t in range(trials):
        seed = mix_seed(606, t)
        out = play(generate_market(n, seed), GameRules(b=b),
                   single_threshold_maker(n).strategy(), cheap_grab_breaker(n, b))
        assert out.success
        grab_mean += out.maker_cost
    grab_mean /= trials
    assert grab_mean >= b / (8.0 * n)


def test_phased_thresholds_match_formula_exactly():
    n, b = 1234, 3
    plan = phased_maker_plan(n, b)
    bigN = n / (b + 1)
    alpha = plan.alpha
    for j in range(1, b + 2):
        t = plan.thresholds_for_phase(j)
        for i in range(1, len(t)):  # all but the clamped last entry
            assert t[i - 1] == min(1.0, alpha / (bigN + alpha - i))
        assert t[-1] == 1.0
