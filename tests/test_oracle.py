"""Oracle tests: the stopping DP, the discretized exact item game, and the
box-game minimax, including the cross-checks between them."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from purchase_games.item_game import (
    breaker_closed_form,
    expected_cost,
    single_threshold_maker,
)
from purchase_games.oracle import (
    box_minimax,
    eval_schedules_on_grid,
    grid_points,
    item_b0_dp,
    item_discrete_minimax,
    oracle_json_record,
)


# --------------------------------------------------------------------------
# Optimal stopping DP
# --------------------------------------------------------------------------


def test_dp_terminal_values():
    dp = item_b0_dp(12)
    assert dp.v[-1] == 0.5
    assert dp.v[-2] == 0.375  # one backward step: 1/2 - 1/8


def _dp_recursion(n):
    """Reference: the backward recursion for v on numpy scalars, run from
    v_n = 1/2 for this n alone."""
    v = np.empty(n)
    v[n - 1] = 0.5
    for i in range(n - 2, -1, -1):
        nxt = v[i + 1]
        v[i] = nxt - nxt * nxt / 2.0
    return v


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 10_000])
def test_dp_matches_the_numpy_scalar_recursion_bit_for_bit(n):
    dp = item_b0_dp(n)
    assert dp.v.dtype == np.float64 and dp.v.shape == (n,)
    assert dp.v.tobytes() == _dp_recursion(n).tobytes()


def test_dp_table_matches_the_recursion_in_any_call_order():
    # Non-monotone, so the shared table is both extended and sliced short.
    for n in (5, 1, 3000, 2, 10_000, 777, 10_001):
        assert item_b0_dp(n).v.tobytes() == _dp_recursion(n).tobytes(), n


def test_dp_returns_a_copy_of_the_table():
    first = item_b0_dp(40)
    first.v[:] = -1.0
    assert item_b0_dp(40).v.tobytes() == _dp_recursion(40).tobytes()


def test_dp_rejects_an_empty_stream():
    with pytest.raises(ValueError):
        item_b0_dp(0)


def test_dp_strictly_increasing_in_position():
    dp = item_b0_dp(300)
    assert np.all(np.diff(dp.v) > 0)


def test_dp_value_scales_like_two_over_n():
    dp = item_b0_dp(10_000)
    assert 1.95 <= 10_000 * dp.value <= 2.05
    # closed-form approximation v_1 ~ 2/(n+3)
    assert dp.value == pytest.approx(2.0 / (10_000 + 3), rel=5e-3)


def test_dp_trend_monotone_from_below():
    scaled = [n * item_b0_dp(n).value for n in (10, 100, 1000, 10_000)]
    assert all(a < b for a, b in zip(scaled, scaled[1:]))
    assert all(s < 2.0 for s in scaled)


def test_dp_thresholds_drive_a_maker():
    dp = item_b0_dp(50)
    t = dp.thresholds
    assert t[-1] == 1.0
    assert np.array_equal(t[:-1], dp.v[1:])


# --------------------------------------------------------------------------
# Discretized exact item game
# --------------------------------------------------------------------------


def test_grid_points_are_midpoints():
    assert grid_points(2) == [0.25, 0.75]
    assert np.isclose(np.mean(grid_points(5)), 0.5)


def test_minimax_trivial_values():
    assert item_discrete_minimax(1, 0, 2) == 0.5
    # n=2, b=0, g=2: take 1/4 if offered, else pay the mean 1/2:
    # value = (1/2)(1/4) + (1/2)(1/2) = 3/8.
    assert item_discrete_minimax(2, 0, 2) == pytest.approx(3.0 / 8.0)


def test_minimax_breaker_never_helps_maker():
    for g in (2, 3, 5):
        v0 = item_discrete_minimax(3, 0, g)
        v1 = item_discrete_minimax(3, 1, g)
        assert v1 >= v0 - 1e-15


def test_minimax_guards():
    with pytest.raises(ValueError):
        item_discrete_minimax(7, 1, 2)
    with pytest.raises(ValueError):
        item_discrete_minimax(4, 3, 2)
    with pytest.raises(ValueError):
        item_discrete_minimax(4, 1, 6)
    with pytest.raises(ValueError):
        item_discrete_minimax(2, 2, 3)  # b >= n leaves maker nothing


def test_minimax_converges_to_dp():
    # Midpoint-grid values approach the continuous stopping value at rate
    # ~1/g^2, but not monotonically in g (the error oscillates with how the
    # thresholds fall between atoms), so assert the quantitative envelope and
    # that the best error so far never worsens.
    for n in (2, 3, 4, 5):
        target = item_b0_dp(n).value
        best = math.inf
        for g in (2, 3, 4, 5):
            diff = abs(item_discrete_minimax(n, 0, g) - target)
            assert diff <= 0.2 / (g * g)
            best = min(best, diff)
        assert best <= 0.01


def test_schedule_evaluator_approaches_expected_cost():
    n = 5
    maker = single_threshold_maker(n)
    breaker = breaker_closed_form(n)
    exact = expected_cost(breaker, maker)
    coarse = abs(eval_schedules_on_grid(n, 2, breaker.values, maker.values) - exact)
    fine = abs(eval_schedules_on_grid(n, 64, breaker.values, maker.values) - exact)
    assert fine < coarse
    assert fine < 2e-3


def test_schedule_evaluator_matches_forced_takes():
    # All thresholds 1, no breaker: maker takes position 1, so the value is
    # the grid mean 1/2.
    v = eval_schedules_on_grid(3, 4, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert v == pytest.approx(0.5)


# --------------------------------------------------------------------------
# Box minimax
# --------------------------------------------------------------------------


def test_box_minimax_tiny_cases():
    assert box_minimax(1, 1, 1, "adversarial").winner == "maker"
    assert box_minimax(2, 3, 1, "adversarial").winner == "maker"   # m = bn+1
    r = box_minimax(2, 2, 1, "adversarial")
    # m = bn: the bn+1 rule predicts breaker, but with Maker moving first the
    # exact answer is maker (threshold shifts to b(n-1)+1); report, don't hide.
    assert r.winner == "maker"


def test_box_minimax_breaker_first_recovers_bn_plus_one():
    # Under the Breaker-moves-first convention the bn+1 threshold is exact.
    for n, b in ((1, 1), (2, 1), (2, 2)):
        for m in range(1, b * n + 2):
            if n * m > 12:
                continue
            r = box_minimax(n, m, b, "adversarial", maker_first=False)
            expect = "maker" if m >= b * n + 1 else "breaker"
            assert r.winner == expect, (n, b, m, r.winner)


def test_box_minimax_maker_first_threshold_is_b_n_minus_1_plus_1():
    for n, b in ((2, 1), (2, 2), (3, 1)):
        for m in range(1, b * n + 2):
            if n * m > 12:
                continue
            r = box_minimax(n, m, b, "adversarial", maker_first=True)
            expect = "maker" if m >= b * (n - 1) + 1 else "breaker"
            assert r.winner == expect, (n, b, m, r.winner)


def test_box_minimax_fixed_mode_and_exhaustion():
    import itertools

    # Exhausting fixed orderings can never beat the adaptive adversary.
    for n, b, m in ((2, 1, 2), (2, 1, 3)):
        balls = [box for box in range(n) for _ in range(m)]
        fixed_breaker_wins = False
        for seq in set(itertools.permutations(balls)):
            r = box_minimax(n, m, b, "fixed", ordering=seq)
            if r.winner == "breaker":
                fixed_breaker_wins = True
        adv = box_minimax(n, m, b, "adversarial")
        if fixed_breaker_wins:
            assert adv.winner == "breaker"


def test_box_minimax_guards_and_validation():
    with pytest.raises(ValueError):
        box_minimax(4, 4, 1, "adversarial")  # n*m = 16 > 12
    with pytest.raises(ValueError):
        box_minimax(4, 5, 1, "fixed", ordering=[0] * 20)  # n*m = 20 > 16
    with pytest.raises(ValueError):
        box_minimax(2, 2, 1, "fixed", ordering=[0, 0, 0, 1])  # bad counts
    with pytest.raises(ValueError):
        box_minimax(2, 2, 1, "nonsense")


def test_box_minimax_result_keeps_no_memo():
    """The result holds the winner, the node count and the inputs, and no
    memo: the search's table (12 MB here) is freed when it returns."""
    tracemalloc.start()
    try:
        result = box_minimax(4, 4, 1, "fixed", ordering=[0, 1, 2, 3] * 4)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [f.name for f in dataclasses.fields(result)] == ["winner", "node_count", "inputs"]
    assert result.node_count > 10_000
    assert retained < 2_000_000


def test_box_minimax_deterministic_and_reported():
    a = box_minimax(2, 2, 1, "adversarial")
    b = box_minimax(2, 2, 1, "adversarial")
    assert a.winner == b.winner and a.node_count == b.node_count
    assert a.node_count > 0
    record = json.loads(a.to_json_record())
    assert record["winner"] == a.winner
    assert record["node_count"] == a.node_count
    assert record["inputs"]["n"] == 2


def test_oracle_json_record_shape():
    rec = json.loads(oracle_json_record({"oracle": "item-dp", "n": 5}, value=0.3))
    assert rec == {"inputs": {"oracle": "item-dp", "n": 5}, "value": 0.3}
