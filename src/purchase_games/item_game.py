"""Strategies and exact formulas for the single-item purchase game.

Maker wants to buy one item as cheaply as possible while Breaker removes up
to ``b`` items per turn to inflate the price.  This module provides:

* the phased threshold plan that guarantees Maker an item against any
  Breaker (split the stream into b+1 phases, attempt the first item under a
  rising threshold in each phase),
* the single-threshold schedule 2/(n-i+1) and Breaker's exact best response
  to it, both as a numeric backward induction and in closed form,
* the exact expected-cost functional c(b, m) for any pair of threshold
  schedules at Breaker quota 1, evaluated in O(n) with running prefix
  products,
* the cheap-grab Breaker that snaps up everything priced at most b/(2n).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .engine import (
    UNOWNED,
    Item,
    PhaseBounds,
    ScheduleStrategy,
    Strategy,
    TurnContext,
    View,
    _opened,
    phase_ends,
    phase_of_position,
)

__all__ = [
    "PhasePlan",
    "phased_maker_plan",
    "phase_plan",
    "PhasedMaker",
    "ThresholdSchedule",
    "single_threshold_maker",
    "breaker_best_response",
    "breaker_closed_form",
    "expected_cost",
    "cheap_grab_breaker",
    "mimic_threshold_breaker",
    "save_schedule",
    "load_schedule",
]


# --------------------------------------------------------------------------
# Threshold schedules
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdSchedule:
    """Per-position acceptance thresholds t_1..t_n in [0, 1] for one role."""

    values: np.ndarray
    role: str = "maker"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or len(v) < 1:
            raise ValueError("schedule must be a nonempty 1-d array")
        if not np.all((v >= 0) & (v <= 1)):  # NaN included
            raise ValueError("thresholds must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.values)

    def strategy(self) -> ScheduleStrategy:
        """The induced take-first-item-under-threshold strategy."""
        return ScheduleStrategy(self.values)


def single_threshold_maker(n: int) -> ThresholdSchedule:
    """Maker schedule t_i = 2/(n-i+1) for i < n and t_n = 1.

    Taking the first item under this schedule costs about 4/n in expectation
    against a best-responding quota-1 Breaker, and the final threshold of 1
    means Maker never finishes empty-handed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(1, n + 1)
    values = np.minimum(1.0, 2.0 / (n - i + 1))
    values[-1] = 1.0
    return ThresholdSchedule(values, role="maker")


def breaker_best_response(m: ThresholdSchedule) -> ThresholdSchedule:
    """Quota-1 Breaker schedule maximizing Maker's expected cost against the
    fixed Maker schedule ``m``.

    Backward induction on the stationarity condition of c(b, m) in each b_i
    gives b_i = sum over i' > i of (prod_{k=i+1}^{i'-1} (1-m_k)) * m_{i'}^2/2,
    independent of the later entries, so a single backward sweep suffices:
    G_n = 0 and G_{i-1} = m_i^2/2 + (1-m_i) G_i.
    """
    mv = m.values
    n = len(mv)
    out = np.zeros(n)
    g = 0.0
    for i in range(n - 1, 0, -1):
        g = mv[i] * mv[i] / 2.0 + (1.0 - mv[i]) * g
        out[i - 1] = g
    return ThresholdSchedule(np.clip(out, 0.0, 1.0), role="breaker")


def breaker_closed_form(n: int) -> ThresholdSchedule:
    """Closed form of the best response to single_threshold_maker(n):
    b_n = 0, b_{n-1} = 1/2, and for i <= n-2

        b_i = 2/(n-i-1) - (2 / ((n-i)(n-i-1))) * H_{n-i}

    with H the harmonic numbers.  Agrees with breaker_best_response to
    floating-point accuracy.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    values = np.zeros(n)
    values[n - 2] = 0.5
    if n >= 3:
        i = np.arange(1, n - 1)  # 1-based positions 1 .. n-2
        d = n - i
        harm = np.cumsum(1.0 / np.arange(1, n + 1))  # harm[j-1] = H_j
        values[:n - 2] = 2.0 / (d - 1) - 2.0 * harm[d - 1] / (d * (d - 1))
    return ThresholdSchedule(values, role="breaker")


def expected_cost(b: ThresholdSchedule, m: ThresholdSchedule) -> float:
    """Exact expected cost paid by a Maker playing threshold schedule ``m``
    against a quota-1 Breaker playing schedule ``b`` (Breaker removes the
    first item priced under its schedule, then Maker takes the first
    remaining item priced under its own).

    Evaluates

        sum_i P_{i-1} (m_i^2 - b_i^2)/2
          + sum_i (m_i^2/2) sum_{j<i} P_{j-1} b_j prod_{k=j+1}^{i-1} (1-m_k)

    with P_i = prod_{k<=i} (1-m_k), in O(n) using the running recurrences
    P_i = P_{i-1} (1-m_i) and R_{i+1} = R_i (1-m_i) + b_i P_{i-1}.  The inner
    products only ever shrink, so no log-space evaluation is needed; terms
    underflow to zero exactly when they are negligible.
    """
    bv, mv = b.values, m.values
    if len(bv) != len(mv):
        raise ValueError(f"schedule lengths differ: {len(bv)} vs {len(mv)}")
    if np.any(bv > mv):
        warnings.warn(
            "breaker schedule exceeds maker schedule somewhere; the "
            "conditional-mean term (m_i+b_i)/2 presumes b_i <= m_i",
            stacklevel=2,
        )
    total = 0.0
    prefix = 1.0  # P_{i-1}
    r = 0.0       # sum_{j<i} P_{j-1} b_j prod_{k=j+1}^{i-1}(1-m_k)
    for mi, bi in zip(mv.tolist(), bv.tolist()):
        total += prefix * (mi * mi - bi * bi) / 2.0
        total += r * mi * mi / 2.0
        r = r * (1.0 - mi) + bi * prefix
        prefix *= 1.0 - mi
    return total


def cheap_grab_breaker(n: int, b: int) -> ScheduleStrategy:
    """Breaker that takes every offered item priced at most b/(2n), up to its
    quota each turn.  About b/2 items qualify in expectation, so with
    probability at least 1/2 Breaker claims every item under the bar."""
    if b < 1:
        raise ValueError("cheap-grab needs b >= 1")
    return ScheduleStrategy(b / (2.0 * n))


def mimic_threshold_breaker(values: Union[float, np.ndarray, ThresholdSchedule]) -> ScheduleStrategy:
    """Breaker that applies the given (typically Maker's own) thresholds,
    removing whatever Maker would want.  A configurable generic adversary; no
    optimality is claimed."""
    if isinstance(values, ThresholdSchedule):
        values = values.values
    return ScheduleStrategy(values)


# --------------------------------------------------------------------------
# The phased plan
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PhasePlan(PhaseBounds):
    """Parameters of the phased threshold strategy for quota b >= 1.

    The stream is split into b+1 contiguous phases of length floor or ceil of
    N = n/(b+1).  Within a phase, position i (counted from the phase start)
    carries threshold alpha/(N + alpha - i) with alpha = 10 + 10*ceil(ln b),
    clamped into (0, 1], and the last threshold of every phase is exactly 1,
    so an attempt is guaranteed in each phase.  Breaker can pre-empt at most
    b of the b+1 attempts, so Maker always ends the game owning an item.
    """

    n: int
    b: int
    alpha: float
    N: float                      # real-valued phase length n/(b+1)
    ends: np.ndarray              # last position of each phase
    position_thresholds: np.ndarray

    def phase_of(self, position: int) -> int:
        return phase_of_position(position, self.ends)

    def thresholds_for_phase(self, j: int) -> np.ndarray:
        start = self.phase_start(j)
        return self.position_thresholds[start - 1 : int(self.ends[j - 1])]


def phased_maker_plan(n: int, b: int) -> PhasePlan:
    """Build the phased threshold plan for a stream of n items at quota b.

    Requires b >= 1 (at b = 0 use single_threshold_maker or the optimal
    stopping thresholds).  Warns outside 1 <= b <= n/ln^4 n, where the cost
    guarantee degrades, on every call: the plan is ``phase_plan``'s shared,
    read-only one.
    """
    if b < 1:
        raise ValueError("phased plan needs b >= 1; use single_threshold_maker for b = 0")
    if b + 1 > n:
        raise ValueError(f"cannot split {n} items into {b + 1} phases")
    if n >= 3 and b > n / math.log(n) ** 4:
        warnings.warn(
            f"b={b} exceeds n/ln^4(n)={n / math.log(n) ** 4:.3g}; "
            "the cost guarantee degrades in this regime",
            stacklevel=2,
        )
    return phase_plan(n, b)


@lru_cache(maxsize=8)
def phase_plan(n: int, b: int) -> PhasePlan:
    """The plan ``phased_maker_plan`` returns, without its checks or its
    warning: the caller guarantees 1 <= b and b + 1 <= n.

    Plans are memoised per (n, b), at most 8 of them (the least recently
    used goes first), so a process that asks for the same plan again, such
    as each ``run_trials`` call of a seed sweep, builds it once; its arrays
    are shared and therefore read-only."""
    alpha = 10.0 + 10.0 * math.ceil(math.log(b))
    bigN = n / (b + 1)
    ends = phase_ends(n, b + 1)
    thresholds = np.empty(n)
    start = 1
    for e in ends.tolist():
        length = e - start + 1
        i = np.arange(1, length + 1)
        t = alpha / (bigN + alpha - i)
        np.clip(t, 0.0, 1.0, out=t)
        t[-1] = 1.0
        thresholds[start - 1 : e] = t
        start = e + 1
    thresholds.flags.writeable = False
    return PhasePlan(n=n, b=b, alpha=alpha, N=bigN, ends=ends,
                     position_thresholds=thresholds)


class PhasedMaker(Strategy):
    """Maker following a PhasePlan: in each phase, attempt the first item
    priced under that phase's threshold curve, then sit out the rest of the
    phase whether or not the attempt succeeded (Breaker may own the item).
    """

    def __init__(self, plan: PhasePlan):
        self.plan = plan
        self._attempted_through = 0  # phases 1..t have had their attempt

    def begin(self, view: View) -> None:
        self._attempted_through = 0

    def decide(self, view: View, item: Item) -> bool:
        plan = self.plan
        phase = plan.phase_of(item.position)
        if phase <= self._attempted_through:
            return False
        if item.cost <= plan.position_thresholds[item.position - 1]:
            self._attempted_through = phase
            return item.owner == UNOWNED
        return False

    def play_turn(self, ctx: TurnContext) -> None:
        plan = self.plan
        while not ctx.turn_over():
            ctx.skip_to(plan.phase_start(self._attempted_through + 1) - 1)
            item = ctx.seek(plan.position_thresholds, include_owned=True)
            if item is None:
                return
            if self.decide(ctx.view, item):
                ctx.take(item)


# --------------------------------------------------------------------------
# Schedule text I/O: one threshold per line, 17 significant digits
# --------------------------------------------------------------------------


def save_schedule(file, schedule: ThresholdSchedule) -> None:
    with _opened(file, "w") as out:
        for v in schedule.values:
            out.write(f"{v:.17g}\n")


def load_schedule(file, role: str = "maker") -> ThresholdSchedule:
    with _opened(file) as src:
        values = [float(line) for line in src if line.strip()]
    return ThresholdSchedule(np.asarray(values), role=role)
