"""Independent exact computations used to validate strategies and formulas.

Three oracles live here:

* ``item_b0_dp``: the optimal-stopping recursion for the unopposed item game
  (take the item iff it costs less than the expected cost-to-go), whose value
  scales like 2/n.

* ``item_discrete_minimax``: the exact value of the tiny item game with costs
  drawn from a midpoint grid, under optimal play by both sides with honest
  sequential information (Breaker scans and removes first, then Maker picks).
  ``eval_schedules_on_grid`` restricts the same enumerator to fixed threshold
  schedules, cross-checking the closed-form expected-cost functional.

* ``box_minimax``: exact winner of the ordered box game by full game-tree
  search, either for one fixed ball ordering (treated as common knowledge) or
  with an adaptive adversarial orderer aligned with Breaker choosing each
  newly revealed ball's box.

All of these are deliberately brute force: they are the trusted side of every
dual-route check in the test suite.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import ScheduleStrategy

__all__ = [
    "StoppingDP",
    "item_b0_dp",
    "grid_points",
    "item_discrete_minimax",
    "eval_schedules_on_grid",
    "MinimaxResult",
    "box_minimax",
    "oracle_json_record",
]


# --------------------------------------------------------------------------
# Optimal stopping at b = 0
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StoppingDP:
    """Cost-to-go table of the unopposed stopping game.

    v[i-1] is the expected cost paid from position i on under optimal play:
    v_n = 1/2 and v_i = v_{i+1} - v_{i+1}^2 / 2 going backward, so v is
    strictly increasing in i (fewer items left means paying more).  The
    optimal rule takes the item at position i iff its cost is at most
    v_{i+1}, i.e. the thresholds are the shifted v with a forced final take.
    """

    v: np.ndarray

    @property
    def n(self) -> int:
        return len(self.v)

    @property
    def value(self) -> float:
        return float(self.v[0])

    @property
    def thresholds(self) -> np.ndarray:
        t = np.empty(self.n)
        t[:-1] = self.v[1:]
        t[-1] = 1.0
        return t

    def strategy(self) -> ScheduleStrategy:
        return ScheduleStrategy(self.thresholds)


_ITERATES = np.array([0.5])  # w_0 = 1/2, w_(j+1) = w_j - w_j^2/2; read-only
_ITERATES.flags.writeable = False


def item_b0_dp(n: int) -> StoppingDP:
    """Backward recursion for the optimal stopping value; n * v_1 tends to 2
    from below (v_1 is approximately 2/(n+3)).

    v_i(n) = w_(n-1-i) for iterates w_j that do not depend on n, so one
    module-level table of them serves every n: it is extended only past its
    length and holds 8 bytes per iterate up to the largest n asked in the
    process.  Each call returns a fresh copy of its slice."""
    global _ITERATES
    if n < 1:
        raise ValueError("n must be >= 1")
    w = _ITERATES
    if n > len(w):
        # Python floats are IEEE doubles rounded as numpy's are, so the loop
        # runs on them, bit for bit the same as a numpy recursion.
        x, more = float(w[-1]), []
        for _ in range(n - len(w)):
            x -= x * x / 2.0
            more.append(x)
        w = np.concatenate([w, more])
        w.flags.writeable = False
        _ITERATES = w
    return StoppingDP(w[n - 1::-1].copy())


# --------------------------------------------------------------------------
# Discretized-cost exact item game
# --------------------------------------------------------------------------


def grid_points(g: int) -> list[float]:
    """Cost grid: the g midpoints (2t-1)/(2g), t = 1..g, each with mass 1/g.
    Midpoints keep thresholds away from atom boundaries, mimicking the
    atomless uniform distribution."""
    return [(2 * t - 1) / (2 * g) for t in range(1, g + 1)]


_MINIMAX_GUARDS = {"n": 6, "b": 2, "g": 5}


def item_discrete_minimax(n: int, b: int, g: int) -> float:
    """Exact value of the discretized item game under optimal play.

    Breaker scans positions 1..n first, seeing each cost as it passes and
    removing up to b items; its turn ends when the quota is spent.  Maker
    then scans with full knowledge of the prefix Breaker revealed and of the
    removals, takes one available item, and pays its cost.  Maker minimizes
    the expected payment, Breaker maximizes it.  Costs are i.i.d. uniform on
    the midpoint grid.

    The recursion tracks (position, quota left, cheapest available prefix
    cost): once Breaker stops at position s, Maker's optimal play is the
    smaller of the known prefix minimum and the optimal-stopping value of the
    n - s unrevealed items.
    """
    if n > _MINIMAX_GUARDS["n"] or b > _MINIMAX_GUARDS["b"] or g > _MINIMAX_GUARDS["g"]:
        raise ValueError(
            f"size guard exceeded: need n <= {_MINIMAX_GUARDS['n']}, "
            f"b <= {_MINIMAX_GUARDS['b']}, g <= {_MINIMAX_GUARDS['g']}"
        )
    if n < 1 or g < 1 or b < 0:
        raise ValueError("need n >= 1, g >= 1, b >= 0")
    if b >= n:
        raise ValueError("need b < n so that an item survives for Maker")

    grid = grid_points(g)
    # W[j]: optimal stopping value over j unrevealed grid-cost items, with a
    # forced take at the last one (running out empty is not an option).
    w = [math.inf] * (n + 1)
    w[1] = sum(grid) / g
    for j in range(2, n + 1):
        w[j] = sum(min(c, w[j - 1]) for c in grid) / g

    memo: dict = {}

    def value(j: int, q: int, mstar: float) -> float:
        # Breaker about to scan position j with q removals left; mstar is the
        # cheapest cost it has passed so far (inf if none).
        if q == 0 or j > n:
            suffix = n - j + 1
            return min(mstar, w[suffix] if suffix >= 1 else math.inf)
        key = (j, q, mstar)
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc = 0.0
        for c in grid:
            keep = value(j + 1, q, min(mstar, c))
            remove = value(j + 1, q - 1, mstar)
            acc += max(keep, remove)
        out = acc / g
        memo[key] = out
        return out

    return value(1, b, math.inf)


def eval_schedules_on_grid(n: int, g: int, b_values: Sequence[float],
                           m_values: Sequence[float]) -> float:
    """Expected Maker payment on the midpoint grid when both players follow
    fixed threshold schedules at Breaker quota 1: Breaker removes the first
    item priced under b_values, Maker then takes the first remaining item
    priced under m_values.  Same enumerator as the minimax oracle with the
    decisions forced, giving an independent check of expected_cost that must
    approach it as g grows."""
    if len(b_values) != n or len(m_values) != n:
        raise ValueError("schedule lengths must equal n")
    grid = grid_points(g)
    memo: dict = {}

    def expect(k: int, breaker_active: bool) -> float:
        # Expected eventual Maker payment given positions < k produced no
        # Maker take, with Breaker still holding its removal iff active.
        if k > n:
            return 0.0
        key = (k, breaker_active)
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc = 0.0
        for c in grid:
            if breaker_active and c <= b_values[k - 1]:
                acc += expect(k + 1, False)
            elif c <= m_values[k - 1]:
                acc += c
            else:
                acc += expect(k + 1, breaker_active)
        out = acc / g
        memo[key] = out
        return out

    return expect(1, True)


# --------------------------------------------------------------------------
# Box game minimax
# --------------------------------------------------------------------------

_U, _M, _B = 0, 1, 2
_FIXED_GUARD = 16
_ADVERSARIAL_GUARD = 12


@dataclass
class MinimaxResult:
    """Winner of a box game under optimal play, with the number of states
    the search solved, for regression pinning.  The search's memo is freed
    when it returns."""

    winner: str
    node_count: int
    inputs: dict

    def to_json_record(self) -> str:
        return oracle_json_record(self.inputs, winner=self.winner,
                                  node_count=self.node_count)


def oracle_json_record(inputs: dict, *, winner: Optional[str] = None,
                       value: Optional[float] = None,
                       node_count: Optional[int] = None) -> str:
    record: dict = {"inputs": inputs}
    if winner is not None:
        record["winner"] = winner
    if value is not None:
        record["value"] = value
    if node_count is not None:
        record["node_count"] = node_count
    return json.dumps(record, sort_keys=True)


def _box_terminal(n: int, m: int, covered: tuple, btb: tuple) -> Optional[bool]:
    if all(covered):
        return True
    for i in range(n):
        if not covered[i] and btb[i] >= m:
            return False
    return None


def box_minimax(n: int, m: int, b: int, ordering_mode: str = "adversarial",
                ordering: Optional[Sequence[int]] = None,
                maker_first: bool = True) -> MinimaxResult:
    """Exact winner of the ordered box game (n boxes of m balls, Breaker
    quota b) under optimal play by both players.

    ``ordering_mode="fixed"`` solves one given ball ordering (a sequence of
    0-based box ids, each appearing m times) as a perfect-information game.
    ``ordering_mode="adversarial"`` adds a third adaptive chooser aligned
    with Breaker that decides each newly revealed ball's box.

    Maker moves first by default, matching the play protocol; pass
    ``maker_first=False`` to study the other convention (the exact threshold
    is sensitive to it: roughly b(n-1)+1 balls per box suffice for Maker when
    it moves first versus bn+1 when Breaker does).

    A ball "belongs to Breaker" once Breaker takes it or Maker's pointer
    passes it; an uncovered box whose every ball belongs to Breaker is dead
    and ends the game immediately.
    """
    if n < 1 or m < 1 or b < 1:
        raise ValueError("need n, m, b >= 1")
    total = n * m
    if ordering_mode == "fixed":
        if total > _FIXED_GUARD:
            raise ValueError(f"state space guard: fixed mode needs n*m <= {_FIXED_GUARD}")
        if ordering is None:
            raise ValueError("fixed mode needs an ordering")
        try:
            seq = tuple(map(operator.index, ordering))
        except TypeError as exc:
            raise ValueError(f"box ids must be integers: {exc}") from None
        if len(seq) != total or any(seq.count(i) != m for i in range(n)):
            raise ValueError("ordering must contain each box id exactly m times")
        winner, nodes = _solve_fixed(n, m, b, seq, maker_first)
    elif ordering_mode == "adversarial":
        if total > _ADVERSARIAL_GUARD:
            raise ValueError(
                f"state space guard: adversarial mode needs n*m <= {_ADVERSARIAL_GUARD}"
            )
        winner, nodes = _solve_adversarial(n, m, b, maker_first)
    else:
        raise ValueError(f"unknown ordering_mode {ordering_mode!r}")
    inputs = {"n": n, "m": m, "b": b, "ordering_mode": ordering_mode,
              "maker_first": maker_first}
    if ordering_mode == "fixed":
        inputs["ordering"] = list(seq)
    return MinimaxResult(winner="maker" if winner else "breaker",
                         node_count=nodes, inputs=inputs)


def _solve_fixed(n: int, m: int, b: int, seq: tuple, maker_first: bool):
    total = len(seq)
    memo: dict = {}
    nodes = 0

    def covered_and_btb(mp: int, owners: tuple):
        covered = [False] * n
        btb = [0] * n
        for p, own in enumerate(owners):
            box = seq[p]
            if own == _M:
                covered[box] = True
            elif own == _B or p < mp:
                btb[box] += 1
        return tuple(covered), tuple(btb)

    def solve(mp: int, bp: int, owners: tuple, turn: int, quota: int) -> bool:
        nonlocal nodes
        key = (mp, bp, owners, turn, quota)
        hit = memo.get(key)
        if hit is not None:
            return hit
        nodes += 1
        covered, btb = covered_and_btb(mp, owners)
        term = _box_terminal(n, m, covered, btb)
        if term is not None:
            memo[key] = term
            return term
        if turn == _M:
            if mp >= total:
                out = False  # Maker can never act again
            else:
                own = owners[mp]
                if own != _U:
                    out = solve(mp + 1, bp, owners, _M, quota)
                else:
                    out = solve(mp + 1, bp, owners, _M, quota)  # pass
                    if not out:
                        taken = owners[:mp] + (_M,) + owners[mp + 1:]
                        out = solve(mp + 1, bp, taken, _B, b)
        else:
            if quota == 0 or bp >= total:
                out = solve(mp, bp, owners, _M, 1)
            else:
                own = owners[bp]
                if own != _U:
                    out = solve(mp, bp + 1, owners, _B, quota)
                else:
                    out = solve(mp, bp + 1, owners, _B, quota)  # pass
                    if out:
                        taken = owners[:bp] + (_B,) + owners[bp + 1:]
                        out = solve(mp, bp + 1, taken, _B, quota - 1)
        memo[key] = out
        return out

    start_owner = (_U,) * total
    if maker_first:
        result = solve(0, 0, start_owner, _M, 1)
    else:
        result = solve(0, 0, start_owner, _B, b)
    del solve  # the recursive closure holds the memo until a gc pass
    return result, nodes


def _solve_adversarial(n: int, m: int, b: int, maker_first: bool):
    memo: dict = {}
    nodes = 0
    perms = list(itertools.permutations(range(n))) if n <= 4 else None

    def canon(tape, mp, bp, covered, btb, stock, turn, quota):
        # Drop the dead prefix both pointers have passed; its effects already
        # live in covered/btb.
        d = min(mp, bp)
        if d:
            tape = tape[d:]
            mp -= d
            bp -= d
        if perms is None:
            return (tape, mp, bp, covered, btb, stock, turn, quota)
        best = None
        for perm in perms:
            # perm maps old box id -> new box id
            rt = tuple((perm[box], own) for box, own in tape)
            newc = [False] * n
            newb = [0] * n
            news = [0] * n
            for old in range(n):
                newc[perm[old]] = covered[old]
                newb[perm[old]] = btb[old]
                news[perm[old]] = stock[old]
            cand = (rt, mp, bp, tuple(newc), tuple(newb), tuple(news), turn, quota)
            if best is None or cand < best:
                best = cand
        return best

    def solve(tape, mp, bp, covered, btb, stock, turn, quota) -> bool:
        nonlocal nodes
        key = canon(tape, mp, bp, covered, btb, stock, turn, quota)
        hit = memo.get(key)
        if hit is not None:
            return hit
        nodes += 1
        tape, mp, bp, covered, btb, stock, turn, quota = key
        term = _box_terminal(n, m, covered, btb)
        if term is not None:
            memo[key] = term
            return term
        out = _step(tape, mp, bp, covered, btb, stock, turn, quota)
        memo[key] = out
        return out

    def _step(tape, mp, bp, covered, btb, stock, turn, quota) -> bool:
        if turn == _M:
            if mp == len(tape):
                if not any(stock):
                    return False  # stream exhausted with boxes uncovered
                # Adversary (aligned with Breaker) picks the next ball's box.
                for box in range(n):
                    if stock[box]:
                        ns = stock[:box] + (stock[box] - 1,) + stock[box + 1:]
                        if not solve(tape + ((box, _U),), mp, bp, covered, btb,
                                     ns, _M, quota):
                            return False
                return True
            box, own = tape[mp]
            if own != _U:
                return solve(tape, mp + 1, bp, covered, btb, stock, _M, quota)
            # Pass: the ball now belongs to Breaker.
            nb = btb[:box] + (btb[box] + 1,) + btb[box + 1:]
            if solve(tape, mp + 1, bp, covered, nb, stock, _M, quota):
                return True
            # Take: box covered, Breaker's turn starts.
            taken = tape[:mp] + ((box, _M),) + tape[mp + 1:]
            nc = covered[:box] + (True,) + covered[box + 1:]
            return solve(taken, mp + 1, bp, nc, btb, stock, _B, b)
        else:
            if quota == 0:
                return solve(tape, mp, bp, covered, btb, stock, _M, 1)
            if bp == len(tape):
                if not any(stock):
                    return solve(tape, mp, bp, covered, btb, stock, _M, 1)
                for box in range(n):
                    if stock[box]:
                        ns = stock[:box] + (stock[box] - 1,) + stock[box + 1:]
                        if not solve(tape + ((box, _U),), mp, bp, covered, btb,
                                     ns, _B, quota):
                            return False
                return True
            box, own = tape[bp]
            if own != _U:
                return solve(tape, mp, bp + 1, covered, btb, stock, _B, quota)
            if not solve(tape, mp, bp + 1, covered, btb, stock, _B, quota):
                return False  # passing already beats Maker
            # Take: counts against the box only if Maker has not passed it.
            nb = btb
            if bp >= mp:
                nb = btb[:box] + (btb[box] + 1,) + btb[box + 1:]
            taken = tape[:bp] + ((box, _B),) + tape[bp + 1:]
            return solve(taken, mp, bp + 1, covered, nb, stock, _B, quota - 1)

    start = ((), 0, 0, (False,) * n, (0,) * n, (m,) * n,
             _M if maker_first else _B, 1 if maker_first else b)
    result = solve(*start)
    del solve  # the recursive closures hold the memo until a gc pass
    return result, nodes
