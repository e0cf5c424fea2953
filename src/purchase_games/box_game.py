"""The ordered box game: n boxes of m balls, presented as a stream.

Maker moves first and takes one ball per turn; Breaker takes b balls per
turn.  Pointers persist across turns.  Maker wants one ball from every box.
A ball "belongs to Breaker" once Breaker takes it or Maker's pointer passes
it; an uncovered box whose m balls all belong to Breaker is dead and the game
ends immediately with a Breaker win.  Maker wins the moment every box holds
one of its balls.

Orderings come in three flavors: ``random`` (a seeded uniform shuffle of all
n*m balls), ``scripted`` (an explicit box sequence), and ``adversarial`` (an
adaptive generator that feeds Breaker's scans box 0 and Maker's scans the
other boxes while stock lasts).

With m >= bn+1 balls per box, the min-box Maker (take a ball exactly when its
box ties for the fewest balls not yet belonging to Breaker among uncovered
boxes) wins against every ordering and every Breaker: after Breaker's i-th
turn no uncovered box has more than b*i balls belonging to Breaker.  Maker
moving first actually lets it win from m >= b(n-1)+1; see the oracle module.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import (
    BREAKER,
    MAKER,
    UNOWNED,
    BoxLabels,
    GameRules,
    GameState,
    Goal,
    Item,
    Market,
    Outcome,
    Strategy,
    View,
    _opened,
    _outcome_from_state,
    generate_market,
    mix_seed,
)

__all__ = [
    "BoxConfig",
    "BoxState",
    "box_threshold",
    "MinboxMaker",
    "minbox_maker",
    "FocusBreaker",
    "focus_breaker",
    "AdversarialOrderer",
    "adversarial_ordering",
    "play_box",
    "load_scripted_ordering",
    "save_scripted_ordering",
]


def box_threshold(n: int, b: int) -> int:
    """Balls per box above which Maker wins the adversarially ordered box
    game: bn + 1.  (Exact when Breaker moves first; with Maker moving first
    the oracle shows small cases already won at b(n-1)+1.)"""
    if n < 1 or b < 1:
        raise ValueError("need n >= 1 and b >= 1")
    return b * n + 1


def _checked_sequence(sequence, n: int, m: int) -> tuple:
    """``sequence`` as a tuple of box ids, checked to hold each of the n
    boxes exactly m times."""
    seq = tuple(int(x) for x in sequence)
    if len(seq) != n * m:
        raise ValueError(f"sequence must have exactly n*m = {n * m} entries, got {len(seq)}")
    for box in range(n):
        if seq.count(box) != m:
            raise ValueError(f"box {box} appears {seq.count(box)} times, expected {m}")
    return seq


@dataclass(frozen=True)
class BoxConfig:
    """Box game parameters.

    ordering is one of "random" (uses ``seed``), "adversarial", or
    "scripted" (uses ``sequence``, one box id per ball, and ``seed`` for
    the costs).  ``eps``, in (0, 1), feeds the b0 regime marker: for
    b >= b0 = 100 eps^-2 ln n and m <= (1-eps) b n the focus Breaker wins a
    randomly ordered game with high probability.
    """

    n: int
    m: int
    b: int
    ordering: str = "random"
    seed: Optional[int] = None
    sequence: Optional[tuple] = None
    eps: float = 0.5

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.b < 1:
            raise ValueError("need n, m, b >= 1")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.ordering not in ("random", "adversarial", "scripted"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.ordering == "scripted":
            if self.sequence is None:
                raise ValueError("scripted ordering needs a sequence")
            object.__setattr__(self, "sequence", _checked_sequence(self.sequence, self.n, self.m))

    @property
    def b0(self) -> float:
        return 100.0 * self.eps ** -2 * math.log(self.n)

    @property
    def total(self) -> int:
        return self.n * self.m


class BoxState(Goal):
    """The box game's goal and scoreboard, shared with the strategies' views.

    Maker's goal is one ball in every box.  ``btb[box]`` counts the balls
    belonging to Breaker (taken by Breaker or passed by Maker's pointer).
    ``max_uncovered`` caches max(btb over uncovered boxes), the count at
    which the min-box rule takes a ball; a Maker scan cannot raise it, so
    the min-box Maker can jump straight to its next take.  ``dead`` is set
    once an uncovered box has all its balls belonging to Breaker, which ends
    the game with a Breaker win.
    """

    __slots__ = ("n", "m", "btb", "covered", "covered_count", "max_uncovered", "dead")

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.btb = np.zeros(n, dtype=np.int64)
        self.covered = np.zeros(n, dtype=bool)
        self.covered_count = 0
        self.max_uncovered = 0
        self.dead = False

    def breaker_gain(self, box: int, count: int = 1) -> None:
        """Register ``count`` balls of ``box`` newly belonging to Breaker."""
        c = self.btb[box] + count
        self.btb[box] = c
        if not self.covered[box]:
            if c > self.max_uncovered:
                self.max_uncovered = int(c)
            if c >= self.m:
                self.dead = True

    def on_maker_take(self, label) -> bool:
        box = label[0]
        if not self.covered[box]:
            self.covered[box] = True
            self.covered_count += 1
            self.max_uncovered = int(self.btb.max(where=~self.covered, initial=0))
        return self.covered_count == self.n


class _BoxRuntime:
    """Box-only driver state beside the engine's GameState, which holds the
    tape, pointers, ownership and purchases: the adversarial orderer and its
    stock (None on a tape ordered in advance), every box's positions in
    stream order, box b's at indices b*m to b*m + m - 1 (None on an
    adversarial tape), each box's positions that Breaker took ahead of
    Maker's pointer, in stream order, and the number of Breaker turns.
    ``box_positions`` is a memoryview of an int64 array, so that ``bisect``
    reads Python ints from it rather than numpy scalars."""

    __slots__ = ("state", "goal", "orderer", "stock", "box_positions", "claims",
                 "breaker_turns")

    def __init__(self, cfg: BoxConfig, seed: Optional[int]):
        n, m, total = cfg.n, cfg.m, cfg.total
        labels = BoxLabels(n, m)
        self.orderer = self.stock = self.box_positions = None
        if cfg.ordering == "adversarial":
            # Costless; the orderer fills in perm as each ball is revealed.
            market = Market(total, np.zeros(total), labels, seed,
                            perm=np.full(total, -1, dtype=np.int64))
            self.orderer = AdversarialOrderer(n)
            self.stock = [m] * n
        else:
            if seed is None:
                raise ValueError(f"{cfg.ordering} ordering needs a seed")
            # Box ids as the narrowest unsigned dtype that holds them: numpy
            # sorts that by radix, and no int64 copy lives through the sort.
            key = np.min_scalar_type(n - 1)
            if cfg.ordering == "random":
                market = generate_market(total, seed, labels)
                boxes = (market.perm // m).astype(key)
            else:
                boxes = np.asarray(cfg.sequence, dtype=key)
            # Stable, so box b's j-th ball in stream order is at order[b*m + j].
            order = np.argsort(boxes, kind="stable")
            if cfg.ordering == "scripted":
                perm = np.empty(total, dtype=np.int64)
                perm[order] = np.arange(total)  # rank b*m + j
                costs = np.random.Generator(np.random.PCG64(mix_seed(seed, 0))).random(total)
                market = Market(total, costs, labels, seed, perm=perm)
            order += 1
            self.box_positions = memoryview(order)
        goal = self.goal = BoxState(n, m)
        self.state = GameState(market, GameRules(cfg.b, goal=lambda: goal), seed_record=seed)
        self.claims = [[] for _ in range(n)]
        self.breaker_turns = 0

    def reveal_to(self, pos: int, player: int) -> None:
        """Reveal the tape through ``pos``; on an adversarial tape the orderer
        places each newly revealed ball for the scanning ``player``."""
        state = self.state
        if self.stock is not None:
            perm, m = state.market.perm, self.goal.m
            for p in range(state.revealed_upto + 1, pos + 1):
                box = self.orderer.next_box(player, self.stock)
                self.stock[box] -= 1
                perm[p - 1] = box * m + m - 1 - self.stock[box]
        state.revealed_upto = pos


class BoxView(View):
    """A View of the box game that adds the scoreboard (derived from revealed
    balls only) and each revealed ball's box."""

    __slots__ = ("_goal",)

    def __init__(self, rt: _BoxRuntime, player: int):
        super().__init__(rt.state, player)
        self._goal = rt.goal

    @property
    def covered(self) -> np.ndarray:
        return self._goal.covered

    @property
    def btb_counts(self) -> np.ndarray:
        return self._goal.btb

    @property
    def max_uncovered_btb(self) -> int:
        return self._goal.max_uncovered

    def box_of(self, pos: int) -> int:
        return self.label(pos)[0]


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------


class MinboxMaker(Strategy):
    """Take an offered ball iff its box is uncovered and ties for the fewest
    balls not yet belonging to Breaker, i.e. its belongs-to-Breaker count
    attains the maximum over uncovered boxes.  This protects whichever box is
    closest to dying, and it is the strategy behind the bn+1 threshold."""

    def decide(self, view: BoxView, item: Item) -> bool:
        if item.owner != UNOWNED:
            return False
        box = item.label[0]
        state = view
        if state.covered[box]:
            return False
        return state.btb_counts[box] >= state.max_uncovered_btb

    def box_turn(self, rt: _BoxRuntime, view: BoxView) -> Optional[int]:
        """Fast turn for tapes ordered in advance: jump straight to the ball
        ``decide`` would take.  Returns the position taken, or None to fall
        back to the generic per-ball loop.

        While Maker scans, ``max_uncovered`` does not change: Maker passes a
        ball of an uncovered box only while that box's count is below the
        maximum.  So Maker takes the earliest, over uncovered boxes c, of the
        (max - btb[c] + 1)-th ball of c past its pointer that Breaker does
        not own, and every unowned ball it passes now belongs to Breaker.
        Exactly m - btb[c] balls of c past the pointer are unowned, so while
        no box is dead every uncovered box has that ball, and the scan never
        runs off the end of the stream.
        """
        if rt.box_positions is None:
            return None
        state, goal = rt.state, rt.goal
        start, top, m = state.maker_ptr, goal.max_uncovered, goal.m
        take = min(_free_ball(rt.box_positions, box * m, box * m + m, rt.claims[box],
                              start, top - count + 1)
                   for box, (covered, count)
                   in enumerate(zip(goal.covered.tolist(), goal.btb.tolist()))
                   if not covered)
        if take > start + 1:
            passed = state.market.perm[start:take - 1][state.owner[start:take - 1] == UNOWNED]
            goal.btb += np.bincount(passed // m, minlength=goal.n)
        state.maker_ptr = take
        if take > state.revealed_upto:
            state.revealed_upto = take
        state.assign(MAKER, take)
        return take


def _free_ball(positions, lo: int, hi: int, claims: list, after: int, k: int) -> int:
    """The k-th of the sorted ``positions[lo:hi]`` past ``after`` that is not
    in ``claims`` (a sorted subset of them).

    Its index is the least i with i - (claims <= positions[i]) + (claims
    <= after) >= kth, the index of the k-th ball past ``after``: the left
    side counts unclaimed balls and never falls as i grows, so a binary
    search finds it, at most kth plus the claims ahead.  The least such i
    is not a claim itself.  The search starts from kth plus the claims in
    (after, positions[kth]], a lower bound on it that is the answer itself
    when there are none, as on most turns."""
    kth = bisect_right(positions, after, lo, hi) + k - 1
    skipped = bisect_right(claims, after)
    i = kth + bisect_right(claims, positions[kth]) - skipped if kth < hi else kth
    j = min(hi, kth + len(claims) - skipped) if i > kth else i
    while i < j:
        mid = (i + j) // 2
        if mid - bisect_right(claims, positions[mid]) + skipped >= kth:
            j = mid
        else:
            i = mid + 1
    if i >= hi:
        raise RuntimeError(f"fewer than {k} unowned balls past position {after}")
    return positions[i]


def minbox_maker(config: BoxConfig) -> MinboxMaker:
    return MinboxMaker()


class FocusBreaker(Strategy):
    """Keep a focus box (initially box 0) and take only its balls; once Maker
    acquires a ball there, refocus on the lowest-id box where Maker has none.
    Designed for random orderings with b >= b0: it starves one box faster
    than Maker can reach it."""

    def __init__(self):
        self.focus = 0
        self.lost = False

    def begin(self, view) -> None:
        self.focus = 0
        self.lost = False

    def _refresh(self, view: BoxView) -> None:
        if self.lost or not view.covered[self.focus]:
            return
        uncovered = np.flatnonzero(~view.covered)
        if len(uncovered) == 0:
            self.lost = True
        else:
            self.focus = int(uncovered[0])

    def decide(self, view: BoxView, item: Item) -> bool:
        if item.owner != UNOWNED:
            return False
        self._refresh(view)
        if self.lost:
            return False
        return item.label[0] == self.focus

    def box_turn(self, rt: _BoxRuntime, view: BoxView, quota: int) -> Optional[int]:
        """Fast turn for tapes ordered in advance: take the next ``quota``
        focus-box balls as one slice of its positions.  Returns the number
        of takes, or None to fall back to the generic per-ball loop.

        The focus cannot change mid-turn (Maker does not move during
        Breaker's turn), and every focus-box ball ahead of Breaker's pointer
        is unowned: Maker owning one would mean the box is covered, and
        Breaker only ever takes at its own pointer.  The ball that kills the
        focus box is its last one, so the slice ends there by itself.
        """
        if rt.box_positions is None:
            return None
        self._refresh(view)
        state, goal = rt.state, rt.goal
        if self.lost:
            state.breaker_ptr = state.revealed_upto = state.n
            return 0
        m = goal.m
        lo, hi = self.focus * m, self.focus * m + m
        first = bisect_right(rt.box_positions, state.breaker_ptr, lo, hi)
        taken = rt.box_positions[first:min(first + quota, hi)]
        takes = len(taken)
        if takes:
            state.owner[np.asarray(taken) - 1] = BREAKER
            taken = taken.tolist()
            state.breaker_positions += taken
            state.breaker_ptr = taken[-1]
            if taken[-1] > state.revealed_upto:
                state.revealed_upto = taken[-1]
            # Balls behind Maker's pointer already belong to Breaker.
            ahead = taken[bisect_right(taken, state.maker_ptr):]
            rt.claims[self.focus] += ahead
            goal.breaker_gain(self.focus, len(ahead))
        if takes < quota and not goal.dead:
            # Ran out of focus-box balls: the scan sweeps to the stream end.
            state.breaker_ptr = state.revealed_upto = state.n
        return takes


def focus_breaker(config: BoxConfig) -> FocusBreaker:
    return FocusBreaker()


class AdversarialOrderer:
    """Adaptive ball supply: Breaker's scans see box 0 while it has stock;
    Maker's scans see the other boxes, lowest id first; when the preferred
    class is exhausted, fall back to the lowest-id box with stock."""

    def __init__(self, n: int):
        self.n = n

    def next_box(self, player: int, stock: Sequence[int]) -> int:
        n = self.n
        if player == BREAKER:
            if stock[0] > 0:
                return 0
            for box in range(1, n):
                if stock[box] > 0:
                    return box
        else:
            for box in range(1, n):
                if stock[box] > 0:
                    return box
            if stock[0] > 0:
                return 0
        raise RuntimeError("no stock left to order")


def adversarial_ordering(config: BoxConfig, trace) -> tuple:
    """Next (box, ball) the adversarial orderer supplies, as a pure function
    of the revealed trace.

    ``trace`` carries the full revealed history: an object or mapping with
    ``revealed_boxes`` (box ids in stream order so far) and ``scanning``
    (which player's pointer is at the frontier, "maker" or "breaker").
    """
    if isinstance(trace, dict):
        revealed = list(trace["revealed_boxes"])
        scanning = trace["scanning"]
    else:
        revealed = list(trace.revealed_boxes)
        scanning = trace.scanning
    player = MAKER if scanning == "maker" else BREAKER
    stock = [config.m] * config.n
    for box in revealed:
        stock[box] -= 1
        if stock[box] < 0:
            raise ValueError(f"trace over-reveals box {box}")
    box = AdversarialOrderer(config.n).next_box(player, stock)
    return (box, config.m - stock[box])


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def _breaker_claim(rt: _BoxRuntime, pos: int) -> None:
    state = rt.state
    state.assign(BREAKER, pos)
    state.breaker_ptr = pos
    if pos > state.revealed_upto:
        state.revealed_upto = pos
    if pos > state.maker_ptr:
        box = int(state.market.perm[pos - 1]) // rt.goal.m
        rt.claims[box].append(pos)
        rt.goal.breaker_gain(box)


def _maker_turn(rt: _BoxRuntime, maker: Strategy, view: BoxView) -> None:
    """Scan until Maker takes a ball; each unowned ball passed on the way
    now belongs to Breaker.  A Maker with a ``box_turn`` hook (the min-box
    Maker) jumps straight to its take on a tape ordered in advance.  Other
    Makers, and the adversarial tape, which is filled in as it is revealed,
    are offered each ball in turn.  Those Items are built eagerly from
    ``perm``: on this per-ball path, GameState.item's deferred labels cost
    half again as much."""
    hook = getattr(maker, "box_turn", None)
    if hook is not None and hook(rt, view) is not None:
        return
    state, goal = rt.state, rt.goal
    owner, costs, perm = state.owner, state.market.costs, state.market.perm
    m, total = goal.m, state.n
    while not goal.dead:
        pos = state.maker_ptr + 1
        if pos > total:
            goal.dead = True  # every uncovered box is out of balls
            break
        if pos > state.revealed_upto:
            rt.reveal_to(pos, MAKER)
        state.maker_ptr = pos
        if owner[pos - 1] != UNOWNED:
            continue
        label = divmod(int(perm[pos - 1]), m)
        if maker.decide(view, Item(pos, label, float(costs[pos - 1]), UNOWNED, True)):
            state.assign(MAKER, pos)
            break
        goal.breaker_gain(label[0])


def _breaker_turn(rt: _BoxRuntime, breaker: Strategy, view: BoxView) -> None:
    quota = view.b
    hook = getattr(breaker, "box_turn", None)
    if hook is not None:
        takes = hook(rt, view, quota)
        if takes is not None:
            return
    state, goal = rt.state, rt.goal
    owner, costs, perm = state.owner, state.market.costs, state.market.perm
    m, total = goal.m, state.n
    takes = 0
    while takes < quota and not goal.dead and state.breaker_ptr < total:
        pos = state.breaker_ptr + 1
        if pos > state.revealed_upto:
            rt.reveal_to(pos, BREAKER)
        state.breaker_ptr = pos
        if owner[pos - 1] != UNOWNED:
            continue
        item = Item(pos, divmod(int(perm[pos - 1]), m), float(costs[pos - 1]), UNOWNED, True)
        if breaker.decide(view, item):
            _breaker_claim(rt, pos)
            takes += 1


def play_box(config: BoxConfig, maker: Strategy, breaker: Strategy, *,
             seed: Optional[int] = None, damage_log: Optional[list] = None) -> Outcome:
    """Run one box game to completion.  Maker moves first; pointers persist
    across turns; the game ends the moment Maker covers every box or some
    uncovered box runs out of balls available to Maker.

    ``damage_log``, if given, collects (breaker_turns_so_far, max uncovered
    belongs-to-Breaker count) after every completed turn, for checking the
    bounded-damage invariant (at most b*i after i Breaker turns).
    """
    if seed is None:
        seed = config.seed
    rt = _BoxRuntime(config, seed)
    state, goal = rt.state, rt.goal
    maker_view = BoxView(rt, MAKER)
    breaker_view = BoxView(rt, BREAKER)
    maker.begin(maker_view)
    breaker.begin(breaker_view)

    def end_turn():
        state.turns_used += 1
        if damage_log is not None:
            damage_log.append((rt.breaker_turns, goal.max_uncovered))

    while not goal.dead:
        _maker_turn(rt, maker, maker_view)
        end_turn()
        if state.goal_met or goal.dead:
            break
        _breaker_turn(rt, breaker, breaker_view)
        rt.breaker_turns += 1
        end_turn()

    return _outcome_from_state(state, "box-starved", details={
        "winner": "maker" if state.goal_met else "breaker",
        "covered": goal.covered_count,
        "btb": goal.btb.tolist(),
        "breaker_turns": rt.breaker_turns,
    })


# --------------------------------------------------------------------------
# Scripted-ordering text format: one box id per line, exactly n*m lines
# --------------------------------------------------------------------------


def save_scripted_ordering(file, sequence: Sequence[int]) -> None:
    """Write ``sequence`` to ``file`` (a path or a writable file object)."""
    with _opened(file, "w") as out:
        for box in sequence:
            out.write(f"{int(box)}\n")


def load_scripted_ordering(file, n: int, m: int) -> tuple:
    """Read a sequence from ``file`` (a path or a readable file object) and
    check that it holds each of the n boxes exactly m times."""
    with _opened(file) as src:
        lines = [line for line in src if line.strip()]
    return _checked_sequence(lines, n, m)
