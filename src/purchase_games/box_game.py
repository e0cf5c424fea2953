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

``play_box`` plays one game of any ordering and strategies.  The turn rules
have three implementations:

- per-ball offers (``_maker_turn``, ``_breaker_turn``), for any pair on any
  tape, ``SlowTurns`` wrappers included; the reference for the other two;
- the ``box_turn`` hooks of ``MinboxMaker`` and ``FocusBreaker``, which play
  a turn without offers on a tape ordered in advance, against any opponent;
- ``_play_minbox_fixed_p``, one loop a game for the exact ``MinboxMaker``
  against an exact ``RandomStrategy``, ``AlwaysTake`` or ``NeverTake`` on
  every tape; ``play_adversarial_block`` plays blocks of adversarially
  ordered games through it for the harness.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from .engine import (
    BREAKER,
    MAKER,
    UNOWNED,
    AlwaysTake,
    BoxLabels,
    GameRules,
    GameState,
    Goal,
    Item,
    Market,
    NeverTake,
    Outcome,
    RandomStrategy,
    Strategy,
    View,
    _generator,
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
    "play_adversarial_block",
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
    # With the length right, an id outside 0..n-1 leaves some box short.
    counts = np.bincount(np.array([box for box in seq if 0 <= box < n], dtype=np.int64),
                         minlength=n)
    wrong = np.flatnonzero(counts != m)
    if wrong.size:
        box = int(wrong[0])
        raise ValueError(f"box {box} appears {counts[box]} times, expected {m}")
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

    Maker's goal is one ball in every box.  The scoreboard is two Python
    lists of n entries, read and written one box at a time: ``btb[box]``
    counts the balls belonging to Breaker (taken by Breaker or passed by
    Maker's pointer), and ``covered[box]`` says whether Maker holds a ball
    of the box.  ``max_uncovered`` caches max(btb over uncovered boxes), the
    count at which the min-box rule takes a ball; a Maker scan cannot raise
    it, so the min-box Maker can jump straight to its next take.  ``dead``
    is set once an uncovered box has all its balls belonging to Breaker,
    which ends the game with a Breaker win.
    """

    __slots__ = ("n", "m", "btb", "covered", "covered_count", "max_uncovered", "dead")

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.btb = [0] * n
        self.covered = [False] * n
        self.covered_count = 0
        self.max_uncovered = 0
        self.dead = False

    def breaker_gain(self, box: int, count: int = 1) -> None:
        """Register ``count`` balls of ``box`` newly belonging to Breaker."""
        c = self.btb[box] + count
        self.btb[box] = c
        if not self.covered[box]:
            if c > self.max_uncovered:
                self.max_uncovered = c
            if c >= self.m:
                self.dead = True

    def on_maker_take(self, label) -> bool:
        box = label[0]
        if not self.covered[box]:
            self.covered[box] = True
            self.covered_count += 1
            self.max_uncovered = max((c for c, cov in zip(self.btb, self.covered) if not cov),
                                     default=0)
        return self.covered_count == self.n


@functools.lru_cache(maxsize=32)
def _box_rules(b: int, n: int, m: int) -> GameRules:
    """One GameRules per game shape; its goal factory makes each game's
    BoxState."""
    return GameRules(b, goal=functools.partial(BoxState, n, m))


class _BoxRuntime:
    """Box-only driver state beside the engine's GameState, which holds the
    tape, pointers, ownership and purchases: the adversarial orderer and its
    stock (None on a tape ordered in advance), every box's positions in
    stream order, box b's at indices b*m to b*m + m - 1 (None on an
    adversarial tape), each box's positions that Breaker took ahead of
    Maker's pointer, in stream order, and the number of Breaker turns.
    ``owner`` and ``ranks`` view the game's owners and the tape's ranks
    (``market.perm``, which the orderer fills in on an adversarial tape)
    without copying them.  These views and ``box_positions`` are
    memoryviews, so that the per-ball loops and ``bisect`` read Python ints
    from them rather than numpy scalars; a ball's box is its rank // m.
    With ``scans`` False, for a game ``_play_minbox_fixed_p`` plays, neither
    the positions nor the claims are built."""

    __slots__ = ("state", "goal", "orderer", "stock", "box_positions", "claims",
                 "breaker_turns", "owner", "ranks")

    def __init__(self, cfg: BoxConfig, seed: Optional[int], scans: bool = True):
        n, m, total = cfg.n, cfg.m, cfg.total
        labels = BoxLabels(n, m)
        self.orderer = self.stock = self.box_positions = self.claims = None
        if cfg.ordering == "adversarial":
            # Costless; the orderer fills in perm as each ball is revealed.
            market = Market(total, np.zeros(total), labels, seed,
                            perm=np.full(total, -1, dtype=np.int64))
            self.orderer = AdversarialOrderer(n)
            self.stock = [m] * n
        else:
            if seed is None:
                raise ValueError(f"{cfg.ordering} ordering needs a seed")
            if cfg.ordering == "random":
                market = generate_market(total, seed, labels)
                if scans:
                    # Box b's balls hold ranks b*m .. b*m + m - 1, so each row
                    # of the inverse permutation, sorted, is one box's positions.
                    order = np.empty(total, dtype=np.min_scalar_type(total))
                    order[market.perm] = np.arange(1, total + 1, dtype=order.dtype)
                    order.reshape(n, m).sort(axis=1)
                    self.box_positions = memoryview(order)
            else:
                # Box ids in the narrowest unsigned dtype, which numpy sorts by radix;
                # stable, so that box b's j-th ball is rank b*m + j of the tape.
                order = np.argsort(np.asarray(cfg.sequence, dtype=np.min_scalar_type(n - 1)),
                                   kind="stable")
                perm = np.empty(total, dtype=np.int64)
                perm[order] = np.arange(total)  # rank b*m + j
                costs = _generator(mix_seed(seed, 0)).random(total)
                market = Market(total, costs, labels, seed, perm=perm)
                if scans:
                    order += 1
                    self.box_positions = memoryview(order)
        if scans:
            self.claims = [[] for _ in range(n)]
        self.state = GameState(market, _box_rules(cfg.b, n, m), seed_record=seed)
        self.goal = self.state._goal
        self.owner, self.ranks = memoryview(self.state.owner), memoryview(market.perm)
        self.breaker_turns = 0

    def reveal_to(self, pos: int, player: int) -> None:
        """Reveal the tape through ``pos``; on an adversarial tape the orderer
        places each newly revealed ball for the scanning ``player``."""
        state = self.state
        if self.stock is not None:
            ranks, m = self.ranks, self.goal.m
            for p in range(state.revealed_upto + 1, pos + 1):
                box = self.orderer.next_box(player, self.stock)
                self.stock[box] -= 1
                ranks[p - 1] = box * m + m - 1 - self.stock[box]
        state.revealed_upto = pos


class BoxView(View):
    """A View of the box game that adds the scoreboard (derived from revealed
    balls only) and each revealed ball's box.  ``covered`` and
    ``btb_counts`` are the game's own scoreboard lists, not copies: a
    strategy reads them and must not write to them."""

    __slots__ = ("_goal",)

    def __init__(self, rt: _BoxRuntime, player: int):
        super().__init__(rt.state, player)
        self._goal = rt.goal

    @property
    def covered(self) -> list:
        return self._goal.covered

    @property
    def btb_counts(self) -> list:
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
        box = item.label[0]
        return (item.owner == UNOWNED and not view.covered[box]
                and view.btb_counts[box] >= view.max_uncovered_btb)

    def box_turn(self, rt: _BoxRuntime, view: BoxView) -> Optional[int]:
        """Fast turn for tapes ordered in advance: take the ball ``decide``
        would take without offering any.  Returns the position taken, or
        None to fall back to the generic per-ball loop.

        While Maker scans, ``max_uncovered`` does not change: Maker passes a
        ball of an uncovered box only while that box's count is below the
        maximum.  Most turns take within a few balls, so the turn first
        applies ``decide``'s rule ball by ball to the 2n balls past the
        pointer, skipping Breaker's and counting every other ball it passes,
        of a covered box too, against its box.  Failing a take there, it
        moves the pointer to the end of that scan and jumps: Maker takes the
        earliest, over uncovered boxes c, of the (max - btb[c] + 1)-th ball
        of c past its pointer that Breaker does not own, and every unowned
        ball it passes now belongs to Breaker.  Exactly m - btb[c] balls of
        c past the pointer are unowned, so while no box is dead every
        uncovered box has that ball, and the jump never runs off the end of
        the stream.  A box's passed balls are its positions between the
        pointer and the take less its claims there: each Breaker ball ahead
        of Maker's pointer is a claim, and Maker owns none there.
        """
        if rt.box_positions is None:
            return None
        state, goal = rt.state, rt.goal
        start, top, m = state.maker_ptr, goal.max_uncovered, goal.m
        covered, btb, owner, ranks = goal.covered, goal.btb, rt.owner, rt.ranks
        end = min(start + 2 * goal.n, state.n)
        for take in range(start + 1, end + 1):
            if owner[take - 1] != UNOWNED:
                continue
            box = ranks[take - 1] // m
            if not covered[box] and btb[box] >= top:
                break
            btb[box] += 1
        else:
            start = end
            positions, claims = rt.box_positions, rt.claims
            take = min(_free_ball(positions, box * m, box * m + m, claims[box], start,
                                  top - count + 1)
                       for box, (cov, count) in enumerate(zip(covered, btb)) if not cov)
            if take > start + 1:
                for box, mine in enumerate(claims):
                    lo = box * m
                    first = bisect_right(positions, start, lo, lo + m)
                    if first < lo + m and positions[first] < take:
                        btb[box] += (bisect_right(positions, take - 1, first, lo + m) - first
                                     - bisect_right(mine, take - 1) + bisect_right(mine, start))
        state.maker_ptr = take
        state.revealed_upto = max(state.revealed_upto, take)
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

    def begin(self, view) -> None:
        self.focus = 0

    def _refresh(self, view: BoxView) -> None:
        # Some box is uncovered whenever Breaker moves: play_box ends the
        # game as soon as Maker covers the last one.
        covered = view.covered
        if covered[self.focus]:
            self.focus = covered.index(False)

    def decide(self, view: BoxView, item: Item) -> bool:
        if item.owner != UNOWNED:
            return False
        self._refresh(view)
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
            state.revealed_upto = max(state.revealed_upto, taken[-1])
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


def play_adversarial_block(n: int, m: int, b: int, p: float, rows: int,
                           draws: Optional[np.ndarray] = None) -> np.ndarray:
    """Whether Maker wins each of ``rows`` adversarially ordered games of the
    min-box Maker against a Breaker that takes each unowned ball it is
    offered with probability ``p``, with ``play_box``'s results, game by
    game: each game is played by ``_play_minbox_fixed_p`` on plain lists.

    ``draws[row]`` holds the n*m doubles of that game's Breaker, used one
    per unowned ball it is offered, in order; it takes the ball when the
    double is below ``p``.  With ``p`` at most 0 or at least 1 no double
    decides anything, and ``draws`` may be None.  Breaker is offered fewer
    than n*m unowned balls (Maker always takes ball 1), so a game never
    runs out of doubles."""
    total = n * m
    drawing = 0.0 < p < 1.0
    success = np.zeros(rows, dtype=bool)
    for row in range(rows):
        goal = BoxState(n, m)
        _play_minbox_fixed_p(goal, b, p, [UNOWNED] * total, [0] * total, 0,
                             (lambda row=row: draws[row].tolist()) if drawing else None,
                             [], [], None)
        success[row] = goal.covered_count == n
    return success


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def _breaker_claim(rt: _BoxRuntime, pos: int) -> None:
    state = rt.state
    state.assign(BREAKER, pos)
    state.breaker_ptr = pos
    if pos > state.maker_ptr:
        box = rt.ranks[pos - 1] // rt.goal.m
        rt.claims[box].append(pos)
        rt.goal.breaker_gain(box)


def _maker_turn(rt: _BoxRuntime, maker: Strategy, view: BoxView) -> None:
    """Scan until Maker takes a ball; each unowned ball passed on the way
    now belongs to Breaker.  A Maker with a ``box_turn`` hook (the min-box
    Maker) plays its turn without offers on a tape ordered in advance.
    Other Makers, and the adversarial tape, which is filled in as it is
    revealed, are offered each ball in turn.  Those Items are built eagerly
    from ``rt.ranks``: on this per-ball path, GameState.item's deferred
    labels cost half again as much.  The scan never runs past the stream
    end: an uncovered box starves at its last ball before then."""
    hook = getattr(maker, "box_turn", None)
    if hook is not None and hook(rt, view) is not None:
        return
    state, goal = rt.state, rt.goal
    owner, costs, ranks = rt.owner, state.market.costs, rt.ranks
    m = goal.m
    while not goal.dead:
        pos = state.maker_ptr + 1
        if pos > state.revealed_upto:
            rt.reveal_to(pos, MAKER)
        state.maker_ptr = pos
        if owner[pos - 1] != UNOWNED:
            continue
        label = divmod(ranks[pos - 1], m)
        if maker.decide(view, Item(pos, label, float(costs[pos - 1]), UNOWNED, True)):
            state.assign(MAKER, pos)
            break
        goal.breaker_gain(label[0])


def _take_probability(breaker: Strategy) -> Optional[float]:
    """The probability p with which ``breaker`` takes each unowned ball it
    is offered, for a Breaker that plays no other way: a ``RandomStrategy``
    its p, ``AlwaysTake`` 1 and ``NeverTake`` 0.  None for any other
    strategy, a subclass or a ``SlowTurns`` wrapper of these included."""
    kind = type(breaker)
    if kind is RandomStrategy:
        return breaker.p
    return {AlwaysTake: 1.0, NeverTake: 0.0}.get(kind)


def _breaker_turn(rt: _BoxRuntime, breaker: Strategy, view: BoxView) -> None:
    """Scan until Breaker has taken ``b`` balls, an uncovered box is dead or
    the stream ends.  A Breaker with a ``box_turn`` hook (the focus Breaker)
    claims its quota in one step on a tape ordered in advance.  A Breaker
    with a fixed take probability (``_take_probability``) is offered no
    Item: the scan takes each unowned ball when a ``RandomStrategy``'s next
    double is below p, drawn as its ``decide`` draws it, or always for
    ``AlwaysTake``; ``NeverTake`` sweeps to the stream end in one step.
    Other Breakers are offered each unowned ball."""
    quota = view.b
    hook = getattr(breaker, "box_turn", None)
    if hook is not None and hook(rt, view, quota) is not None:
        return
    state, goal = rt.state, rt.goal
    m, total = goal.m, state.n
    p = _take_probability(breaker)
    draw = breaker._rng.random if type(breaker) is RandomStrategy else None
    if p is not None and draw is None and p <= 0.0:
        rt.reveal_to(total, BREAKER)
        state.breaker_ptr = total
        return
    owner, ranks, costs = rt.owner, rt.ranks, state.market.costs
    takes = 0
    while takes < quota and not goal.dead and state.breaker_ptr < total:
        pos = state.breaker_ptr + 1
        if pos > state.revealed_upto:
            rt.reveal_to(pos, BREAKER)
        state.breaker_ptr = pos
        if owner[pos - 1] != UNOWNED:
            continue
        if p is None:
            item = Item(pos, divmod(ranks[pos - 1], m), float(costs[pos - 1]), UNOWNED, True)
            take = breaker.decide(view, item)
        else:
            take = draw is None or draw() < p
        if take:
            _breaker_claim(rt, pos)
            takes += 1


_DRAWS = 32  # doubles a random Breaker draws at once in _play_minbox_fixed_p


def _play_minbox_fixed_p(goal: BoxState, b: int, p: float, owner, ranks, front: int,
                         draw_block, maker_positions: list, breaker_positions: list,
                         damage_log: Optional[list]) -> tuple:
    """Play a whole game of the exact ``MinboxMaker`` against a Breaker that
    takes each unowned ball it is offered with probability ``p``
    (``_take_probability``), with the per-turn driver's rules and results.
    ``owner`` and ``ranks`` hold each ball's owner and rank; positions taken
    are appended to the two lists, and ``goal``'s scoreboard is updated.

    A random Breaker's doubles come from ``draw_block()``, a list at a
    time, one per unowned ball it is offered; it takes the ball when the
    double is below ``p``.  Without doubles it takes every unowned ball when
    ``p`` >= 1 and none otherwise.  The balls past ``front`` (the tape's
    length on a tape ordered in advance, 0 on an adversarial one) are placed
    when a pointer first reaches them, as ``AdversarialOrderer`` places
    them: boxes 1 .. n-1 lowest id first, box 0 to Breaker first, and each
    player falling back to the other pool; the rank goes into ``ranks`` as
    ``_BoxRuntime.reveal_to`` writes it.

    The pointers, the maximum count over uncovered boxes and the turn
    counters are locals.  A ball Maker passes cannot raise its box's count
    to the maximum, so no box dies and no scan runs off the stream while
    Maker moves.  Breaker's takes count only ahead of Maker's pointer:
    behind it every unowned ball already belongs to Breaker.  Returns
    (Maker's pointer, Breaker's pointer, Breaker turns, turns, doubles of
    the last block left unused)."""
    n, m = goal.n, goal.m
    total, other = n * m, (n - 1) * m
    btb, covered, uncovered = goal.btb, goal.covered, [True] * n
    log = damage_log.append if damage_log is not None else None
    doubles = iter(())
    mp = bp = top = covered_count = breaker_turns = turns = zero = drawn = 0
    while True:
        while True:
            mp += 1
            if owner[mp - 1] == UNOWNED:
                if mp > front:  # placed for Maker
                    front = mp
                    if drawn < other:
                        ranks[mp - 1] = m + drawn
                        drawn += 1
                    else:
                        ranks[mp - 1] = zero
                        zero += 1
                box = ranks[mp - 1] // m
                if uncovered[box] and btb[box] >= top:
                    break
                btb[box] += 1
        owner[mp - 1] = MAKER
        maker_positions.append(mp)
        covered[box] = True
        uncovered[box] = False
        covered_count += 1
        turns += 1
        top = max(compress(btb, uncovered), default=0)
        if log is not None:
            log((breaker_turns, top))
        if covered_count == n:
            break
        takes = 0
        while takes < b and bp < total:
            bp += 1
            if owner[bp - 1] != UNOWNED:
                continue
            if bp > front:  # placed for Breaker
                front = bp
                if zero < m:
                    ranks[bp - 1] = zero
                    zero += 1
                else:
                    ranks[bp - 1] = m + drawn
                    drawn += 1
            if draw_block is not None:
                try:
                    double = next(doubles)
                except StopIteration:
                    doubles = iter(draw_block())
                    double = next(doubles)
                if double >= p:
                    continue
            elif p <= 0.0:
                continue
            owner[bp - 1] = BREAKER
            breaker_positions.append(bp)
            takes += 1
            if bp > mp:
                box = ranks[bp - 1] // m
                c = btb[box] = btb[box] + 1
                if uncovered[box] and c > top:
                    top = c
                    if top >= m:  # the box is dead
                        break
        breaker_turns += 1
        turns += 1
        if log is not None:
            log((breaker_turns, top))
        if top >= m:
            break
    goal.covered_count, goal.max_uncovered, goal.dead = covered_count, top, top >= m
    return mp, bp, breaker_turns, turns, operator.length_hint(doubles)


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
    p = _take_probability(breaker)
    loop = type(maker) is MinboxMaker and p is not None
    rt = _BoxRuntime(config, seed, scans=not loop)
    state, goal = rt.state, rt.goal
    maker_view = BoxView(rt, MAKER)
    breaker_view = BoxView(rt, BREAKER)
    maker.begin(maker_view)
    breaker.begin(breaker_view)
    if loop:
        rng = breaker._rng if type(breaker) is RandomStrategy else None
        mp, bp, rt.breaker_turns, state.turns_used, unused = _play_minbox_fixed_p(
            goal, config.b, p, rt.owner, rt.ranks,
            0 if config.ordering == "adversarial" else config.total,
            None if rng is None else lambda: rng.random(_DRAWS).tolist(),
            state.maker_positions, state.breaker_positions, damage_log)
        if unused:  # hand them back: the generator ends where per-ball draws leave it
            rng.bit_generator.advance(2**128 - unused)
        state.maker_ptr, state.breaker_ptr, state.revealed_upto = mp, bp, max(mp, bp)
        if goal.covered_count == config.n:
            state.goal_met, state.goal_position = True, mp

    def end_turn():
        state.turns_used += 1
        if damage_log is not None:
            damage_log.append((rt.breaker_turns, goal.max_uncovered))

    while not (state.goal_met or goal.dead):
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
        "btb": list(goal.btb),
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
