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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import (
    BREAKER,
    MAKER,
    UNOWNED,
    BoxLabels,
    HiddenInformationError,
    Item,
    Outcome,
    ProtocolViolation,
    Strategy,
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


@dataclass(frozen=True)
class BoxConfig:
    """Box game parameters.

    ordering is one of "random" (uses ``seed``), "adversarial", or
    "scripted" (uses ``sequence``, one box id per ball).  ``eps`` feeds the
    b0 regime marker: for b >= b0 = 100 eps^-2 ln n and m <= (1-eps) b n the
    focus Breaker wins a randomly ordered game with high probability.
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
        if self.ordering not in ("random", "adversarial", "scripted"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.ordering == "scripted":
            if self.sequence is None:
                raise ValueError("scripted ordering needs a sequence")
            seq = tuple(int(x) for x in self.sequence)
            if len(seq) != self.n * self.m:
                raise ValueError(f"sequence must have exactly n*m = {self.n * self.m} entries")
            for box in range(self.n):
                if seq.count(box) != self.m:
                    raise ValueError(f"box {box} appears {seq.count(box)} times, expected {self.m}")
            object.__setattr__(self, "sequence", seq)

    @property
    def b0(self) -> float:
        return 100.0 * self.eps ** -2 * math.log(self.n)

    @property
    def total(self) -> int:
        return self.n * self.m


class BoxState:
    """Live box-game accounting shared with the strategies' views.

    ``btb[box]`` counts the balls belonging to Breaker (taken by Breaker or
    passed by Maker's pointer); ``maker_count[box]`` counts Maker's balls.
    ``max_uncovered`` caches max(btb over uncovered boxes) so the min-box rule
    is O(1) per offer.
    """

    __slots__ = ("n", "m", "btb", "maker_count", "covered", "covered_count",
                 "max_uncovered")

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.btb = np.zeros(n, dtype=np.int64)
        self.maker_count = np.zeros(n, dtype=np.int64)
        self.covered = np.zeros(n, dtype=bool)
        self.covered_count = 0
        self.max_uncovered = 0

    def breaker_gain(self, box: int) -> bool:
        """Register one ball of ``box`` newly belonging to Breaker; True if
        that killed the box (uncovered and out of balls)."""
        c = self.btb[box] + 1
        self.btb[box] = c
        if not self.covered[box]:
            if c > self.max_uncovered:
                self.max_uncovered = int(c)
            if c >= self.m:
                return True
        return False

    def cover(self, box: int) -> bool:
        """Register Maker's first ball in ``box``; True if all boxes covered."""
        self.maker_count[box] += 1
        if not self.covered[box]:
            self.covered[box] = True
            self.covered_count += 1
            uncovered = ~self.covered
            self.max_uncovered = int(self.btb[uncovered].max()) if uncovered.any() else 0
        return self.covered_count == self.n


class _BoxRuntime:
    """Driver state: the (possibly lazily materialized) box tape, pointers,
    ownership, and the BoxState scoreboard."""

    __slots__ = ("cfg", "total", "boxes", "ball_ids", "costs", "owner", "frontier",
                 "maker_ptr", "breaker_ptr", "state", "orderer", "stock",
                 "box_positions", "game_over", "maker_won", "breaker_turns",
                 "maker_positions", "maker_labels", "breaker_positions",
                 "breaker_labels", "cover_position", "turns_used", "damage_log",
                 "seed_record")

    def __init__(self, cfg: BoxConfig, seed: Optional[int]):
        self.cfg = cfg
        self.total = cfg.total
        self.owner = np.zeros(self.total, dtype=np.int8)
        self.frontier = 0
        self.maker_ptr = 0
        self.breaker_ptr = 0
        self.state = BoxState(cfg.n, cfg.m)
        self.orderer = None
        self.stock = None
        self.box_positions = None
        self.game_over = False
        self.maker_won = False
        self.breaker_turns = 0
        self.turns_used = 0
        self.maker_positions: list[int] = []
        self.maker_labels: list = []
        self.breaker_positions: list[int] = []
        self.breaker_labels: list = []
        self.cover_position: Optional[int] = None
        self.damage_log: Optional[list] = None
        self.seed_record = seed

        if cfg.ordering == "random":
            if seed is None:
                raise ValueError("random ordering needs a seed")
            market = generate_market(self.total, seed, BoxLabels(cfg.n, cfg.m))
            self.boxes = market.box_of_positions()
            self.ball_ids = (market.perm % cfg.m).astype(np.int64)
            self.costs = market.costs
        elif cfg.ordering == "scripted":
            self.boxes = np.asarray(cfg.sequence, dtype=np.int64)
            self.ball_ids = np.empty(self.total, dtype=np.int64)
            counts = [0] * cfg.n
            for i, box in enumerate(cfg.sequence):
                self.ball_ids[i] = counts[box]
                counts[box] += 1
            rng = np.random.Generator(np.random.PCG64(mix_seed(seed or 0, 0)))
            self.costs = rng.random(self.total)
        else:  # adversarial: boxes materialize at the frontier
            self.boxes = np.full(self.total, -1, dtype=np.int64)
            self.ball_ids = np.zeros(self.total, dtype=np.int64)
            self.costs = np.zeros(self.total)
            self.orderer = AdversarialOrderer(cfg.n)
            self.stock = [cfg.m] * cfg.n

        if self.orderer is None:
            # Per-box sorted position lists for fast Breaker scans.
            order = np.argsort(self.boxes, kind="stable")
            bounds = np.searchsorted(self.boxes[order], np.arange(cfg.n + 1))
            self.box_positions = [order[bounds[i]:bounds[i + 1]] + 1
                                  for i in range(cfg.n)]

    def reveal_next(self, player: int) -> int:
        """Materialize and reveal the ball at the frontier; returns its box."""
        pos = self.frontier + 1
        if self.orderer is not None and self.boxes[pos - 1] < 0:
            box = self.orderer.next_box(player, self.stock)
            self.stock[box] -= 1
            self.boxes[pos - 1] = box
            self.ball_ids[pos - 1] = self.cfg.m - 1 - self.stock[box]
        self.frontier = pos
        return int(self.boxes[pos - 1])

    def box_at(self, pos: int, player: int) -> int:
        while self.frontier < pos:
            self.reveal_next(player)
        return int(self.boxes[pos - 1])

    def item_at(self, pos: int) -> Item:
        return Item(pos, (int(self.boxes[pos - 1]), int(self.ball_ids[pos - 1])),
                    float(self.costs[pos - 1]), int(self.owner[pos - 1]), True)

    def log_damage(self) -> None:
        if self.damage_log is not None:
            self.damage_log.append((self.breaker_turns, int(self.state.max_uncovered)))


class BoxView:
    """What a box-game strategy may see: the scoreboard (all derived from
    revealed balls), both pointers, and the revealed prefix of the tape."""

    __slots__ = ("_rt", "player")

    def __init__(self, rt: _BoxRuntime, player: int):
        self._rt = rt
        self.player = player

    @property
    def n_boxes(self) -> int:
        return self._rt.cfg.n

    @property
    def balls_per_box(self) -> int:
        return self._rt.cfg.m

    @property
    def b(self) -> int:
        return self._rt.cfg.b

    @property
    def maker_pointer(self) -> int:
        return self._rt.maker_ptr

    @property
    def breaker_pointer(self) -> int:
        return self._rt.breaker_ptr

    @property
    def revealed_upto(self) -> int:
        return self._rt.frontier

    @property
    def covered(self) -> np.ndarray:
        return self._rt.state.covered

    @property
    def btb_counts(self) -> np.ndarray:
        return self._rt.state.btb

    @property
    def max_uncovered_btb(self) -> int:
        return self._rt.state.max_uncovered

    def _check(self, pos: int) -> None:
        if not 1 <= pos <= self._rt.frontier:
            raise HiddenInformationError(f"position {pos} not revealed yet")

    def box_of(self, pos: int) -> int:
        self._check(pos)
        return int(self._rt.boxes[pos - 1])

    def owner_of(self, pos: int) -> int:
        self._check(pos)
        return int(self._rt.owner[pos - 1])


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
        """Fast turn for pre-materialized orderings: jump straight between
        focus-box positions.  Returns the number of takes, or None to fall
        back to the generic per-ball loop.

        The focus cannot change mid-turn (Maker does not move during
        Breaker's turn), and every focus-box ball ahead of Breaker's pointer
        is unowned: Maker owning one would mean the box is covered, and
        Breaker only ever takes at its own pointer.
        """
        if rt.box_positions is None:
            return None
        self._refresh(view)
        if self.lost:
            rt.breaker_ptr = rt.total
            rt.frontier = max(rt.frontier, rt.total)
            return 0
        positions = rt.box_positions[self.focus]
        idx = int(np.searchsorted(positions, rt.breaker_ptr + 1))
        takes = 0
        while takes < quota and not rt.game_over and idx < len(positions):
            _breaker_claim(rt, int(positions[idx]))
            idx += 1
            takes += 1
        if takes < quota and not rt.game_over:
            # Ran out of focus-box balls: the scan sweeps to the stream end.
            rt.breaker_ptr = rt.total
            rt.frontier = max(rt.frontier, rt.total)
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
    rt.owner[pos - 1] = BREAKER
    rt.breaker_ptr = pos
    rt.frontier = max(rt.frontier, pos)
    rt.breaker_positions.append(pos)
    rt.breaker_labels.append((int(rt.boxes[pos - 1]), int(rt.ball_ids[pos - 1])))
    if pos > rt.maker_ptr:
        if rt.state.breaker_gain(int(rt.boxes[pos - 1])):
            rt.game_over = True


def _maker_turn(rt: _BoxRuntime, maker: Strategy, view: BoxView) -> None:
    state = rt.state
    while not rt.game_over:
        if rt.maker_ptr >= rt.total:
            rt.game_over = True  # exhausted the stream with boxes uncovered
            break
        pos = rt.maker_ptr + 1
        box = rt.box_at(pos, MAKER)
        rt.maker_ptr = pos
        if rt.owner[pos - 1] != UNOWNED:
            continue
        item = rt.item_at(pos)
        if maker.decide(view, item):
            if item.owner != UNOWNED:
                raise ProtocolViolation("maker tried to take an owned ball")
            rt.owner[pos - 1] = MAKER
            rt.maker_positions.append(pos)
            rt.maker_labels.append(item.label)
            if state.cover(box):
                rt.game_over = True
                rt.maker_won = True
                rt.cover_position = pos
            break
        if state.breaker_gain(box):
            rt.game_over = True


def _breaker_turn(rt: _BoxRuntime, breaker: Strategy, view: BoxView) -> None:
    quota = rt.cfg.b
    hook = getattr(breaker, "box_turn", None)
    if hook is not None:
        takes = hook(rt, view, quota)
        if takes is not None:
            return
    takes = 0
    while takes < quota and not rt.game_over and rt.breaker_ptr < rt.total:
        pos = rt.breaker_ptr + 1
        rt.box_at(pos, BREAKER)
        rt.breaker_ptr = pos
        if rt.owner[pos - 1] != UNOWNED:
            continue
        item = rt.item_at(pos)
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
    rt.damage_log = damage_log
    maker_view = BoxView(rt, MAKER)
    breaker_view = BoxView(rt, BREAKER)
    maker.begin(maker_view)
    breaker.begin(breaker_view)

    while not rt.game_over:
        _maker_turn(rt, maker, maker_view)
        rt.turns_used += 1
        rt.log_damage()
        if rt.game_over:
            break
        _breaker_turn(rt, breaker, breaker_view)
        rt.breaker_turns += 1
        rt.turns_used += 1
        rt.log_damage()

    costs = rt.costs
    return Outcome(
        success=rt.maker_won,
        maker_cost=math.fsum(costs[p - 1] for p in rt.maker_positions),
        maker_items=tuple(rt.maker_labels),
        breaker_items=tuple(rt.breaker_labels),
        maker_positions=tuple(rt.maker_positions),
        breaker_positions=tuple(rt.breaker_positions),
        M=rt.cover_position,
        turns_used=rt.turns_used,
        n=rt.total,
        seed=rt.seed_record,
        failure_phase=None if rt.maker_won else "box-starved",
        details={
            "winner": "maker" if rt.maker_won else "breaker",
            "covered": int(rt.state.covered_count),
            "btb": rt.state.btb.tolist(),
            "breaker_turns": rt.breaker_turns,
        },
    )


# --------------------------------------------------------------------------
# Scripted-ordering text format: one box id per line, exactly n*m lines
# --------------------------------------------------------------------------


def save_scripted_ordering(file, sequence: Sequence[int]) -> None:
    close = False
    if isinstance(file, (str, bytes)):
        file = open(file, "w")
        close = True
    try:
        for box in sequence:
            file.write(f"{int(box)}\n")
    finally:
        if close:
            file.close()


def load_scripted_ordering(file, n: int, m: int) -> tuple:
    close = False
    if isinstance(file, (str, bytes)):
        file = open(file)
        close = True
    try:
        seq = tuple(int(line) for line in file if line.strip())
    finally:
        if close:
            file.close()
    if len(seq) != n * m:
        raise ValueError(f"expected exactly {n * m} lines, got {len(seq)}")
    for box in range(n):
        if seq.count(box) != m:
            raise ValueError(f"box {box} appears {seq.count(box)} times, expected {m}")
    return seq
