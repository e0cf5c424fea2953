"""Core engine for online purchase games on a randomly permuted, randomly priced stream.

A market is a random permutation of labeled items, each with an independent
uniform [0, 1] cost.  Two players, Maker and Breaker, scan the stream with
independent monotone pointers.  Breaker moves first and may take up to ``b``
items per turn; Maker then scans and takes at most one item per turn (either
an item Breaker rejected, or a freshly revealed one).  Costs and labels are
revealed to both players as either pointer passes over an item.  Maker wins
when its purchased labels satisfy the goal predicate; the game ends when the
goal is met or Maker's pointer exhausts the stream.

Optionally the stream is split into ``phase_count`` contiguous phases and
Breaker may not enter a phase until Maker has reached the end of the previous
one.  While Breaker is blocked at a phase boundary, Maker may take any number
of items up to that boundary before Breaker resumes.

Everything here is a plain value or per-game object: many games can run
concurrently with no shared mutable state, and a game's outcome depends only
on (market seed, strategies), never on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "UNOWNED",
    "MAKER",
    "BREAKER",
    "ProtocolViolation",
    "HiddenInformationError",
    "mix_seed",
    "Item",
    "IndexLabels",
    "EdgeLabels",
    "BoxLabels",
    "Market",
    "generate_market",
    "dump_market",
    "phase_ends",
    "phase_of_position",
    "PhaseBounds",
    "GameRules",
    "Goal",
    "OwnAnyItem",
    "GameState",
    "View",
    "phase_gate",
    "reveal",
    "TurnContext",
    "Strategy",
    "ScheduleStrategy",
    "AlwaysTake",
    "NeverTake",
    "RandomStrategy",
    "SlowTurns",
    "StagedScanner",
    "Outcome",
    "play",
]

UNOWNED = 0
MAKER = 1
BREAKER = 2

_OWNER_NAMES = {UNOWNED: "unowned", MAKER: "maker", BREAKER: "breaker"}

_MASK64 = (1 << 64) - 1


class ProtocolViolation(RuntimeError):
    """A strategy or caller attempted an illegal move (taking an owned item,
    revealing out of order, regressing a pointer)."""


class HiddenInformationError(RuntimeError):
    """A strategy asked its view for data that has not been revealed yet."""


def mix_seed(master: int, index: int) -> int:
    """Derive a 64-bit child seed from a master seed and an index.

    This is the splitmix64 finalizer applied to ``master + (index + 1) * phi``
    where phi is the 64-bit golden-ratio increment.  The construction is fixed
    forever: identical (master, index) pairs give identical child seeds on any
    platform, which is what makes parallel trial execution reproducible.
    """
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# --------------------------------------------------------------------------
# Labels and markets
# --------------------------------------------------------------------------


class _Deferred:
    """A frozen-dataclass field whose value may be computed on first read.

    A value passed to the constructor lands in the instance dict, which
    shadows this non-data descriptor, so ordinary construction costs nothing
    extra.  ``_deferred`` instead stores a zero-argument callable under
    ``_<name>``; the first read calls it and keeps the result.  Equality,
    hashing and repr read the field, so they cannot tell the two apart.
    """

    def __set_name__(self, owner, name):
        self.name = name
        self.pending = "_" + name

    def __get__(self, obj, objtype=None):
        if obj is None:
            raise AttributeError(self.name)  # the field has no default
        d = obj.__dict__
        value = d[self.name] = d[self.pending]()
        del d[self.pending]
        return value


def _deferred(cls, pending: dict, **values):
    """An instance of the frozen dataclass ``cls`` with the given field
    values, except that each field in ``pending`` (name -> zero-argument
    callable) is computed when it is first read."""
    obj = object.__new__(cls)
    d = obj.__dict__
    d.update(values)
    for name, thunk in pending.items():
        d["_" + name] = thunk
    return obj


@dataclass(frozen=True)
class Item:
    """One stream entry as visible at a moment in time.

    position is 1-based.  cost is in [0, 1].  owner is UNOWNED / MAKER /
    BREAKER.  revealed is True once either pointer has passed the item.
    Items made by the engine look their label up when it is first read.
    """

    position: int
    label: object = _Deferred()
    cost: float
    owner: int
    revealed: bool


class IndexLabels:
    """Label universe 1..n for plain item games."""

    def __init__(self, n: int):
        self.size = n

    def label_of_rank(self, rank: int) -> int:
        return rank + 1

    def format_label(self, label) -> str:
        return str(label)


class EdgeLabels:
    """Label universe: edges of the complete graph on ``vertices`` vertices.

    Labels are pairs (u, v) with 0 <= u < v < vertices.  Ranks enumerate
    edges in lexicographic order; endpoint arrays are exposed so edge-game
    strategies can build per-position masks without materializing tuples.
    """

    def __init__(self, vertices: int):
        if vertices < 2:
            raise ValueError("need at least 2 vertices")
        self.vertices = vertices
        self.size = vertices * (vertices - 1) // 2
        u, v = np.triu_indices(vertices, k=1)
        self.rank_u = u.astype(np.int32)
        self.rank_v = v.astype(np.int32)
        # _row_offset[a] = rank of edge (a, a+1)
        degs = np.arange(vertices - 1, 0, -1, dtype=np.int64)
        self._row_offset = np.concatenate(([0], np.cumsum(degs)))

    def label_of_rank(self, rank: int):
        return (int(self.rank_u[rank]), int(self.rank_v[rank]))

    def edge_rank(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        return int(self._row_offset[a]) + (b - a - 1)

    def format_label(self, label) -> str:
        return f"{label[0]}-{label[1]}"


class BoxLabels:
    """Label universe: (box, ball) pairs for the box game.

    Ranks enumerate box-major: rank r maps to box r // balls_per_box (0-based)
    and ball r % balls_per_box.
    """

    def __init__(self, boxes: int, balls_per_box: int):
        self.boxes = boxes
        self.balls_per_box = balls_per_box
        self.size = boxes * balls_per_box

    def label_of_rank(self, rank: int):
        return (rank // self.balls_per_box, rank % self.balls_per_box)

    def format_label(self, label) -> str:
        return f"{label[0]}:{label[1]}"


class Market:
    """An immutable priced stream: n positions, each holding one label and one cost.

    ``perm[i]`` is the universe rank of the label at position i+1; it is
    materialized lazily from its own child seed, on the first read of a
    label.  Costs are eager.  The game driver reads no label on its own:
    ``Item.label``, ``View.label`` and ``View.my_labels``, the Outcome's
    ``maker_items``/``breaker_items`` and goals that look at labels are what
    look them up.  So a plain item game, whose strategies and goal see only
    positions, costs and owners, never builds the permutation.
    """

    __slots__ = ("n", "costs", "universe", "seed", "_perm", "_perm_seed", "_inverse")

    def __init__(self, n: int, costs: np.ndarray, universe, seed: Optional[int],
                 perm: Optional[np.ndarray] = None, perm_seed: Optional[int] = None):
        if perm is None and perm_seed is None:
            raise ValueError("a market needs its permutation or the seed to build it from")
        self.n = n
        self.costs = costs
        self.universe = universe
        self.seed = seed
        self._perm = perm
        self._perm_seed = perm_seed
        self._inverse = None

    @property
    def perm(self) -> np.ndarray:
        if self._perm is None:
            self._perm = _permutation(self.n, self._perm_seed)
        return self._perm

    @property
    def inverse_perm(self) -> np.ndarray:
        """Position (0-based) of each universe rank."""
        if self._inverse is None:
            inv = np.empty(self.n, dtype=np.int64)
            inv[self.perm] = np.arange(self.n)
            self._inverse = inv
        return self._inverse

    def label(self, position: int):
        return self.universe.label_of_rank(int(self.perm[position - 1]))

    def cost(self, position: int) -> float:
        return float(self.costs[position - 1])

    def edge_endpoints(self):
        """Per-position endpoint arrays (u, v) for edge-label markets."""
        uni = self.universe
        return uni.rank_u[self.perm], uni.rank_v[self.perm]

    def box_of_positions(self) -> np.ndarray:
        """Per-position box ids for box-label markets."""
        return (self.perm // self.universe.balls_per_box).astype(np.int64)


def _permutation(n: int, seed: int) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(seed)).permutation(n)


def _labels_at(universe, n: int, perm_seed: int, positions: tuple) -> tuple:
    """Labels at ``positions`` of a market whose permutation was never built,
    from the permutation's seed alone."""
    perm = _permutation(n, perm_seed)
    return tuple(universe.label_of_rank(int(perm[p - 1])) for p in positions)


def generate_market(n: int, seed: int, labeler=None, cost_sampler=None) -> Market:
    """Build a market: a uniform random permutation of the universe's labels
    with i.i.d. uniform [0, 1] costs, fully determined by ``seed``.

    ``labeler`` defaults to plain index labels 1..n; pass an EdgeLabels or
    BoxLabels universe for edge and box games (its size must equal n).  Costs
    and permutation come from independent child seeds of ``seed``, so lazily
    materializing the permutation cannot disturb the costs.

    ``cost_sampler`` is the pluggable sampler hook: a callable
    ``(rng, n) -> array of n costs in [0, 1]``, defaulting to i.i.d. uniform.
    Everything downstream still assumes costs live in [0, 1].
    """
    if n < 1:
        raise ValueError(f"market size must be >= 1, got {n}")
    if labeler is None:
        labeler = IndexLabels(n)
    if labeler.size != n:
        raise ValueError(f"labeler has {labeler.size} labels but n={n}")
    cost_rng = np.random.Generator(np.random.PCG64(mix_seed(seed, 0)))
    if cost_sampler is None:
        costs = cost_rng.random(n)
    else:
        costs = np.asarray(cost_sampler(cost_rng, n), dtype=float)
        if costs.shape != (n,) or np.any(costs < 0) or np.any(costs > 1):
            raise ValueError("cost_sampler must return n costs in [0, 1]")
    return Market(n, costs, labeler, seed, perm=None, perm_seed=mix_seed(seed, 1))


def dump_market(market: Market, file) -> None:
    """Write one ``position,label,cost`` record per item, costs at 17
    significant digits."""
    uni = market.universe
    perm = market.perm
    for i in range(market.n):
        label = uni.format_label(uni.label_of_rank(int(perm[i])))
        file.write(f"{i + 1},{label},{market.costs[i]:.17g}\n")


# --------------------------------------------------------------------------
# Rules, phases, goals
# --------------------------------------------------------------------------


def phase_ends(n: int, phase_count: int) -> np.ndarray:
    """Last position of each phase, partitioning 1..n into ``phase_count``
    contiguous blocks of size floor(n/p) or ceil(n/p), larger blocks first."""
    if phase_count < 1:
        raise ValueError("phase_count must be >= 1")
    if phase_count > n:
        raise ValueError(f"cannot split {n} positions into {phase_count} phases")
    base, extra = divmod(n, phase_count)
    sizes = np.full(phase_count, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.cumsum(sizes)


def phase_of_position(position: int, ends: np.ndarray) -> int:
    """1-based phase index of a 1-based position."""
    return int(np.searchsorted(ends, position)) + 1


class PhaseBounds:
    """Bounds of the 1-based phases of a plan whose ``ends`` field lists the
    last position of each phase."""

    def phase_start(self, j: int) -> int:
        """First position of phase j; one past the stream when j exceeds
        the plan."""
        if j <= 1:
            return 1
        if j > len(self.ends):
            return int(self.ends[-1]) + 1
        return int(self.ends[j - 2]) + 1

    def phase_end(self, j: int) -> int:
        return int(self.ends[j - 1])


class Goal:
    """Incremental goal predicate over Maker's purchased labels.

    One instance serves one game: ``start`` is called when the game begins and
    ``on_maker_take`` after every Maker purchase, returning True once the goal
    is met.  Implementations may keep state; they see only Maker's own labels.
    A goal that never looks at labels sets ``_reads_labels = False`` and is
    passed None instead, so the market's permutation is not built for it.
    """

    _reads_labels = True

    def start(self, market: Market) -> None:
        pass

    def on_maker_take(self, label) -> bool:
        raise NotImplementedError


class OwnAnyItem(Goal):
    """Goal for the plain item game: own at least one item."""

    _reads_labels = False

    def on_maker_take(self, label) -> bool:
        return True


@dataclass
class GameRules:
    """Game parameters: Breaker's per-turn quota ``b``, the number of phases
    (1 = unrestricted), and a goal factory producing one fresh Goal per
    game."""

    b: int
    phase_count: int = 1
    goal: Callable[[], Goal] = OwnAnyItem

    def __post_init__(self):
        if self.b < 0:
            raise ValueError("Breaker quota b must be >= 0")
        if self.phase_count < 1:
            raise ValueError("phase_count must be >= 1")


class GameState:
    """Mutable state of one game in progress.

    Pointers count items passed (0 = before the first item).  ``revealed_upto``
    is the reveal frontier: exactly the items at positions <= revealed_upto are
    revealed, because reveals happen in stream order as pointers advance.
    Purchases are kept as positions; their labels are looked up on read.
    """

    __slots__ = (
        "market", "rules", "owner", "maker_ptr", "breaker_ptr", "revealed_upto",
        "maker_positions", "breaker_positions", "turns_used", "goal_met",
        "goal_position", "_goal", "ends", "seed_record", "trace",
    )

    def __init__(self, market: Market, rules: GameRules, seed_record=None,
                 record_trace: bool = False):
        n = market.n
        self.market = market
        self.rules = rules
        self.owner = np.zeros(n, dtype=np.int8)
        self.maker_ptr = 0
        self.breaker_ptr = 0
        self.revealed_upto = 0
        self.maker_positions: list[int] = []
        self.breaker_positions: list[int] = []
        self.turns_used = 0
        self.goal_met = False
        self.goal_position: Optional[int] = None
        self._goal = rules.goal()
        self._goal.start(market)
        self.ends = phase_ends(n, rules.phase_count)
        self.seed_record = seed_record
        self.trace = [] if record_trace else None

    @property
    def n(self) -> int:
        return self.market.n

    @property
    def maker_labels(self) -> list:
        return [self.market.label(p) for p in self.maker_positions]

    @property
    def breaker_labels(self) -> list:
        return [self.market.label(p) for p in self.breaker_positions]

    @property
    def maker_cost_paid(self) -> float:
        """Exact sum of Maker's purchase costs (correctly rounded)."""
        costs = self.market.costs
        return math.fsum(costs[p - 1] for p in self.maker_positions)

    def pointer(self, player: int) -> int:
        return self.maker_ptr if player == MAKER else self.breaker_ptr

    def item(self, position: int) -> Item:
        market = self.market
        return _deferred(
            Item, {"label": partial(market.label, position)},
            position=position,
            cost=float(market.costs[position - 1]),
            owner=int(self.owner[position - 1]),
            revealed=position <= self.revealed_upto,
        )

    def maker_finished_through(self) -> int:
        """Number of whole phases Maker's pointer has completed."""
        return int(np.searchsorted(self.ends, self.maker_ptr, side="right"))

    def breaker_stop(self) -> int:
        """Furthest position Breaker may reach this turn under the phase rule:
        the end of the phase after the last one Maker has finished."""
        if self.rules.phase_count == 1:
            return self.n
        done = self.maker_finished_through()
        allowed = min(done + 1, self.rules.phase_count)
        return int(self.ends[allowed - 1])

    def _advance(self, player: int, to: int) -> None:
        ptr = self.maker_ptr if player == MAKER else self.breaker_ptr
        if to < ptr:
            raise ProtocolViolation(f"pointer regression: {to} < {ptr}")
        if to > self.revealed_upto:
            self.revealed_upto = to
        if player == MAKER:
            self.maker_ptr = to
        else:
            self.breaker_ptr = to

    def assign(self, player: int, position: int) -> None:
        idx = position - 1
        if self.owner[idx] != UNOWNED:
            raise ProtocolViolation(
                f"item at position {position} already owned by "
                f"{_OWNER_NAMES[int(self.owner[idx])]}"
            )
        self.owner[idx] = player
        if player == MAKER:
            self.maker_positions.append(position)
            goal = self._goal
            if not self.goal_met and goal.on_maker_take(
                    self.market.label(position) if goal._reads_labels else None):
                self.goal_met = True
                self.goal_position = position
        else:
            self.breaker_positions.append(position)
        if self.trace is not None:
            self.trace.append(("take", player, position))


def phase_gate(state: GameState) -> bool:
    """True iff Breaker may advance past its current position.

    False exactly when the next position starts a phase whose predecessor
    Maker has not finished yet.  Always true for unrestricted games and at the
    end of the stream (end-of-stream is a separate blocking condition).
    """
    if state.rules.phase_count == 1:
        return True
    if state.breaker_ptr >= state.n:
        return True
    return state.breaker_ptr < state.breaker_stop()


def reveal(state: GameState, position: int) -> Item:
    """Reveal the item at ``position``, which must be the next unrevealed one.

    Reveals happen implicitly as pointers advance; this is the underlying
    primitive, exposed for scripted play and tests.
    """
    if position != state.revealed_upto + 1:
        raise ProtocolViolation(
            f"cannot reveal position {position}: frontier is at {state.revealed_upto}"
        )
    if position > state.n:
        raise ProtocolViolation("reveal past end of stream")
    state.revealed_upto = position
    return state.item(position)


class View:
    """What one player is allowed to see: everything revealed so far, both
    pointers, phase boundaries, and its own purchases.  Asking for any
    unrevealed cost or label raises HiddenInformationError."""

    __slots__ = ("_state", "player")

    def __init__(self, state: GameState, player: int):
        self._state = state
        self.player = player

    @property
    def n(self) -> int:
        return self._state.n

    @property
    def b(self) -> int:
        return self._state.rules.b

    @property
    def phase_count(self) -> int:
        return self._state.rules.phase_count

    @property
    def phase_ends(self) -> np.ndarray:
        return self._state.ends

    @property
    def maker_pointer(self) -> int:
        return self._state.maker_ptr

    @property
    def breaker_pointer(self) -> int:
        return self._state.breaker_ptr

    @property
    def revealed_upto(self) -> int:
        return self._state.revealed_upto

    def _check(self, position: int) -> None:
        if not (1 <= position <= self._state.revealed_upto):
            raise HiddenInformationError(
                f"position {position} is not revealed (frontier {self._state.revealed_upto})"
            )

    def cost(self, position: int) -> float:
        self._check(position)
        return float(self._state.market.costs[position - 1])

    def label(self, position: int):
        self._check(position)
        return self._state.market.label(position)

    def owner_of(self, position: int) -> int:
        self._check(position)
        return int(self._state.owner[position - 1])

    def item(self, position: int) -> Item:
        self._check(position)
        return self._state.item(position)

    def my_positions(self) -> tuple:
        st = self._state
        return tuple(st.maker_positions if self.player == MAKER else st.breaker_positions)

    def my_labels(self) -> tuple:
        st = self._state
        return tuple(st.maker_labels if self.player == MAKER else st.breaker_labels)


# --------------------------------------------------------------------------
# Turns and strategies
# --------------------------------------------------------------------------


class TurnContext:
    """One player's turn, with quota and stop position enforced.

    The acting strategy consumes the turn through ``offer_next`` (one item at
    a time) or ``seek`` (vectorized jump to the next candidate).  The turn is
    over when the quota is spent or the pointer reaches ``stop``; a strategy
    returning early from play_turn rejects the rest of its turn.
    """

    __slots__ = ("state", "player", "view", "stop", "quota", "takes", "_offered")

    def __init__(self, state: GameState, player: int, view: View,
                 quota: Optional[int], stop: int):
        self.state = state
        self.player = player
        self.view = view
        self.quota = quota  # None = unbounded (phase-blocked Maker turn)
        self.stop = stop
        self.takes = 0
        self._offered: Optional[int] = None

    @property
    def next_position(self) -> int:
        return self.state.pointer(self.player) + 1

    def turn_over(self) -> bool:
        if self.state.goal_met:
            return True
        if self.quota is not None and self.quota <= 0:
            return True
        return self.state.pointer(self.player) >= self.stop

    def offer_next(self) -> Optional[Item]:
        """Advance one position, revealing it, and return the item there
        (owned items included, for observation); None when the turn is over."""
        if self.turn_over():
            return None
        pos = self.state.pointer(self.player) + 1
        self.state._advance(self.player, pos)
        self._offered = pos
        return self.state.item(pos)

    def seek(self, thresholds, *, include_owned: bool = False,
             start: Optional[int] = None) -> Optional[Item]:
        """Advance to the first position q in [start, stop] with
        cost[q] <= thresholds[q] (and unowned, unless include_owned), rejecting
        everything in between; None (pointer at stop) if there is none.

        ``thresholds`` is a scalar or a length-n array indexed by position-1.
        Equivalent to offering every item in between and declining it.
        """
        if self.turn_over():
            return None
        st = self.state
        a = st.pointer(self.player) + 1
        if start is not None and start > a:
            a = start
        b = self.stop
        if a > b:
            st._advance(self.player, b)
            self._offered = None
            return None
        costs = st.market.costs
        owner = st.owner
        scalar = np.ndim(thresholds) == 0
        # Scan in geometrically growing chunks so a nearby hit costs O(hit
        # distance), not O(stop - pointer).
        chunk = 1024
        lo = a - 1
        end = b  # exclusive 0-based bound
        while lo < end:
            hi = min(lo + chunk, end)
            seg = costs[lo:hi]
            mask = seg <= thresholds if scalar else seg <= thresholds[lo:hi]
            if not include_owned:
                mask &= owner[lo:hi] == UNOWNED
            idx = int(np.argmax(mask))
            if mask[idx]:
                q = lo + idx + 1
                st._advance(self.player, q)
                self._offered = q
                return st.item(q)
            lo = hi
            chunk *= 4
        st._advance(self.player, b)
        self._offered = None
        return None

    def skip_to(self, position: int) -> None:
        """Reject everything up to ``position`` (clamped to stop)."""
        target = min(position, self.stop)
        if target > self.state.pointer(self.player):
            self.state._advance(self.player, target)
        self._offered = None

    def take(self, item: Item) -> None:
        """Take the item just offered.  Taking an owned item, an item the
        pointer is not at, or exceeding quota is a protocol violation."""
        if self.quota is not None and self.quota <= 0:
            raise ProtocolViolation("take exceeds turn quota")
        if item.position != self.state.pointer(self.player) or item.position != self._offered:
            raise ProtocolViolation(
                f"can only take the item at the pointer (position {item.position})"
            )
        self.state.assign(self.player, item.position)
        self.takes += 1
        if self.quota is not None:
            self.quota -= 1

    def finish(self) -> None:
        """Complete the turn per protocol: if quota remains, the pointer
        sweeps to the stop position, rejecting everything on the way."""
        if self.state.goal_met:
            return
        if self.quota is None or self.quota > 0:
            if self.state.pointer(self.player) < self.stop:
                self.state._advance(self.player, self.stop)


class Strategy:
    """A decision rule: take or reject each offered item, seeing only a View.

    ``decide`` is the reference semantics and is consulted for every item the
    player's own pointer passes, owned ones included (so stateful strategies
    can observe pre-empted candidates); returning True for an owned item is a
    protocol violation.  ``play_turn`` may be overridden with a faster
    equivalent using TurnContext.seek/skip_to (``StagedScanner`` is the one
    shared by the edge-game Makers); overrides must make exactly the
    decisions ``decide`` would make, and the test suite compares both paths.
    """

    failure_phase: Optional[object] = None

    def prepare(self, market: Market) -> None:
        """Optional pre-game hook handing fast-path strategies the market so
        they can index static candidate positions (``StagedScanner`` takes
        the edge endpoint arrays here).  Prepared data may only
        accelerate the scan (jumping between positions where ``decide`` could
        say yes) or answer revealed-information predicates in O(1); it must
        never change a decision relative to the plain per-item path."""

    def begin(self, view: View) -> None:
        pass

    def decide(self, view: View, item: Item) -> bool:
        raise NotImplementedError

    def play_turn(self, ctx: TurnContext) -> None:
        while True:
            item = ctx.offer_next()
            if item is None:
                return
            if self.decide(ctx.view, item):
                ctx.take(item)


class ScheduleStrategy(Strategy):
    """Threshold rule: take any unowned offered item with cost <= t[position].

    ``values`` is a scalar or a per-position array.  With Breaker's quota this
    yields "remove the first b items under the schedule"; as Maker it takes
    the first affordable item each turn.
    """

    def __init__(self, values: Union[float, np.ndarray]):
        self.values = values if np.ndim(values) == 0 else np.asarray(values, dtype=float)

    def decide(self, view: View, item: Item) -> bool:
        if item.owner != UNOWNED:
            return False
        t = self.values if np.ndim(self.values) == 0 else self.values[item.position - 1]
        return item.cost <= t

    def play_turn(self, ctx: TurnContext) -> None:
        while True:
            item = ctx.seek(self.values)
            if item is None:
                return
            ctx.take(item)


class AlwaysTake(Strategy):
    def decide(self, view: View, item: Item) -> bool:
        return item.owner == UNOWNED


class NeverTake(Strategy):
    def decide(self, view: View, item: Item) -> bool:
        return False


class RandomStrategy(Strategy):
    """Takes each offered unowned item with probability p, from its own seeded
    generator (deterministic replay requires a fresh instance per game)."""

    def __init__(self, p: float, seed: int):
        self.p = p
        self.seed = seed
        self._rng = None

    def begin(self, view: View) -> None:
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    def decide(self, view: View, item: Item) -> bool:
        return item.owner == UNOWNED and self._rng.random() < self.p


class SlowTurns(Strategy):
    """Wrapper forcing the per-item reference turn loop of the wrapped
    strategy, bypassing its play_turn override.  Used to check that fast
    paths make identical decisions."""

    def __init__(self, inner: Strategy):
        self.inner = inner

    @property
    def failure_phase(self):
        return self.inner.failure_phase

    def prepare(self, market: Market) -> None:
        self.inner.prepare(market)

    def begin(self, view: View) -> None:
        self.inner.begin(view)

    def decide(self, view: View, item: Item) -> bool:
        return self.inner.decide(view, item)


class StagedScanner(Strategy):
    """Fast turn loop shared by Makers that play an edge stream in stages.

    A stage is a stretch of the stream during which the Maker's candidate
    set is fixed: on entering it, the Maker's state already determines
    every position where ``decide`` could say yes.  The scanner builds that
    sorted array once per stage, jumps the pointer from one candidate to the
    next with ``skip_to``, and hands each candidate to ``decide``, so it
    makes exactly the decisions of the per-item loop.  Without a prepared
    market it falls back to that loop.

    Subclasses provide ``_reset()`` (fresh per-game state),
    ``_sync(pos, view)`` (stage bookkeeping up to position ``pos``),
    ``_stage_bounds()`` and ``_stage_candidates(lo, hi)``.  ``_u`` and
    ``_v`` hold the market's per-position edge endpoints.
    """

    _market: Optional[Market] = None
    _scan: Optional[tuple] = None  # (stage bounds, candidates) last built

    def prepare(self, market: Market) -> None:
        self._market = market
        self._u, self._v = market.edge_endpoints()

    def begin(self, view: View) -> None:
        self._reset()
        self._scan = None

    def _stage_bounds(self) -> Optional[tuple]:
        """``(lo, hi)`` when the current stage spans positions lo+1..hi;
        None once the strategy will take nothing more this game."""
        raise NotImplementedError

    def _stage_candidates(self, lo: int, hi: int) -> np.ndarray:
        """The sorted positions in lo+1..hi where ``decide`` could say yes."""
        raise NotImplementedError

    def _masked(self, lo: int, hi: int, mask: np.ndarray, threshold: float) -> np.ndarray:
        """Positions lo+1..hi where ``mask`` (over that slice) holds and the
        cost is at most ``threshold``."""
        if threshold < 1.0:
            mask &= self._market.costs[lo:hi] <= threshold
        return np.flatnonzero(mask) + lo + 1

    def play_turn(self, ctx: TurnContext) -> None:
        if self._market is None:
            Strategy.play_turn(self, ctx)
            return
        while not ctx.turn_over():
            pos = ctx.next_position
            self._sync(pos, ctx.view)
            bounds = self._stage_bounds()
            if bounds is None:
                ctx.skip_to(ctx.stop)
                return
            if self._scan is None or self._scan[0] != bounds:
                self._scan = (bounds, self._stage_candidates(*bounds))
            (_, end), cands = self._scan
            i = int(np.searchsorted(cands, pos))
            target = int(cands[i]) - 1 if i < len(cands) else end
            if target >= ctx.stop:
                ctx.skip_to(ctx.stop)
                return
            ctx.skip_to(target)
            if i == len(cands):
                continue  # the stage ends before the turn does
            item = ctx.offer_next()
            if self.decide(ctx.view, item):
                ctx.take(item)


# --------------------------------------------------------------------------
# Outcomes and the purchase-protocol driver
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """Result of one game.

    maker_cost is the exact (correctly rounded) sum of Maker's purchase
    costs.  M is the position of the goal-completing purchase, when the goal
    was met.  B lists the positions Breaker took.  failure_phase carries the
    acting Maker strategy's self-reported failing stage, when it gave up.
    maker_items and breaker_items are the labels bought; ``play`` leaves them
    to be looked up on first read when the game never built the permutation.
    """

    success: bool
    maker_cost: float
    maker_items: tuple = _Deferred()
    breaker_items: tuple = _Deferred()
    maker_positions: tuple
    breaker_positions: tuple
    M: Optional[int]
    turns_used: int
    n: int
    seed: Optional[int] = None
    failure_phase: Optional[object] = None
    details: Optional[dict] = None

    @property
    def B(self) -> tuple:
        return self.breaker_positions


def _outcome_from_state(state: GameState, maker: Strategy,
                        details: Optional[dict] = None) -> Outcome:
    market = state.market
    maker_positions = tuple(state.maker_positions)
    breaker_positions = tuple(state.breaker_positions)
    pending, labels = {}, {}
    if market._perm is None:
        # Defer, keeping only what the labels derive from (not the costs).
        lookup = partial(_labels_at, market.universe, market.n, market._perm_seed)
        pending["maker_items"] = partial(lookup, maker_positions)
        pending["breaker_items"] = partial(lookup, breaker_positions)
    else:
        labels["maker_items"] = tuple(state.maker_labels)
        labels["breaker_items"] = tuple(state.breaker_labels)
    return _deferred(
        Outcome, pending, **labels,
        success=state.goal_met,
        maker_cost=state.maker_cost_paid,
        maker_positions=maker_positions,
        breaker_positions=breaker_positions,
        M=state.goal_position,
        turns_used=state.turns_used,
        n=state.n,
        seed=state.seed_record,
        failure_phase=None if state.goal_met else getattr(maker, "failure_phase", None),
        details=details,
    )


def play(market: Market, rules: GameRules, maker: Strategy, breaker: Strategy,
         *, seed_record=None, record_trace: bool = False) -> Outcome:
    """Run one purchase-protocol game to completion and return its Outcome.

    Breaker moves first.  Each Breaker turn scans forward, taking items until
    its quota of ``rules.b`` is spent or it is blocked by the end of the
    stream or a phase gate.  Each Maker turn scans forward and ends on a
    purchase or at the end of the stream, except that while Breaker is
    phase-blocked Maker may take any number of items up to the blocking
    boundary.  The game ends when the goal is met or Maker exhausts the
    stream.  Strategy instances are stateful and must be fresh per game.
    """
    state = GameState(market, rules, seed_record=seed_record, record_trace=record_trace)
    maker_view = View(state, MAKER)
    breaker_view = View(state, BREAKER)
    maker.prepare(market)
    breaker.prepare(market)
    maker.begin(maker_view)
    breaker.begin(breaker_view)

    n = state.n
    while not state.goal_met and state.maker_ptr < n:
        # Breaker's turn.
        blocked = False
        if rules.b > 0 and state.breaker_ptr < n:
            stop = state.breaker_stop()
            ctx = TurnContext(state, BREAKER, breaker_view, rules.b, stop)
            if state.trace is not None:
                state.trace.append(("turn", BREAKER, state.breaker_ptr, stop))
            breaker.play_turn(ctx)
            ctx.finish()
            state.turns_used += 1
            blocked = ctx.quota > 0 and stop < n and state.breaker_ptr >= stop
            if state.trace is not None:
                state.trace.append(("end", BREAKER, state.breaker_ptr, ctx.takes, blocked))

        # Maker's turn.
        if blocked:
            boundary = state.breaker_stop()
            ctx = TurnContext(state, MAKER, maker_view, None, boundary)
        else:
            ctx = TurnContext(state, MAKER, maker_view, 1, n)
        if state.trace is not None:
            state.trace.append(("turn", MAKER, state.maker_ptr, ctx.stop))
        maker.play_turn(ctx)
        ctx.finish()
        state.turns_used += 1
        if state.trace is not None:
            state.trace.append(("end", MAKER, state.maker_ptr, ctx.takes, False))

    details = {"trace": state.trace} if record_trace else None
    return _outcome_from_state(state, maker, details)
