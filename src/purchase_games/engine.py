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
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial
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


def _mix_seeds(master, index) -> np.ndarray:
    """``mix_seed`` elementwise over uint64 arrays; either argument may also
    be a Python int, reduced mod 2**64 first as ``mix_seed`` reduces its sum.
    uint64 arithmetic wraps mod 2**64, which is ``mix_seed``'s mask (numpy
    warns of that wrap on scalars, so the warning is silenced)."""
    master, index = (np.asarray(x % 2**64 if isinstance(x, int) else x, dtype=np.uint64)
                     for x in (master, index))
    with np.errstate(over="ignore"):
        z = master + (index + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@contextmanager
def _opened(file, mode: str = "r"):
    """``file`` itself when it is an open file object; a path (``str``,
    ``bytes`` or ``os.PathLike``) is opened in ``mode`` and closed on exit."""
    if isinstance(file, (str, bytes, os.PathLike)):
        with open(file, mode) as fh:
            yield fh
    else:
        yield file


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
    edges in lexicographic order, and are unranked by arithmetic in the
    combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3): rank r is edge
    j = size - 1 - r counted from the last, which lies in row
    t = (isqrt(8j + 1) - 1) // 2 counted from the last row, so
    u = vertices - 2 - t.  No per-rank array is kept: ``endpoints`` unranks
    just the ranks it is given.
    """

    def __init__(self, vertices: int):
        if vertices < 2:
            raise ValueError("need at least 2 vertices")
        if 4 * vertices * (vertices - 1) >= 2 ** 52:
            raise ValueError(f"{vertices} vertices are too many to unrank in float64")
        self.vertices = vertices
        self.size = vertices * (vertices - 1) // 2
        # _row_offset[a] = rank of edge (a, a+1) = a(2 vertices - 1 - a)/2
        degs = np.arange(vertices - 1, 0, -1, dtype=np.int64)
        self._row_offset = np.concatenate(([0], np.cumsum(degs)))

    def endpoints(self, ranks: np.ndarray) -> tuple:
        """Endpoint arrays (u, v) of the edges at ``ranks``.

        8j + 1 is an integer below 2^52 (the constructor checks), so the
        floor of its correctly rounded float64 square root s is its integer
        square root, and t = floor((s - 1) / 2).  s - 1 and the halving are
        exact too, so the rows need no correction."""
        n = self.vertices
        # t, with s the square root of 8j + 1; numpy reuses each temporary
        u = ((np.sqrt(ranks * -8.0 + (4 * n * (n - 1) - 7)) - 1) * 0.5).astype(np.int64)
        np.subtract(n - 2, u, out=u)
        v = self._row_offset[u]
        np.subtract(ranks, v, out=v)
        v += u
        v += 1
        return u, v

    # Endpoints of every rank, built on each read for perfbench/tracer.py;
    # no game reads them.
    rank_u = property(lambda self: np.triu_indices(self.vertices, 1)[0])
    rank_v = property(lambda self: np.triu_indices(self.vertices, 1)[1])

    def label_of_rank(self, rank: int):
        n = self.vertices
        u = n - 2 - ((math.isqrt(4 * n * (n - 1) - 7 - 8 * rank) - 1) >> 1)
        return (u, rank + u + 1 - (u * (2 * n - 1 - u) >> 1))

    def edge_rank(self, a, b):
        """Rank of the edge {a, b}, a != b; ``a`` and ``b`` may also be int
        arrays of one shape, ranked elementwise."""
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return self._row_offset[lo] + (hi - lo - 1)

    def pair_mask(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bool mask over the ranks, set at the edges {x, y} with x in the
        vertex mask ``a`` and y in ``b``.  It is ranked one vertex of the
        smaller mask at a time, so no array of all the pairs is made."""
        if np.count_nonzero(a) > np.count_nonzero(b):
            a, b = b, a
        ys = np.flatnonzero(b)
        hit = np.zeros(self.size, dtype=bool)
        for x in np.flatnonzero(a).tolist():
            hit[self.edge_rank(x, ys[ys != x])] = True
        return hit

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
    materialized lazily from its own child seed (through ``_generator``), on
    the first read of a label.  Costs are eager.  The game driver reads no
    label on its own: ``Item.label``, ``View.label`` and ``View.my_labels``, the Outcome's
    ``maker_items``/``breaker_items`` and goals that look at labels are what
    look them up.  So a plain item game, whose strategies and goal see only
    positions, costs and owners, never builds the permutation.
    """

    __slots__ = ("n", "costs", "universe", "seed", "_perm", "_perm_seed")

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

    @property
    def perm(self) -> np.ndarray:
        if self._perm is None:
            self._perm = _permutation(self.n, self._perm_seed)
        return self._perm

    def label(self, position: int):
        return self.universe.label_of_rank(int(self.perm[position - 1]))

    def cost(self, position: int) -> float:
        return float(self.costs[position - 1])

    def edge_endpoints(self):
        """Per-position endpoint arrays (u, v) for edge-label markets, all
        n of them; the edge-game Makers build only their stages' candidates."""
        return self.universe.endpoints(self.perm)


def _permutation(n: int, seed: int) -> np.ndarray:
    return _generator(seed).permutation(n)


def _ranks_at(perm: np.ndarray, positions) -> np.ndarray:
    """The universe ranks at ``positions`` (1-based), in one gather."""
    return perm[np.asarray(positions, dtype=np.int64) - 1]


def _labels_of(universe, ranks: np.ndarray) -> tuple:
    """The labels of ``ranks``.  They are read through a memoryview, one
    Python int at a time: a list of them all would raise the heap's peak by
    an int per rank.  The labels go into a list first, so the tuple is sized
    once; a tuple grown from an iterator by reallocation fragments the heap
    over a run."""
    return tuple(list(map(universe.label_of_rank, memoryview(ranks))))


def _labels_at(universe, n: int, perm_seed: int, positions: tuple) -> tuple:
    """Labels at ``positions`` of a market whose permutation was never built,
    from the permutation's seed alone."""
    return _labels_of(universe, _ranks_at(_permutation(n, perm_seed), positions))


def generate_market(n: int, seed: int, labeler=None) -> Market:
    """Build a market: a uniform random permutation of the universe's labels
    with i.i.d. uniform [0, 1] costs, fully determined by ``seed``.

    ``labeler`` defaults to plain index labels 1..n; pass an EdgeLabels or
    BoxLabels universe for edge and box games (its size must equal n).  Costs
    and permutation come from independent child seeds of ``seed``, each
    through ``_generator``, so lazily materializing the permutation cannot
    disturb the costs.
    """
    if n < 1:
        raise ValueError(f"market size must be >= 1, got {n}")
    if labeler is None:
        labeler = IndexLabels(n)
    if labeler.size != n:
        raise ValueError(f"labeler has {labeler.size} labels but n={n}")
    costs = _generator(mix_seed(seed, 0)).random(n)
    return Market(n, costs, labeler, seed, perm=None, perm_seed=mix_seed(seed, 1))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# default multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _pcg64_seed_words(seeds: np.ndarray) -> np.ndarray:
    """What ``np.random.PCG64(s)`` seeds itself from, for each s of the uint64
    ``seeds``: row i is ``SeedSequence(seeds[i]).generate_state(4,
    np.uint64)``, and ``_pcg64_state`` turns a row into that generator's
    start state.  ``generate_market(n, seed)`` draws its costs from
    ``PCG64(mix_seed(seed, 0))``.

    The hash runs on uint32 arrays, which wrap as its C code does.  A 64-bit
    seed is two entropy words, and a seed under 2**32 is one, padded with
    the hash of 0 that a zero second word gives too.  Row 0 is checked
    against ``PCG64(seeds[0]).state``, both as ``_pcg64_state`` reads it and
    as a PCG64 built from it through ``_SeedWords``, so a numpy that seeds
    otherwise raises RuntimeError instead of drawing other costs."""
    entropy = np.asarray(seeds, dtype=np.uint64)
    u32 = np.uint32

    def hasher(const, mult):
        def hashmix(value):
            nonlocal const
            value = value ^ u32(const)
            const = const * mult & 0xFFFFFFFF
            value = value * u32(const)
            return value ^ (value >> u32(16))
        return hashmix

    def mix(x, y):
        r = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return r ^ (r >> u32(16))

    hashmix = hasher(_INIT_A, _MULT_A)
    zero = np.zeros(entropy.shape, dtype=u32)
    pool = [hashmix(word) for word in ((entropy & np.uint64(0xFFFFFFFF)).astype(u32),
                                       (entropy >> np.uint64(32)).astype(u32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hashmix = hasher(_INIT_B, _MULT_B)
    words = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
    words = words.astype("<u4").view("<u8").astype(np.uint64)
    if entropy.size:
        np.random.bit_generator.ISeedSequence.register(_SeedWords)
        expected = np.random.PCG64(int(entropy[0])).state
        pcg = expected["state"]
        if (_pcg64_state(words[0].tolist()) != (pcg["state"], pcg["inc"])
                or np.random.PCG64(_SeedWords(words[0])).state != expected):
            raise RuntimeError("numpy's PCG64 no longer seeds as _pcg64_seed_words assumes")
    return words


def _pcg64_state(words) -> tuple:
    """(state, inc) of a PCG64 seeded from four seed words (Python ints):
    pcg64_set_seed's two steps of the 128-bit LCG, from state 0."""
    s_hi, s_lo, i_hi, i_lo = words
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    return ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc


class _SeedWords:
    """A seed sequence that hands PCG64 its four precomputed seed words, a
    contiguous uint64 row of ``_pcg64_seed_words``, whatever it is asked.
    ``_pcg64_seed_words`` registers it as numpy's ``ISeedSequence`` before
    the first PCG64 is built from it: subclassing that here would import
    ``numpy.random`` with this module, ahead of the rest of the program,
    which alone raised the process's peak memory."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


_seed_memo = threading.local()  # .table: ({seed: row}, words), or None


def _remember_seed_words(seeds) -> None:
    """Until the next call, let ``_generator`` in the calling thread seed
    from ``_pcg64_seed_words(seeds)`` for each of the uint64 ``seeds``;
    None forgets them."""
    _seed_memo.table = None
    if seeds is not None:
        _seed_memo.table = (dict(zip(seeds.tolist(), range(seeds.size))),
                            _pcg64_seed_words(seeds))


def _generator(seed: int) -> np.random.Generator:
    """A fresh ``Generator(PCG64(seed))``; every per-game stream is built
    here.  numpy seeds PCG64 from its seed sequence's ``generate_state(4,
    uint64)``, which hashes the seed, most of a build's time.  When the
    seed's words are remembered in the calling thread
    (``_remember_seed_words``, which the harness calls a few hundred trials
    at a time for each trial's cost, tape, Maker and Breaker streams), the
    generator is built from them through ``_SeedWords`` instead.  The words are a pure function of the
    seed, and ``_pcg64_seed_words`` checks that such a build reproduces
    ``PCG64(seed).state``, so both routes give the same stream bit for bit;
    the memo holds words, never a generator."""
    table = getattr(_seed_memo, "table", None)
    if table is not None:
        row = table[0].get(seed)
        if row is not None:
            return np.random.Generator(np.random.PCG64(_SeedWords(table[1][row])))
    return np.random.Generator(np.random.PCG64(seed))


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


@lru_cache(maxsize=128)
def phase_ends(n: int, phase_count: int) -> np.ndarray:
    """Last position of each phase, partitioning 1..n into ``phase_count``
    contiguous blocks of size floor(n/p) or ceil(n/p), larger blocks first.

    Every game builds its GameState from this, so results are cached; the
    array is shared between callers and therefore read-only."""
    if phase_count < 1:
        raise ValueError("phase_count must be >= 1")
    if phase_count > n:
        raise ValueError(f"cannot split {n} positions into {phase_count} phases")
    base, extra = divmod(n, phase_count)
    sizes = np.full(phase_count, base, dtype=np.int64)
    sizes[:extra] += 1
    ends = np.cumsum(sizes)
    ends.flags.writeable = False
    return ends


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

    @property
    def phase_count(self) -> int:
        return len(self.ends)


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
        market = self._state.market
        return _labels_of(market.universe, _ranks_at(market.perm, self.my_positions()))


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
             start: Optional[int] = None, end: Optional[int] = None) -> Optional[Item]:
        """Advance to the first position q in [start, min(stop, end)] with
        cost[q] <= thresholds[q] (and unowned, unless include_owned), rejecting
        everything in between; None (pointer at min(stop, end), or where it
        was if that is behind it) if there is none.

        ``thresholds`` is a scalar or a length-n array indexed by position-1.
        Equivalent to offering every item in between and declining it.
        """
        if self.turn_over():
            return None
        st = self.state
        a = st.pointer(self.player) + 1
        if start is not None and start > a:
            a = start
        b = self.stop if end is None else min(self.stop, end)
        if a > b:
            self.skip_to(b)
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
        they can index static candidate positions (``StagedScanner`` keeps
        the market and reads its costs and permutation once per stage).
        Prepared data may only accelerate the scan (jumping between
        positions where ``decide`` could say yes) or answer predicates on
        revealed information in O(1); it must never change a decision
        relative to the plain per-item path."""

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

    ``values`` is a scalar or a per-position array.  A schedule that is
    constant on blocks of the stream, such as a phase plan's, passes one
    level per block in ``values`` and the last position of each block in
    ``ends`` (as ``PhaseBounds.ends``); it keeps no per-position array, and
    ``play_turn`` seeks one block at a time.  With Breaker's quota this
    yields "remove the first b items under the schedule"; as Maker it takes
    the first affordable item each turn.
    """

    def __init__(self, values: Union[float, np.ndarray], ends: Optional[np.ndarray] = None):
        self.values = values if np.ndim(values) == 0 else np.asarray(values, dtype=float)
        self.ends = None if ends is None else np.asarray(ends, dtype=np.int64)
        if self.ends is not None and self.ends.shape != np.shape(self.values):
            raise ValueError("a block schedule needs one level per block end")

    def decide(self, view: View, item: Item) -> bool:
        if item.owner != UNOWNED:
            return False
        if self.ends is not None:
            t = self.values[np.searchsorted(self.ends, item.position)]
        else:
            t = self.values if np.ndim(self.values) == 0 else self.values[item.position - 1]
        return item.cost <= t

    def play_turn(self, ctx: TurnContext) -> None:
        ends = self.ends
        if ends is None:
            while (item := ctx.seek(self.values)) is not None:
                ctx.take(item)
            return
        while not ctx.turn_over():
            j = int(np.searchsorted(ends, ctx.next_position))
            item = ctx.seek(float(self.values[j]), end=int(ends[j]))
            if item is not None:
                ctx.take(item)


class AlwaysTake(Strategy):
    def decide(self, view: View, item: Item) -> bool:
        return item.owner == UNOWNED


class NeverTake(Strategy):
    def decide(self, view: View, item: Item) -> bool:
        return False

    def play_turn(self, ctx: TurnContext) -> None:
        ctx.skip_to(ctx.stop)


class RandomStrategy(Strategy):
    """Takes each offered unowned item with probability p, from its own seeded
    generator, ``_generator(seed)`` (deterministic replay requires a fresh
    instance per game)."""

    def __init__(self, p: float, seed: int):
        self.p = p
        self.seed = seed
        self._rng = None

    def begin(self, view: View) -> None:
        self._rng = _generator(self.seed)

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


class StagedScanner(PhaseBounds, Strategy):
    """Fast turn loop shared by Makers that play an edge stream in phases.

    A phase is a stretch of the stream during which the Maker's candidate
    set is fixed: on entering it, the Maker's state already determines
    every position where ``decide`` could say yes.  The scanner walks the
    phases, builds that sorted array once per phase, jumps the pointer from
    one candidate to the next with ``skip_to``, and hands each candidate to
    ``decide``, so it makes exactly the decisions of the per-item loop.

    Subclasses set ``ends`` (the last position of each phase) and provide
    ``_reset()`` (fresh per-game state, with ``failure_phase`` None),
    ``_close_phase(phase)`` (judge a finished phase; may set
    ``failure_phase``), ``_stage_candidates(lo, hi)`` and ``decide``, which
    calls ``_sync`` first.  ``_enter_phase(phase, revealed)`` is optional.
    Every stage's edges are those with one end in a vertex mask A and the
    other in a vertex mask B, so ``_stage_candidates`` passes ``_masked``
    the two masks and a cost threshold.
    """

    _market: Optional[Market] = None
    _scan: Optional[tuple] = None  # (stage bounds, candidates) last built
    _phase = 1

    def prepare(self, market: Market) -> None:
        self._market = market

    def begin(self, view: View) -> None:
        self._reset()
        self._phase = 1
        self._scan = None
        self._enter_phase(1, 0)

    def _enter_phase(self, phase: int, revealed: int) -> None:
        """Set up ``phase``; ``revealed`` is the reveal frontier."""

    def _sync(self, pos: int, view: View) -> None:
        """Close each phase that ends before ``pos`` and enter the next,
        stopping once ``failure_phase`` is set."""
        while (self.failure_phase is None and self._phase <= self.phase_count
               and pos > self.phase_end(self._phase)):
            self._close_phase(self._phase)
            self._phase += 1
            if self.failure_phase is None and self._phase <= self.phase_count:
                self._enter_phase(self._phase, view.revealed_upto)

    def _stage_bounds(self) -> Optional[tuple]:
        """``(lo, hi)`` when the current phase spans positions lo+1..hi;
        None once the strategy will take nothing more this game."""
        if self.failure_phase is not None or self._phase > self.phase_count:
            return None
        return self.phase_start(self._phase) - 1, self.phase_end(self._phase)

    def _stage_candidates(self, lo: int, hi: int) -> np.ndarray:
        """The sorted positions in lo+1..hi where ``decide`` could say yes."""
        raise NotImplementedError

    def _masked(self, lo: int, hi: int, a: np.ndarray, b: np.ndarray,
                threshold: float) -> np.ndarray:
        """Positions lo+1..hi whose cost is at most ``threshold`` and whose
        edge {u, v} has one end in the vertex mask ``a`` and the other in
        ``b``: ``a[u] & b[v] | a[v] & b[u]``.

        Below a threshold of 1 the costs are filtered first, so only the
        positions that pass are gathered from ``perm``.  Then, when there
        are fewer vertex pairs (|a| |b|) than ranks left, the pairs are
        ranked and their mask over the universe is gathered through those
        ranks; otherwise the ranks are unranked and tested on the masks."""
        ranks = self._market.perm[lo:hi]
        pos = None
        if threshold < 1.0:
            pos = np.flatnonzero(self._market.costs[lo:hi] <= threshold)
            ranks = ranks[pos]
        if np.count_nonzero(a) * np.count_nonzero(b) < len(ranks):
            keep = self._by_pairs(ranks, a, b)
        else:
            keep = self._by_unranking(ranks, a, b)
        return (np.flatnonzero(keep) if pos is None else pos[keep]) + (lo + 1)

    def _by_pairs(self, ranks: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._market.universe.pair_mask(a, b)[ranks]

    def _by_unranking(self, ranks: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        u, v = self._market.universe.endpoints(ranks)
        return a[u] & b[v] | a[v] & b[u]

    def play_turn(self, ctx: TurnContext) -> None:
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
    to be looked up on first read, from the ranks it gathered at the end of
    the game or, when the game never built the permutation, from its seed.
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


def _outcome_from_state(state: GameState, failure_phase: Optional[object],
                        details: Optional[dict] = None) -> Outcome:
    """The Outcome of a finished game; ``failure_phase`` is recorded only
    when the goal was not met."""
    market = state.market
    maker_positions = tuple(state.maker_positions)
    breaker_positions = tuple(state.breaker_positions)

    def labels(positions):
        # Keep only what the labels derive from: the permutation's seed, or
        # the ranks gathered now, not the costs or the whole permutation.
        if market._perm is None:
            return partial(_labels_at, market.universe, market.n, market._perm_seed, positions)
        return partial(_labels_of, market.universe, _ranks_at(market.perm, positions))

    return _deferred(
        Outcome, {"maker_items": labels(maker_positions),
                  "breaker_items": labels(breaker_positions)},
        success=state.goal_met,
        maker_cost=state.maker_cost_paid,
        maker_positions=maker_positions,
        breaker_positions=breaker_positions,
        M=state.goal_position,
        turns_used=state.turns_used,
        n=state.n,
        seed=state.seed_record,
        failure_phase=None if state.goal_met else failure_phase,
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
    return _outcome_from_state(state, getattr(maker, "failure_phase", None), details)
