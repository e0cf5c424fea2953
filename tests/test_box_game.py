"""Box game tests: protocol, the min-box and focus strategies, adversarial
orderings, and the engine-vs-oracle comparisons."""

import ast
import functools
import hashlib
import importlib
import io
import itertools
import json
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purchase_games import box_game, engine, harness, streams
from purchase_games.box_game import (
    BoxConfig,
    FocusBreaker,
    MinboxMaker,
    box_threshold,
    load_scripted_ordering,
    play_box,
    save_scripted_ordering,
    _free_ball,
)
from purchase_games.engine import (
    BREAKER,
    MAKER,
    UNOWNED,
    AlwaysTake,
    HiddenInformationError,
    NeverTake,
    RandomStrategy,
    SlowTurns,
    Strategy,
    View,
    mix_seed,
)
from purchase_games.oracle import box_minimax
from purchase_games.verify import covers_all_boxes


class ScriptedBreaker(Strategy):
    """Takes according to a fixed bit string over its offers."""

    def __init__(self, bits):
        self.bits = bits
        self.i = 0

    def decide(self, view, item):
        if item.owner != UNOWNED:
            return False
        take = self.i < len(self.bits) and bool(self.bits[self.i])
        self.i += 1
        return take


def test_box_threshold_values():
    assert box_threshold(2, 1) == 3
    assert box_threshold(3, 2) == 7
    assert box_threshold(1, 1) == 2  # oracle shows maker already wins at m=1
    with pytest.raises(ValueError):
        box_threshold(0, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        BoxConfig(n=2, m=2, b=1, ordering="scripted", sequence=(0, 0, 0, 1))
    with pytest.raises(ValueError):
        BoxConfig(n=2, m=2, b=1, ordering="weird")
    cfg = BoxConfig(n=20, m=10, b=1600, eps=0.5)
    assert cfg.b0 == pytest.approx(100 * 4 * np.log(20))


@pytest.mark.parametrize("sequence, message", [
    ((0, 1, 1, 0, 0), "sequence must have exactly n*m = 6 entries, got 5"),
    ((0, 1, 1, 0, 1, 1), "box 0 appears 2 times, expected 3"),
    ((0, 0, 0, 0, 1, 1), "box 0 appears 4 times, expected 3"),
    ((0, 1, 1, -1, 0, 1), "box 0 appears 2 times, expected 3"),
    ((0, 1, 2, 0, 0, 1), "box 1 appears 2 times, expected 3"),
    ((0, 1, 2**64, 0, 0, 1), "box 1 appears 2 times, expected 3"),
])
def test_scripted_sequence_errors(sequence, message):
    """An id outside 0..n-1 is reported as the lowest box it leaves short."""
    with pytest.raises(ValueError) as exc:
        BoxConfig(n=2, m=3, b=1, ordering="scripted", sequence=sequence)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        load_scripted_ordering(io.StringIO("".join(f"{box}\n" for box in sequence)), 2, 3)
    assert str(exc.value) == message


def test_scripted_box_ids_must_be_integers():
    """A box id that is not an integer is refused, not truncated; the text
    format's lines are still parsed as integers."""
    with pytest.raises(ValueError, match="box ids must be integers"):
        BoxConfig(n=2, m=1, b=1, ordering="scripted", sequence=(0.9, 1.2))
    assert load_scripted_ordering(io.StringIO("1\n0\n"), 2, 1) == (1, 0)


def test_single_ball_game():
    cfg = BoxConfig(n=1, m=1, b=1, ordering="scripted", sequence=(0,))
    out = play_box(cfg, MinboxMaker(), AlwaysTake(), seed=1)
    assert out.success and out.M == 1


def test_first_offer_taken_by_minbox():
    cfg = BoxConfig(n=3, m=2, b=1, ordering="random")
    out = play_box(cfg, MinboxMaker(), NeverTake(), seed=5)
    assert out.success
    assert out.maker_positions[0] == 1  # all counts tie at zero: take


def test_breaker_win_detected_early():
    # Breaker kills box 0 (both balls) before maker ever reaches one.
    cfg = BoxConfig(n=2, m=2, b=2, ordering="scripted", sequence=(1, 0, 0, 1))
    out = play_box(cfg, MinboxMaker(), AlwaysTake(), seed=1)
    assert not out.success
    assert out.details["winner"] == "breaker"


def test_minbox_wins_all_orderings_and_breakers_at_threshold():
    # m = bn + 1: the min-box maker beats every ordering and every breaker
    # behavior, exhaustively.
    n, b, m = 2, 1, 3
    balls = [box for box in range(n) for _ in range(m)]
    for seq in sorted(set(itertools.permutations(balls))):
        for bits in itertools.product((0, 1), repeat=n * m):
            cfg = BoxConfig(n=n, m=m, b=b, ordering="scripted", sequence=seq)
            out = play_box(cfg, MinboxMaker(), ScriptedBreaker(bits), seed=1)
            assert out.success, (seq, bits)
            assert covers_all_boxes(out.maker_items, n)


def test_bounded_damage_invariant_random_games():
    # After breaker turn i, no uncovered box has more than b*i balls
    # belonging to Breaker, in every trace.
    for t in range(30):
        cfg = BoxConfig(n=5, m=8, b=2, ordering="random")
        log = []
        play_box(cfg, MinboxMaker(), FocusBreaker(), seed=mix_seed(61, t),
                 damage_log=log)
        assert all(mx <= cfg.b * i for i, mx in log)


def test_games_end_before_a_scan_runs_out(monkeypatch):
    """Below bn + 1, with Makers offered every ball and on every kind of
    tape: a Breaker win always has a box with all m balls belonging to
    Breaker (such a box holds no Maker ball, so it is uncovered), so Maker's
    scan starves a box before it can run past the stream end; and the focus
    Breaker never moves once every box is covered.  Its ``_refresh`` is
    watched on the class, so that its fast turn, ``_focus_turn``, which
    plays only the exact class, is watched too."""
    seen = []
    real_refresh = FocusBreaker._refresh

    def recorded_refresh(self, view):
        seen.append(all(view.covered))
        real_refresh(self, view)

    monkeypatch.setattr(FocusBreaker, "_refresh", recorded_refresh)
    makers = {
        "slow_minbox": lambda seed: SlowTurns(MinboxMaker()),
        "minbox": lambda seed: MinboxMaker(),  # offered every ball on adversarial tapes
        "random": lambda seed: RandomStrategy(0.5, seed),
    }
    breakers = {
        "focus": lambda seed: FocusBreaker(),
        "slow_focus": lambda seed: SlowTurns(FocusBreaker()),
        "random": lambda seed: RandomStrategy(0.5, seed),
        "always": lambda seed: AlwaysTake(),
        "never": lambda seed: NeverTake(),
    }
    winners = set()
    for n, b, t in itertools.product(range(1, 5), range(1, 4), range(3)):
        for m in sorted({1, 2, b * (n - 1), b * (n - 1) + 1, b * n} - {0}):
            seed = mix_seed(n * 100 + b * 10 + t, m)
            rng = np.random.Generator(np.random.PCG64(seed))
            sequence = tuple(rng.permutation(np.repeat(np.arange(n), m)).tolist())
            for ordering, maker, breaker in itertools.product(
                    ("random", "scripted", "adversarial"), makers, breakers):
                cfg = BoxConfig(n=n, m=m, b=b, ordering=ordering,
                                sequence=sequence if ordering == "scripted" else None)
                out = play_box(cfg, makers[maker](mix_seed(seed, 1)),
                               breakers[breaker](mix_seed(seed, 2)), seed=seed)
                btb = out.details["btb"]
                assert max(btb) <= m
                if out.success:
                    assert out.details["covered"] == n
                else:
                    assert m in btb, (cfg, maker, breaker)
                winners.add(out.details["winner"])
    assert winners == {"maker", "breaker"}
    assert seen and not any(seen)


def test_focus_breaker_first_turn_takes_b_from_box0():
    # Plenty of box-0 balls up front; focus breaker grabs exactly b of them.
    seq = (1, 0, 0, 0, 0, 1, 1, 1, 0, 1)  # n=2, m=5
    cfg = BoxConfig(n=2, m=5, b=2, ordering="scripted", sequence=seq)
    out = play_box(cfg, NeverTake(), FocusBreaker(), seed=1)
    first_two = out.breaker_items[:2]
    assert all(box == 0 for box, _ in first_two)


def test_focus_switch_only_on_maker_acquisition():
    # Maker never takes box 0, so the focus never leaves box 0.
    class TakeBox1(Strategy):
        def decide(self, view, item):
            return item.owner == UNOWNED and item.label[0] == 1

    cfg = BoxConfig(n=2, m=4, b=1, ordering="random")
    out = play_box(cfg, TakeBox1(), FocusBreaker(), seed=11)
    assert all(box == 0 for box, _ in out.breaker_items)


def test_focus_fast_path_matches_decide_loop():
    # Only the exact FocusBreaker plays _focus_turn: its SlowTurns twin is
    # offered each ball.
    for ordering, t in itertools.product(("random", "scripted"), range(40)):
        seed = mix_seed(9, t)
        sequence = None
        if ordering == "scripted":
            rng = np.random.Generator(np.random.PCG64(seed))
            sequence = tuple(rng.permutation(np.repeat(np.arange(4), 6)).tolist())
        cfg = BoxConfig(n=4, m=6, b=3, ordering=ordering, sequence=sequence)
        fast = play_box(cfg, MinboxMaker(), FocusBreaker(), seed=seed)
        slow = play_box(cfg, MinboxMaker(), SlowTurns(FocusBreaker()), seed=seed)
        assert fast == slow, (ordering, t)


_MINBOX_TURN = box_game._minbox_turn


class WatchedMinbox:
    """Watches the min-box Maker's fast turn, ``box_game._minbox_turn``,
    for one game, noting each take, the most Breaker-owned balls ahead of
    Maker's pointer that a turn saw, the most balls a turn passed and the
    passes with a Breaker-owned ball inside.  The turn scans the 2n balls
    past the pointer before it jumps; the watcher also counts the turns
    that take inside that window and those that jump past it, the scans
    that skip a Breaker-owned ball, and the windows that reach the end of
    the stream."""

    def __init__(self, monkeypatch):
        self.takes = []
        self.most_ahead = 0
        self.longest_pass = 0
        self.claimed_passes = 0
        self.scanned = self.jumped = self.scan_skips = self.window_at_end = 0
        monkeypatch.setattr(box_game, "_minbox_turn", self.turn)

    def turn(self, rt):
        ptr = rt.state.maker_ptr
        ahead = sum(p > ptr for p in rt.state.breaker_positions)
        self.most_ahead = max(self.most_ahead, ahead)
        end = min(ptr + 2 * rt.goal.n, rt.state.n)
        _MINBOX_TURN(rt)
        take = rt.state.maker_ptr
        self.takes.append(take)
        self.longest_pass = max(self.longest_pass, take - ptr - 1)
        self.claimed_passes += any(ptr < p < take for p in rt.state.breaker_positions)
        self.scanned += take <= end
        self.jumped += take > end
        self.scan_skips += any(ptr < p <= min(take, end) for p in rt.state.breaker_positions)
        self.window_at_end += end == rt.state.n

    def counts(self):
        return (self.scanned, self.jumped, self.scan_skips, self.window_at_end)


def _add_counts(total, watch):
    return tuple(a + b for a, b in zip(total, watch.counts()))


def test_minbox_fast_path_matches_decide_loop(monkeypatch):
    # Only the exact MinboxMaker plays _minbox_turn: its SlowTurns twin is
    # offered every ball.  The random Breaker is wrapped in SlowTurns, since
    # the exact pair plays the one loop.
    breakers = {
        "focus": lambda seed: FocusBreaker(),
        "slow_focus": lambda seed: SlowTurns(FocusBreaker()),
        "random": lambda seed: SlowTurns(RandomStrategy(0.5, mix_seed(seed, 4))),
    }
    starved = most_ahead = longest_pass = claimed_passes = 0
    counts = {"random": (0, 0, 0, 0), "scripted": (0, 0, 0, 0)}
    # (4, 6, 3) and (6, 5, 4) have m far below bn + 1: a box often starves.
    # Against the focus Breaker, (2, 60, 29) has Maker passes of dozens of
    # balls, some with Breaker's claims inside them.
    for (n, m, b), ordering, breaker, t in itertools.product(
            [(2, 3, 1), (3, 4, 2), (5, 11, 2), (4, 6, 3), (6, 5, 4), (2, 60, 29)],
            ("random", "scripted"), breakers, range(12)):
        seed = mix_seed(13, t)
        sequence = None
        if ordering == "scripted":
            rng = np.random.Generator(np.random.PCG64(seed))
            sequence = tuple(rng.permutation(np.repeat(np.arange(n), m)).tolist())
        cfg = BoxConfig(n=n, m=m, b=b, ordering=ordering, sequence=sequence)
        fast_log, slow_log = [], []
        watch = WatchedMinbox(monkeypatch)
        fast = play_box(cfg, MinboxMaker(), breakers[breaker](seed), seed=seed,
                        damage_log=fast_log)
        slow = play_box(cfg, SlowTurns(MinboxMaker()), breakers[breaker](seed), seed=seed,
                        damage_log=slow_log)
        assert fast == slow and fast_log == slow_log, ((n, m, b), ordering, breaker, t)
        assert tuple(watch.takes) == fast.maker_positions
        starved += not fast.success
        most_ahead = max(most_ahead, watch.most_ahead)
        longest_pass = max(longest_pass, watch.longest_pass)
        claimed_passes += watch.claimed_passes
        counts[ordering] = _add_counts(counts[ordering], watch)
    assert starved >= 100
    assert most_ahead >= 10  # Breaker-owned balls the fast turn had to skip
    assert longest_pass > 48
    assert claimed_passes >= 1
    # Turns that take inside the scan, turns that jump past it, scans that
    # skip a Breaker-owned ball and scan windows cut at the stream end.
    for ordering, seen in counts.items():
        assert all(seen), (ordering, seen)


def _recounted_btb(state, n, m):
    """Each box's balls belonging to Breaker, recounted from the tape, the
    owners and Maker's pointer alone: the balls at or behind the pointer
    that Maker does not own, and Breaker's balls past it."""
    behind = np.arange(1, state.n + 1) <= state.maker_ptr
    counted = np.where(behind, state.owner != MAKER, state.owner == BREAKER)
    return np.bincount(state.market.perm[counted] // m, minlength=n).tolist()


class RecountedMinbox(WatchedMinbox):
    """The min-box Maker's fast turn, watched, recounting the scoreboard
    after it."""

    def turn(self, rt):
        super().turn(rt)
        assert rt.goal.btb == _recounted_btb(rt.state, rt.goal.n, rt.goal.m), self.takes[-1]


@pytest.mark.parametrize("ordering", ["random", "scripted"])
def test_minbox_fast_turn_scoreboard_matches_a_recount(ordering, monkeypatch):
    breakers = {
        "focus": lambda seed: FocusBreaker(),
        "slow_focus": lambda seed: SlowTurns(FocusBreaker()),
        "random": lambda seed: SlowTurns(RandomStrategy(0.5, mix_seed(seed, 4))),
    }
    turns, counts = 0, (0, 0, 0, 0)
    for (n, m, b), breaker, t in itertools.product(
            [(2, 3, 1), (5, 11, 2), (6, 5, 4), (2, 60, 29), (7, 40, 3)], breakers, range(8)):
        seed = mix_seed(19, t)
        sequence = None
        if ordering == "scripted":
            rng = np.random.Generator(np.random.PCG64(seed))
            sequence = tuple(rng.permutation(np.repeat(np.arange(n), m)).tolist())
        cfg = BoxConfig(n=n, m=m, b=b, ordering=ordering, sequence=sequence)
        watch = RecountedMinbox(monkeypatch)
        play_box(cfg, MinboxMaker(), breakers[breaker](seed), seed=seed)
        turns += len(watch.takes)
        counts = _add_counts(counts, watch)
    assert turns >= 400
    assert all(counts), counts  # both halves of the turn, skips, windows at the end


@pytest.mark.parametrize("n, m, itemsize", [(5, 51, 1), (4, 64, 2), (5, 13107, 2),
                                            (16, 4096, 4)])
def test_random_tape_box_positions_across_dtype_boundaries(n, m, itemsize):
    """Grouping a random tape through the inverse permutation gives each
    box's positions in stream order, as the narrowest unsigned dtype that
    holds n*m, and at n*m = 255 and 256 the same games as the per-ball
    loop."""
    for seed in range(3):
        rt = box_game._BoxRuntime(BoxConfig(n=n, m=m, b=1), seed)
        positions = np.asarray(rt.box_positions)
        assert rt.box_positions.itemsize == itemsize
        assert positions.dtype.kind == "u"
        expected = np.argsort(rt.state.market.perm // m, kind="stable") + 1
        assert np.array_equal(positions, expected), seed
        if n * m > 256:
            continue
        b = (m - 1) // n
        for breaker in (FocusBreaker, lambda: RandomStrategy(0.5, mix_seed(seed, 4))):
            cfg = BoxConfig(n=n, m=m, b=b)
            fast_log, slow_log = [], []
            fast = play_box(cfg, MinboxMaker(), breaker(), seed=seed, damage_log=fast_log)
            slow = play_box(cfg, SlowTurns(MinboxMaker()), SlowTurns(breaker()), seed=seed,
                            damage_log=slow_log)
            assert _box_game_record(fast, fast_log) == _box_game_record(slow, slow_log), seed


def _free_ball_walk(positions, lo, hi, claims, after, k):
    """Reference for ``_free_ball``: walk the index of the k-th ball past
    ``after`` plus the claims up to it, one claim count at a time, to its
    least fixed point."""
    kth = bisect_right(positions, after, lo, hi) + k - 1
    skipped = bisect_right(claims, after)
    idx = kth
    while idx < hi:
        pos = positions[idx]
        nxt = kth + bisect_right(claims, pos) - skipped
        if nxt == idx:
            return pos
        idx = nxt
    raise RuntimeError(f"fewer than {k} unowned balls past position {after}")


@st.composite
def _free_ball_cases(draw):
    positions = sorted(draw(st.sets(st.integers(1, 200), min_size=1, max_size=40)))
    lo = draw(st.integers(0, len(positions) - 1))
    hi = draw(st.integers(lo + 1, len(positions)))
    claims = sorted(draw(st.sets(st.sampled_from(positions[lo:hi]))))
    after = draw(st.integers(0, 201))
    k = draw(st.integers(1, hi - lo + 1))
    return positions, lo, hi, claims, after, k


@settings(max_examples=500, deadline=None)
@given(case=_free_ball_cases())
def test_free_ball_search_matches_the_walk(case):
    def answer(find):
        try:
            return find(*case)
        except RuntimeError as exc:
            return str(exc)
    assert answer(_free_ball) == answer(_free_ball_walk)


def test_focus_bulk_claim_stops_at_the_killing_ball():
    # Box 2 dies on the second of the last turn's b = 3 claims; the first,
    # at position 10, lies behind Maker's pointer (11) and adds nothing.
    seq = (1, 1, 2, 0, 1, 1, 2, 0, 0, 2, 0, 2)
    cfg = BoxConfig(n=3, m=4, b=3, ordering="scripted", sequence=seq)
    fast_log, slow_log = [], []
    fast = play_box(cfg, MinboxMaker(), FocusBreaker(), seed=1, damage_log=fast_log)
    slow = play_box(cfg, MinboxMaker(), SlowTurns(FocusBreaker()), seed=1,
                    damage_log=slow_log)
    assert fast.maker_positions == (1, 11)
    assert fast.breaker_positions == (4, 8, 9, 10, 12)
    assert fast.details == {"winner": "breaker", "covered": 2, "btb": [3, 3, 4],
                            "breaker_turns": 2}
    assert fast == slow and fast_log == slow_log


def _box_game_record(out, log):
    return (out.success, out.maker_cost.hex(), out.maker_positions, out.breaker_positions,
            out.turns_used, out.details, log)


def test_fixed_p_breaker_turn_matches_decide_loop(monkeypatch):
    """A Breaker that takes each unowned ball with a fixed probability and
    its SlowTurns twin give the same game, and a random Breaker's generator
    ends in the same state.  Against the exact min-box Maker the fast side
    plays the whole game in ``_play_minbox_fixed_p`` on every tape; against
    the SlowTurns min-box and random Makers both sides are offered every
    ball in ``_breaker_turn``, whose watcher counts the games starved
    mid-turn.  The one loop has its own differential test below."""
    starved_mid_turn = []
    real_turn = box_game._breaker_turn

    def watched_turn(rt, breaker, view):
        before = len(rt.state.breaker_positions)
        real_turn(rt, breaker, view)
        takes = len(rt.state.breaker_positions) - before
        starved_mid_turn.append(rt.goal.dead and takes < view.b
                                and rt.state.breaker_ptr < rt.state.n)

    monkeypatch.setattr(box_game, "_breaker_turn", watched_turn)
    breakers = {f"random{p}": functools.partial(RandomStrategy, p)
                for p in (0.0, 0.2, 0.5, 0.8, 1.0)}
    breakers.update(always=lambda seed: AlwaysTake(), never=lambda seed: NeverTake())
    makers = {
        "minbox": lambda seed: MinboxMaker(),
        "slow_minbox": lambda seed: SlowTurns(MinboxMaker()),
        "random": functools.partial(RandomStrategy, 0.3),
    }
    breaker_wins = mid_turn = 0
    for (n, m, b), ordering, maker, breaker, t in itertools.product(
            [(2, 3, 1), (3, 4, 2), (5, 11, 2), (4, 6, 3), (6, 5, 4)],
            ("random", "scripted", "adversarial"), makers, breakers, range(6)):
        seed = mix_seed(17, t)
        sequence = None
        if ordering == "scripted":
            rng = np.random.Generator(np.random.PCG64(seed))
            sequence = tuple(rng.permutation(np.repeat(np.arange(n), m)).tolist())
        cfg = BoxConfig(n=n, m=m, b=b, ordering=ordering, sequence=sequence)
        fast_breaker = breakers[breaker](mix_seed(seed, 5))
        slow_breaker = breakers[breaker](mix_seed(seed, 5))
        fast_log, slow_log = [], []
        starved_mid_turn.clear()
        fast = play_box(cfg, makers[maker](mix_seed(seed, 4)), fast_breaker, seed=seed,
                        damage_log=fast_log)
        mid_turn += any(starved_mid_turn)
        slow = play_box(cfg, makers[maker](mix_seed(seed, 4)), SlowTurns(slow_breaker),
                        seed=seed, damage_log=slow_log)
        case = ((n, m, b), ordering, maker, breaker, t)
        assert _box_game_record(fast, fast_log) == _box_game_record(slow, slow_log), case
        if isinstance(fast_breaker, RandomStrategy):
            assert (fast_breaker._rng.bit_generator.state
                    == slow_breaker._rng.bit_generator.state), case
        breaker_wins += not fast.success
    assert breaker_wins >= 100
    assert mid_turn >= 20  # a box starved with quota left and balls ahead


class _KeptRuntime(box_game._BoxRuntime):
    """A game runtime that files itself in ``kept``, so a test can read the
    state a finished game leaves."""

    kept = []

    def __init__(self, cfg, seed):
        super().__init__(cfg, seed)
        self.kept.append(self)


def _end_state(rt):
    state, goal = rt.state, rt.goal
    return (state.maker_ptr, state.breaker_ptr, state.revealed_upto, state.turns_used,
            state.goal_met, state.goal_position, state.owner.tobytes(),
            state.market.perm.tobytes(), goal.btb, goal.covered, goal.covered_count,
            goal.max_uncovered, goal.dead, rt.breaker_turns)


def test_adversarial_per_ball_games_keep_no_claims(monkeypatch):
    """On an adversarial tape ``_minbox_turn`` and ``_focus_turn``, the
    only readers of a runtime's claims, play no turn, so a per-ball game
    there (the min-box Maker against the focus Breaker) keeps none; each game's outcome and
    damage log hash to its pin in ``box_pins.json``."""
    pins = json.loads(Path(__file__).with_name("box_pins.json").read_text())
    monkeypatch.setattr(box_game, "_BoxRuntime", _KeptRuntime)
    for (n, m, b), seed in itertools.product([(2, 3, 1), (3, 4, 2), (5, 11, 2), (6, 5, 4)],
                                             (0, 7, 2024)):
        _KeptRuntime.kept.clear()
        log = []
        out = play_box(BoxConfig(n=n, m=m, b=b, ordering="adversarial"), MinboxMaker(),
                       FocusBreaker(), seed=seed, damage_log=log)
        (rt,) = _KeptRuntime.kept
        assert rt.box_positions is None and rt.claims is None
        assert (hashlib.sha256((repr(out) + repr(log)).encode()).hexdigest()
                == pins[f"n{n}m{m}b{b}/adversarial/minbox/focus/{seed}"])


def test_minbox_fixed_p_loop_matches_its_slow_twin(monkeypatch):
    """``play_box`` plays the min-box Maker against a Breaker with a fixed
    take probability in one loop, ``_play_minbox_fixed_p``, on every tape;
    with both players wrapped in SlowTurns the same game is offered ball by
    ball.  The two give the same record, damage log included, leave the
    same pointers, owners, tape ranks (placed as the game goes on an
    adversarial tape) and scoreboard behind, and a random Breaker's
    generator ends in the same state, so the loop hands back exactly the
    doubles it drew and did not use.  The fast game builds no runtime, so
    its end state is read where the loop returns: the pointers, turn
    counters and scoreboard it leaves and the owners and ranks it wrote,
    with the reveal frontier at the further pointer.  The slow twin is
    watched for boxes starved with quota left and balls ahead, Breaker
    takes behind Maker's pointer, which add nothing, and random Breakers
    that draw more than two blocks of doubles."""
    loops, ends, starved_mid_turn, behind, draws = [], [], [], [], []
    real_loop, real_turn = box_game._play_minbox_fixed_p, box_game._breaker_turn
    real_decide = RandomStrategy.decide

    def watched_loop(*args):
        loops.append(args[2])
        mp, bp, breaker_turns, turns, _ = result = real_loop(*args)
        goal, owner, ranks = args[0], args[3], args[4]
        ends.append((mp, bp, max(mp, bp), turns, np.array(owner, dtype=np.int8).tobytes(),
                     np.asarray(ranks).tobytes(), list(goal.btb), list(goal.covered),
                     goal.covered_count, goal.max_uncovered, goal.dead, breaker_turns))
        return result

    def watched_turn(rt, breaker, view):
        before = len(rt.state.breaker_positions)
        real_turn(rt, breaker, view)
        taken = rt.state.breaker_positions[before:]
        behind.append(any(pos <= rt.state.maker_ptr for pos in taken))
        starved_mid_turn.append(rt.goal.dead and len(taken) < view.b
                                and rt.state.breaker_ptr < rt.state.n)

    def counted_decide(self, view, item):
        draws.append(1)
        return real_decide(self, view, item)

    monkeypatch.setattr(box_game, "_play_minbox_fixed_p", watched_loop)
    monkeypatch.setattr(box_game, "_breaker_turn", watched_turn)
    monkeypatch.setattr(box_game, "_BoxRuntime", _KeptRuntime)
    monkeypatch.setattr(RandomStrategy, "decide", counted_decide)
    breakers = {f"random{p}": functools.partial(RandomStrategy, p)
                for p in (0.0, 0.2, 0.5, 0.8, 1.0)}
    breakers.update(always=lambda seed: AlwaysTake(), never=lambda seed: NeverTake())
    breaker_wins = mid_turn = behind_games = refilled = 0
    # m = bn + 1 at (5, 11, 2); the rest sit far below it, where Breaker
    # often wins, except (6, 20, 3), whose long games draw several blocks.
    for (n, m, b), ordering, breaker, t in itertools.product(
            [(3, 4, 2), (5, 11, 2), (4, 3, 3), (8, 4, 6), (10, 3, 5), (12, 5, 8), (6, 20, 3)],
            ("random", "scripted", "adversarial"), breakers, range(8)):
        seed = mix_seed(29, t)
        sequence = None
        if ordering == "scripted":
            rng = np.random.Generator(np.random.PCG64(seed))
            sequence = tuple(rng.permutation(np.repeat(np.arange(n), m)).tolist())
        cfg = BoxConfig(n=n, m=m, b=b, ordering=ordering, sequence=sequence)
        fast_breaker = breakers[breaker](mix_seed(seed, 5))
        slow_breaker = breakers[breaker](mix_seed(seed, 5))
        fast_log, slow_log = [], []
        loops.clear()
        ends.clear()
        _KeptRuntime.kept.clear()
        fast = play_box(cfg, MinboxMaker(), fast_breaker, seed=seed, damage_log=fast_log)
        assert len(loops) == 1 and _KeptRuntime.kept == []
        starved_mid_turn.clear()
        behind.clear()
        draws.clear()
        slow = play_box(cfg, SlowTurns(MinboxMaker()), SlowTurns(slow_breaker), seed=seed,
                        damage_log=slow_log)
        assert len(loops) == 1
        case = ((n, m, b), ordering, breaker, t)
        assert _box_game_record(fast, fast_log) == _box_game_record(slow, slow_log), case
        (slow_rt,), (end,) = _KeptRuntime.kept, ends
        assert end[:4] + (fast.success, fast.M) + end[4:] == _end_state(slow_rt), case
        if isinstance(fast_breaker, RandomStrategy):
            assert (fast_breaker._rng.bit_generator.state
                    == slow_breaker._rng.bit_generator.state), case
        breaker_wins += not fast.success
        mid_turn += any(starved_mid_turn)
        behind_games += any(behind)
        refilled += len(draws) > 2 * box_game._DRAWS
    assert breaker_wins >= 250
    assert mid_turn >= 100  # a box starved with quota left and balls ahead
    assert behind_games >= 200
    assert refilled >= 30


def test_adversarial_block_rows_are_play_box_winners():
    """Each game of the harness's adversarial box block has the winner of
    the same game offered ball by ball through ``play_box`` (both players
    wrapped in SlowTurns): a random Breaker at p in {0, 0.2, 0.5, 0.8, 1},
    drawing from its trial's Breaker stream, ``AlwaysTake`` (p = 1) and
    ``NeverTake`` (p = 0, no stream), from sizes where Breaker always wins
    up to m = bn + 1."""
    rows, breaker_wins, games = 6, 0, 0
    takers = {f"random{p}": p for p in (0.0, 0.2, 0.5, 0.8, 1.0)}
    takers.update(always=1.0, never=0.0)
    for (n, m, b), name in itertools.product(
            [(1, 1, 1), (2, 3, 1), (3, 2, 2), (3, 4, 2), (4, 3, 3), (6, 5, 4), (8, 4, 6),
             (10, 3, 5), (12, 5, 8), (5, 11, 2)], takers):
        p = takers[name]
        cfg = harness.TrialConfig(game="box", n=n, m=m, b=b, trials=rows,
                                  master_seed=n * 100 + m * 10 + b, maker="minbox",
                                  breaker="random", ordering="adversarial")
        if name.startswith("random"):
            breakers = [RandomStrategy(p, mix_seed(mix_seed(cfg.master_seed, row),
                                                   streams._BREAKER_STREAM))
                        for row in range(rows)]
        else:
            breakers = [AlwaysTake() if name == "always" else NeverTake() for _ in range(rows)]
        won = harness._run_box_block(cfg, 0, rows, p)[0]
        box = BoxConfig(n=n, m=m, b=b, ordering="adversarial")
        expected = [play_box(box, SlowTurns(MinboxMaker()), SlowTurns(breaker)).success
                    for breaker in breakers]
        assert won.dtype == bool and won.tolist() == expected, ((n, m, b), name)
        breaker_wins += rows - sum(expected)
        games += rows
    assert breaker_wins >= 80 and games - breaker_wins >= 200


def test_only_the_exact_pair_plays_the_one_loop(monkeypatch):
    """Subclasses of ``MinboxMaker``, SlowTurns wrappers of either player
    and other Breakers take the per-turn driver; the exact pair plays the
    one loop on every tape."""
    loops = []
    real_loop = box_game._play_minbox_fixed_p
    monkeypatch.setattr(box_game, "_play_minbox_fixed_p",
                        lambda *args: loops.append(args[2]) or real_loop(*args))

    class Subclass(MinboxMaker):
        pass

    cfg = BoxConfig(n=3, m=4, b=2, ordering="random")
    adversarial = BoxConfig(n=3, m=4, b=2, ordering="adversarial")
    general = [
        (cfg, Subclass(), RandomStrategy(0.5, 3)),
        (cfg, SlowTurns(MinboxMaker()), RandomStrategy(0.5, 3)),
        (cfg, MinboxMaker(), SlowTurns(RandomStrategy(0.5, 3))),
        (cfg, MinboxMaker(), SlowTurns(NeverTake())),
        (cfg, MinboxMaker(), FocusBreaker()),
        (cfg, RandomStrategy(0.5, 4), AlwaysTake()),
        (adversarial, MinboxMaker(), FocusBreaker()),
        (adversarial, SlowTurns(MinboxMaker()), AlwaysTake()),
    ]
    for config, maker, breaker in general:
        play_box(config, maker, breaker, seed=7)
    assert loops == []
    scripted = BoxConfig(n=3, m=4, b=2, ordering="scripted", sequence=(0, 1, 2) * 4)
    for config, breaker in ((cfg, RandomStrategy(0.2, 3)), (cfg, AlwaysTake()),
                            (scripted, NeverTake()), (adversarial, RandomStrategy(0.8, 3)),
                            (adversarial, AlwaysTake())):
        play_box(config, MinboxMaker(), breaker, seed=7)
    assert loops == [0.2, 1.0, 0.0, 0.8, 1.0]


class GreedyMaker(MinboxMaker):
    """A ``MinboxMaker`` subclass that takes any unowned ball of an
    uncovered box."""

    def decide(self, view, item):
        return item.owner == UNOWNED and not view.covered[item.label[0]]


class TwoBoxFocus(FocusBreaker):
    """A ``FocusBreaker`` subclass that also takes the balls of the last
    box."""

    def decide(self, view, item):
        return (super().decide(view, item)
                or (item.owner == UNOWNED and item.label[0] == len(view.covered) - 1))


def test_subclasses_that_override_decide_play_as_their_slow_twins():
    """The fast turns play only the exact ``MinboxMaker`` and
    ``FocusBreaker``: a subclass of either that overrides ``decide`` is
    offered each ball, so it plays the same game as its SlowTurns twin on
    every ordering, against the exact other player too."""
    pairs = {
        "greedy/focus": (GreedyMaker, FocusBreaker),
        "minbox/two": (MinboxMaker, TwoBoxFocus),
        "greedy/two": (GreedyMaker, TwoBoxFocus),
    }
    breaker_wins = games = 0
    for (n, m, b), ordering, pair, t in itertools.product(
            [(2, 3, 1), (3, 4, 2), (4, 6, 3), (5, 11, 2)],
            ("random", "scripted", "adversarial"), pairs, range(5)):
        seed = mix_seed(37, t)
        sequence = None
        if ordering == "scripted":
            rng = np.random.Generator(np.random.PCG64(seed))
            sequence = tuple(rng.permutation(np.repeat(np.arange(n), m)).tolist())
        cfg = BoxConfig(n=n, m=m, b=b, ordering=ordering, sequence=sequence)
        maker, breaker = pairs[pair]
        fast_log, slow_log = [], []
        fast = play_box(cfg, maker(), breaker(), seed=seed, damage_log=fast_log)
        slow = play_box(cfg, SlowTurns(maker()), SlowTurns(breaker()), seed=seed,
                        damage_log=slow_log)
        case = ((n, m, b), ordering, pair, t)
        assert _box_game_record(fast, fast_log) == _box_game_record(slow, slow_log), case
        breaker_wins += not fast.success
        games += 1
    assert 30 <= breaker_wins <= games - 30


def test_no_strategy_method_names_the_box_runtime():
    """No ``Strategy`` subclass in ``src/`` has a method that takes or names
    ``_BoxRuntime``: the box game's fast turns are driver code, chosen by
    the player's exact type.  ``BoxView``, a view and not a strategy, is
    built from one."""
    package = Path(box_game.__file__).parent
    naming = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(
            "purchase_games" if path.stem == "__init__" else f"purchase_games.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    (isinstance(sub, ast.Name) and sub.id == "_BoxRuntime")
                    or (isinstance(sub, ast.Attribute) and sub.attr == "_BoxRuntime")
                    for sub in ast.walk(node)):
                naming.append((path.name, node.name,
                               issubclass(getattr(module, node.name), engine.Strategy)))
    assert naming == [("box_game.py", "BoxView", False)], naming


def test_fixed_p_minbox_games_build_no_runtime(monkeypatch):
    """A game of the exact min-box Maker against a fixed-probability
    Breaker builds no ``_BoxRuntime`` and no ``GameState`` on any tape;
    against the focus Breaker, or with a SlowTurns player, it builds one
    of each."""
    built = []
    real_runtime, real_state = box_game._BoxRuntime, box_game.GameState
    monkeypatch.setattr(box_game, "_BoxRuntime",
                        lambda *args: built.append("runtime") or real_runtime(*args))
    monkeypatch.setattr(box_game, "GameState",
                        lambda *args, **kwargs: built.append("state")
                        or real_state(*args, **kwargs))
    for ordering in ("random", "scripted", "adversarial"):
        cfg = BoxConfig(n=3, m=4, b=2, ordering=ordering, seed=5,
                        sequence=(0, 1, 2) * 4 if ordering == "scripted" else None)
        for breaker in (RandomStrategy(0.5, 3), AlwaysTake(), NeverTake()):
            assert play_box(cfg, MinboxMaker(), breaker).turns_used > 0
        assert built == [], ordering
        for maker, breaker in ((MinboxMaker(), FocusBreaker()),
                               (SlowTurns(MinboxMaker()), RandomStrategy(0.5, 3)),
                               (MinboxMaker(), SlowTurns(AlwaysTake()))):
            play_box(cfg, maker, breaker)
            assert built == ["runtime", "state"], ordering
            built.clear()


def test_remembered_random_breaker_draws_as_its_slow_twin():
    """With the game's streams remembered (``streams._generator``), the fast
    random Breaker is built from seed words and its SlowTurns twin, played
    after they are forgotten, from numpy's seeding: the games are the same,
    and so are the two generators' end states."""
    try:
        for (n, m, b), ordering, p, t in itertools.product(
                [(3, 4, 2), (5, 11, 2), (6, 5, 4)], ("random", "scripted"), (0.2, 0.5, 0.8),
                range(4)):
            seed = mix_seed(23, t)
            sequence = None
            if ordering == "scripted":
                rng = np.random.Generator(np.random.PCG64(seed))
                sequence = tuple(rng.permutation(np.repeat(np.arange(n), m)).tolist())
            cfg = BoxConfig(n=n, m=m, b=b, ordering=ordering, sequence=sequence)
            fast_breaker = RandomStrategy(p, mix_seed(seed, streams._BREAKER_STREAM))
            slow_breaker = RandomStrategy(p, mix_seed(seed, streams._BREAKER_STREAM))
            fast_log, slow_log = [], []
            streams._remember_seed_words(23, np.array([t]))
            fast = play_box(cfg, MinboxMaker(), fast_breaker, seed=seed, damage_log=fast_log)
            streams._remember_seed_words(None)
            slow = play_box(cfg, MinboxMaker(), SlowTurns(slow_breaker), seed=seed,
                            damage_log=slow_log)
            case = ((n, m, b), ordering, p, t)
            assert isinstance(fast_breaker._rng.bit_generator.seed_seq, streams._SeedWords)
            assert not isinstance(slow_breaker._rng.bit_generator.seed_seq, streams._SeedWords)
            assert _box_game_record(fast, fast_log) == _box_game_record(slow, slow_log), case
            assert (fast_breaker._rng.bit_generator.state
                    == slow_breaker._rng.bit_generator.state), case
    finally:
        streams._remember_seed_words(None)


def test_scripted_ordering_needs_a_seed():
    cfg = BoxConfig(n=2, m=3, b=1, ordering="scripted", sequence=(0, 1, 1, 0, 0, 1))
    with pytest.raises(ValueError, match="scripted ordering needs a seed"):
        play_box(cfg, MinboxMaker(), FocusBreaker())
    seeded = BoxConfig(n=2, m=3, b=1, ordering="scripted", sequence=cfg.sequence, seed=0)
    assert play_box(seeded, MinboxMaker(), FocusBreaker()).seed == 0


def test_scripted_determinism():
    seq = (0, 1, 1, 0, 0, 1)
    cfg = BoxConfig(n=2, m=3, b=1, ordering="scripted", sequence=seq)
    a = play_box(cfg, MinboxMaker(), FocusBreaker(), seed=3)
    b = play_box(cfg, MinboxMaker(), FocusBreaker(), seed=3)
    assert a == b


def test_pointer_persistence():
    # Positions taken by each player are strictly increasing across turns.
    cfg = BoxConfig(n=3, m=4, b=2, ordering="random")
    out = play_box(cfg, MinboxMaker(), FocusBreaker(), seed=21)
    assert list(out.maker_positions) == sorted(out.maker_positions)
    assert list(out.breaker_positions) == sorted(out.breaker_positions)


# --------------------------------------------------------------------------
# Adversarial orderings
# --------------------------------------------------------------------------


def test_adversarial_game_trace_vs_oracle():
    # Full engine trace at n=2, b=1, m=2 against the adaptive orderer,
    # compared with the exact adversarial-minimax winner.  With Maker moving
    # first the oracle says maker (threshold b(n-1)+1), which disagrees with
    # the bn+1 rule; the engine's min-box maker should achieve it here.
    cfg = BoxConfig(n=2, m=2, b=1, ordering="adversarial")
    out = play_box(cfg, MinboxMaker(), AlwaysTake(), seed=1)
    oracle_winner = box_minimax(2, 2, 1, "adversarial", maker_first=True).winner
    assert out.details["winner"] == oracle_winner == "maker"
    prediction = "maker" if 2 >= box_threshold(2, 1) else "breaker"
    assert prediction == "breaker"  # the recorded disagreement, reported not hidden


def test_adversarial_maker_first_scan_sees_other_boxes():
    cfg = BoxConfig(n=3, m=2, b=1, ordering="adversarial")
    out = play_box(cfg, MinboxMaker(), AlwaysTake(), seed=1)
    # position 1 was revealed during maker's first scan: not box 0
    assert out.maker_items[0][0] != 0


# --------------------------------------------------------------------------
# Scripted-ordering text format
# --------------------------------------------------------------------------


def test_scripted_ordering_roundtrip(tmp_path):
    seq = (0, 1, 2, 2, 1, 0)
    for path in (str(tmp_path / "as_str.txt"), tmp_path / "as_path.txt"):
        save_scripted_ordering(path, seq)
        assert load_scripted_ordering(path, 3, 2) == seq
    with pytest.raises(ValueError):
        load_scripted_ordering(io.StringIO("0\n1\n"), 2, 2)
    with pytest.raises(ValueError):
        load_scripted_ordering(io.StringIO("0\n0\n0\n1\n"), 2, 2)


def test_adversarial_adaptive_engine_at_threshold():
    # Through the engine with the adaptive orderer: at m = bn+1 the min-box
    # maker wins even with the ordering colluding with an always-taking
    # breaker, matching the oracle.
    cfg = BoxConfig(n=2, m=3, b=1, ordering="adversarial")
    out = play_box(cfg, MinboxMaker(), AlwaysTake(), seed=1)
    assert out.success
    assert box_minimax(2, 3, 1, "adversarial").winner == "maker"


def test_outcome_gathers_label_ranks_on_first_read(monkeypatch):
    """A finished game gathers no label ranks until its items are read, and
    then looks them up in its market."""
    calls = []
    ranks_at = engine._ranks_at
    monkeypatch.setattr(engine, "_ranks_at", lambda *a: calls.append(a) or ranks_at(*a))
    cfg = BoxConfig(n=4, m=6, b=1, ordering="random")
    out = play_box(cfg, MinboxMaker(), RandomStrategy(0.5, 7), seed=5)
    assert out.breaker_positions and calls == []
    market = engine.generate_market(cfg.total, 5, engine.BoxLabels(cfg.n, cfg.m))
    assert out.breaker_items == tuple(market.label(p) for p in out.breaker_positions)
    assert len(calls) == 1
    assert out.maker_items == tuple(market.label(p) for p in out.maker_positions)
    assert len(calls) == 2


def test_box_view_hides_unrevealed():
    seq = (0, 1, 0, 1)
    cfg = BoxConfig(n=2, m=2, b=1, ordering="scripted", sequence=seq)

    class Probe(Strategy):
        def __init__(self):
            self.checked = False

        def decide(self, view, item):
            if not self.checked:
                self.checked = True
                assert isinstance(view, View)
                assert view.label(item.position)[0] == item.label[0]
                with pytest.raises(RuntimeError):
                    view.label(item.position + 1)
            return True

    probe = Probe()
    play_box(cfg, probe, NeverTake(), seed=1)
    assert probe.checked


def test_box_view_raises_hidden_information_error():
    """The box view refuses unrevealed positions with the same error class
    as the engine's View, and position 0 is not an alias of the last ball."""
    cfg = BoxConfig(n=2, m=2, b=1, ordering="scripted", sequence=(0, 1, 0, 1))
    raised = []

    class Probe(Strategy):
        def decide(self, view, item):
            if not raised:
                for ask in (view.label, view.cost):
                    for pos in (0, item.position + 1):
                        with pytest.raises(HiddenInformationError) as exc:
                            ask(pos)
                        raised.append(exc.type)
            return True

    play_box(cfg, Probe(), NeverTake(), seed=1)
    assert raised == [HiddenInformationError] * 4
