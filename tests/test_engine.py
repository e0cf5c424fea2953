"""Engine tests: markets, the turn protocol, phase gates, views, traces."""

import ast
import dataclasses
import io
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from purchase_games import box_game, engine, streams
from purchase_games.engine import (
    BREAKER,
    MAKER,
    AlwaysTake,
    EdgeLabels,
    GameRules,
    GameState,
    HiddenInformationError,
    IndexLabels,
    Market,
    NeverTake,
    Outcome,
    ProtocolViolation,
    RandomStrategy,
    ScheduleStrategy,
    SlowTurns,
    TurnContext,
    View,
    dump_market,
    generate_market,
    mix_seed,
    phase_ends,
    phase_of_position,
    play,
)
from purchase_games.clique_game import (
    CliqueGoal,
    clique_plan,
    kclique_maker,
    triangle_maker_unrestricted,
)
from purchase_games.item_game import (
    PhasedMaker,
    breaker_closed_form,
    cheap_grab_breaker,
    phased_maker_plan,
    single_threshold_maker,
)
from purchase_games.oracle import item_b0_dp
from purchase_games.path_game import PathGoal, path_maker, path_plan


# --------------------------------------------------------------------------
# Seeds and phase partitions
# --------------------------------------------------------------------------


@given(st.integers(0, 2**64 - 1), st.integers(0, 10**6))
def test_mix_seed_is_deterministic_64bit(master, index):
    a = mix_seed(master, index)
    assert a == mix_seed(master, index)
    assert 0 <= a < 2**64


def test_mix_seed_spreads():
    seen = {mix_seed(12345, i) for i in range(10000)}
    assert len(seen) == 10000


@pytest.mark.parametrize("master", [0, 11, -5, 2**64 - 1, 2**64 + 5, -(2**70)])
def test_vectorised_mix_equals_mix_seed(master):
    index = np.arange(3000, dtype=np.uint64)
    mixed = streams._mix_seeds(master, index)
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == [mix_seed(master, i) for i in range(3000)]
    assert streams._mix_seeds(mixed, 0).tolist() == [mix_seed(m, 0) for m in mixed.tolist()]


def test_pcg64_seed_words_reproduce_pcg64_state():
    edges = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    rng = np.random.default_rng(2024)
    seeds = np.concatenate([np.array(edges, dtype=np.uint64),
                            rng.integers(0, 2**64, 1200, dtype=np.uint64, endpoint=False)])
    words = streams._pcg64_seed_words(seeds)
    assert words.shape == (seeds.size, 4) and words.dtype == np.uint64
    for seed, row in zip(seeds.tolist(), words):
        assert streams._seeded(row).bit_generator.state == np.random.PCG64(seed).state, seed


def test_pcg64_seed_words_draw_the_market_costs():
    """A generator seeded from a trial's cost words draws its market's
    costs, and one advanced by ``a`` draws them from position ``a + 1`` on."""
    seeds = streams._mix_seeds(7, np.arange(5, dtype=np.uint64))
    words = streams._pcg64_seed_words(streams._mix_seeds(seeds, 0))
    for seed, row in zip(seeds.tolist(), words):
        costs = generate_market(50, seed).costs
        assert streams._seeded(row).random(50).tobytes() == costs.tobytes()
        for a in (1, 17, 49):
            rng = streams._seeded(row)
            rng.bit_generator.advance(a)
            assert rng.random(50 - a).tobytes() == costs[a:].tobytes(), (seed, a)


def test_pcg64_seed_words_refuse_a_seeding_they_do_not_reproduce(monkeypatch):
    monkeypatch.setattr(streams, "_MULT_B", streams._MULT_B + 2)
    with pytest.raises(RuntimeError, match="PCG64"):
        streams._pcg64_seed_words(np.arange(3, dtype=np.uint64))


GENERATOR_SEEDS = [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1]  # one and two entropy words


@pytest.fixture
def forget_seed_words():
    yield
    streams._remember_seed_words(None)


def test_generator_is_pcg64_of_its_seed_remembered_or_not(forget_seed_words):
    """``_generator(seed)`` starts where ``PCG64(seed)`` does and draws the
    same doubles, whether it is built from remembered seed words or not;
    ``_remember_seed_words(master, trials)`` remembers exactly the seeds of
    those trials' streams."""
    trials = np.arange(3)
    streamed = streams._stream_seeds(2**64 - 1, trials, streams._TRIAL_STREAMS).ravel().tolist()
    for remembered in (False, True):
        if remembered:
            streams._remember_seed_words(2**64 - 1, trials)
        for seed in GENERATOR_SEEDS + streamed:
            rng = streams._generator(seed)
            assert (isinstance(rng.bit_generator.seed_seq, streams._SeedWords)
                    == (remembered and seed in streamed))
            assert rng.bit_generator.state == np.random.PCG64(seed).state, seed
            assert (rng.random(7).tobytes()
                    == np.random.Generator(np.random.PCG64(seed)).random(7).tobytes()), seed


def test_remembered_seed_words_refuse_a_seeding_they_do_not_reproduce(monkeypatch,
                                                                      forget_seed_words):
    class WrongWords(streams._SeedWords):
        def generate_state(self, n_words, dtype=np.uint32):
            return self.words ^ np.uint64(1)

    monkeypatch.setattr(streams, "_SeedWords", WrongWords)
    with pytest.raises(RuntimeError, match="PCG64"):
        streams._remember_seed_words(2**64 - 1, np.arange(3))
    assert streams._seed_memo.table is None


def test_generators_are_built_only_in_the_stream_helpers():
    """Every numpy generator in ``src/`` is built in ``streams.py``, by
    ``_generator``, ``_pcg64_seed_words``'s self-check or ``_seeded``, so no
    per-game build bypasses the remembered seed words, and exactly one
    expression builds a PCG64 from seed words."""
    allowed = {"_generator", "_pcg64_seed_words", "_seeded"}
    builders = {"PCG64", "Generator", "default_rng", "SeedSequence", "RandomState"}
    found = []
    from_words = []
    for path in sorted(pathlib.Path(engine.__file__).parent.glob("*.py")):
        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                inner = where
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = child.name
                elif isinstance(child, ast.Call):
                    func = child.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name in builders:
                        found.append((path.name, where, name))
                    if name == "PCG64" and "_SeedWords" in ast.unparse(child):
                        from_words.append((path.name, where))
                visit(child, inner)

        visit(ast.parse(path.read_text()), None)
    builds = {(name, where) for name, where, _ in found}
    assert builds <= {("streams.py", where) for where in allowed}, found
    assert {where for _, where, _ in found} == allowed  # the scan sees each helper's builds
    assert from_words == [("streams.py", "_seeded")], from_words


def test_no_stream_id_is_open_coded():
    """Outside ``streams.py``, no call in ``src/`` derives a stream's seed
    from an integer literal: every stream id is a named constant of
    ``streams``."""
    mixers = {"mix_seed", "_mix_seeds", "_stream_seeds"}
    open_coded = []
    for path in sorted(pathlib.Path(engine.__file__).parent.glob("*.py")):
        if path.name == "streams.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and len(node.args) >= 2:
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                stream = node.args[-1]
                if (name in mixers and isinstance(stream, ast.Constant)
                        and type(stream.value) is int):
                    open_coded.append((path.name, node.lineno, ast.unparse(node)))
    assert open_coded == [], open_coded


@given(st.integers(1, 500), st.integers(1, 60))
def test_phase_partition(n, p):
    if p > n:
        with pytest.raises(ValueError):
            phase_ends(n, p)
        return
    ends = phase_ends(n, p)
    assert len(ends) == p and ends[-1] == n
    sizes = np.diff(np.concatenate(([0], ends)))
    lo, hi = n // p, -(-n // p)
    assert set(sizes.tolist()) <= {lo, hi}
    # remainder goes to the earliest phases
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    for pos in (1, n, (n + 1) // 2):
        j = phase_of_position(pos, ends)
        start = 1 if j == 1 else int(ends[j - 2]) + 1
        assert start <= pos <= ends[j - 1]


def test_phase_ends_is_computed_once_and_read_only():
    first = phase_ends(1000, 7)
    again = phase_ends(1000, 7)
    assert np.array_equal(first, again)
    for ends in (first, again):
        with pytest.raises(ValueError):
            ends[0] = 0
    assert first[0] == 143


# --------------------------------------------------------------------------
# Markets
# --------------------------------------------------------------------------


def test_market_single_item():
    m = generate_market(1, 999)
    assert m.n == 1 and 0.0 <= m.costs[0] <= 1.0


def test_market_determinism():
    a = generate_market(500, 31337)
    b = generate_market(500, 31337)
    assert np.array_equal(a.costs, b.costs)
    assert np.array_equal(a.perm, b.perm)
    c = generate_market(500, 31338)
    assert not np.array_equal(a.costs, c.costs)


def test_market_mean_cost_lln():
    m = generate_market(100_000, 4242)
    assert 0.49 <= float(m.costs.mean()) <= 0.51


def test_market_rejects_empty():
    with pytest.raises(ValueError):
        generate_market(0, 1)


def test_market_needs_a_permutation_or_its_seed():
    # Without either, the permutation would be drawn from fresh entropy.
    with pytest.raises(ValueError, match="permutation"):
        Market(3, np.zeros(3), IndexLabels(3), seed=None)


def test_market_labels_are_permutation():
    m = generate_market(50, 7)
    labels = [m.label(p) for p in range(1, 51)]
    assert sorted(labels) == list(range(1, 51))


def test_market_dump_format():
    m = generate_market(5, 3)
    buf = io.StringIO()
    dump_market(m, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 5
    for i, line in enumerate(lines):
        pos, label, cost = line.split(",")
        assert int(pos) == i + 1
        assert float(cost) == m.costs[i]  # 17 significant digits round-trip


def test_edge_labels_rank_roundtrip():
    uni = EdgeLabels(9)
    for rank in range(uni.size):
        u, v = uni.label_of_rank(rank)
        assert uni.edge_rank(u, v) == rank
        assert uni.edge_rank(v, u) == rank


def test_edge_labels_unrank_every_rank():
    for n in range(2, 81):
        uni = EdgeLabels(n)
        u, v = uni.endpoints(np.arange(uni.size))
        want_u, want_v = np.triu_indices(n, 1)
        assert np.array_equal(u, want_u) and np.array_equal(v, want_v), n
        labels = [uni.label_of_rank(r) for r in range(uni.size)]
        assert labels == list(zip(u.tolist(), v.tolist())), n


@pytest.mark.parametrize("n", [3000, 2**16])
def test_edge_labels_unrank_row_boundaries(n):
    # The float square root is nearest to rounding the wrong way at each
    # row's first and last edge, so check those and their neighbours only.
    uni = EdgeLabels(n)
    a = np.arange(n - 1)
    first = a * (2 * n - 1 - a) // 2  # rank of edge (a, a + 1)
    last = first + (n - 2 - a)        # rank of edge (a, n - 1)
    ranks = np.unique(np.clip(np.concatenate([first - 1, first, first + 1,
                                              last - 1, last, last + 1]), 0, uni.size - 1))
    u, v = uni.endpoints(ranks)
    row = np.searchsorted(first, ranks, side="right") - 1
    assert np.array_equal(u, row)
    assert np.array_equal(v, ranks - first[row] + row + 1)
    ranks = ranks.tolist()
    assert list(map(uni.label_of_rank, ranks)) == list(zip(u.tolist(), v.tolist()))
    assert [uni.edge_rank(*uni.label_of_rank(r)) for r in ranks] == ranks


def test_edge_labels_rejects_unrankable_sizes():
    with pytest.raises(ValueError):
        EdgeLabels(2**26)


# --------------------------------------------------------------------------
# Protocol basics
# --------------------------------------------------------------------------


def test_b0_maker_takes_first_offer():
    market = generate_market(10, 1)
    out = play(market, GameRules(b=0), AlwaysTake(), NeverTake())
    assert out.success and out.M == 1
    assert out.maker_cost == market.costs[0]
    assert out.maker_positions == (1,)


def test_b2_always_take_both():
    market = generate_market(10, 1)
    out = play(market, GameRules(b=2), AlwaysTake(), AlwaysTake())
    assert out.breaker_positions == (1, 2)
    assert out.maker_positions == (3,)


def test_goal_never_met_exhausts_stream():
    market = generate_market(8, 5)
    out = play(market, GameRules(b=1), NeverTake(), NeverTake())
    assert not out.success and out.maker_cost == 0.0 and out.M is None


def test_phase_rule_enforced_over_random_strategies():
    # p=2, n=10: breaker never enters phase 2 while maker is inside phase 1.
    for t in range(200):
        market = generate_market(10, mix_seed(88, t))
        rules = GameRules(b=1, phase_count=2)
        out = play(market, rules,
                   RandomStrategy(0.3, mix_seed(1, t)),
                   RandomStrategy(0.3, mix_seed(2, t)),
                   record_trace=True)
        maker_ptr = 0
        for ev in out.details["trace"]:
            if ev[0] == "end" and ev[1] == MAKER:
                maker_ptr = ev[2]
            if ev[0] == "take" and ev[1] == BREAKER and maker_ptr < 5:
                assert ev[2] <= 5


def test_quota_exact_unless_blocked():
    # Against a taker breaker with plenty of cheap items, every unblocked
    # breaker turn takes exactly b.
    for t in range(50):
        market = generate_market(40, mix_seed(17, t))
        out = play(market, GameRules(b=3), RandomStrategy(0.2, mix_seed(3, t)),
                   AlwaysTake(), record_trace=True)
        for ev in out.details["trace"]:
            if ev[0] == "end" and ev[1] == BREAKER:
                _, _, end_ptr, takes, blocked = ev
                assert takes <= 3
                if not blocked and end_ptr < 40:
                    assert takes == 3


def test_ownership_partition_and_cost_exact():
    for t in range(100):
        market = generate_market(30, mix_seed(55, t))
        out = play(market, GameRules(b=2, phase_count=3),
                   RandomStrategy(0.4, mix_seed(5, t)),
                   RandomStrategy(0.4, mix_seed(6, t)))
        assert not (set(out.maker_positions) & set(out.breaker_positions))
        expect = math.fsum(market.costs[p - 1] for p in out.maker_positions)
        assert out.maker_cost == expect


def test_replay_determinism():
    for t in range(30):
        seed = mix_seed(31, t)
        out1 = play(generate_market(25, seed), GameRules(b=1, phase_count=2),
                    RandomStrategy(0.5, seed + 1), RandomStrategy(0.5, seed + 2))
        out2 = play(generate_market(25, seed), GameRules(b=1, phase_count=2),
                    RandomStrategy(0.5, seed + 1), RandomStrategy(0.5, seed + 2))
        assert out1 == out2


def test_outcome_seed_is_the_markets():
    """An Outcome's seed is its market's: ``play`` and ``play_box`` (both
    routes, all three orderings) take no seed of their own, and a market
    built from a permutation alone has none."""
    rules = GameRules(b=1, phase_count=2)
    for seed in (0, 9, mix_seed(31, 4)):
        market = generate_market(12, seed)
        assert play(market, rules, AlwaysTake(), RandomStrategy(0.5, 1)).seed == seed
    market = Market(6, np.linspace(0.1, 0.6, 6), IndexLabels(6), None, perm=np.arange(6))
    assert play(market, rules, AlwaysTake(), AlwaysTake()).seed is None
    for ordering in ("random", "scripted", "adversarial"):
        cfg = box_game.BoxConfig(n=3, m=4, b=1, ordering=ordering, seed=21,
                                  sequence=(0, 1, 2) * 4)
        for breaker in (RandomStrategy(0.5, 3), box_game.FocusBreaker()):
            assert box_game.play_box(cfg, box_game.MinboxMaker(), breaker).seed == 21


@pytest.mark.parametrize("p", [math.nan, -0.1, 1.5, math.inf])
def test_random_strategy_refuses_a_probability_outside_the_unit_interval(p):
    """A NaN take probability once split the routes: the box game's one
    loop took every ball at p = NaN and the per-ball offers none."""
    with pytest.raises(ValueError, match="take probability"):
        RandomStrategy(p, 7)
    assert [RandomStrategy(q, 7).p for q in (0.0, 1.0)] == [0.0, 1.0]


def test_taking_owned_item_is_violation():
    class Grabby(AlwaysTake):
        def decide(self, view, item):
            return True  # even for owned items

    market = generate_market(6, 2)
    with pytest.raises(ProtocolViolation):
        play(market, GameRules(b=1), Grabby(), AlwaysTake())


# --------------------------------------------------------------------------
# The phase rule as GameState.breaker_stop states it
# --------------------------------------------------------------------------


def _state(n=10, b=1, phases=2):
    market = generate_market(n, 12)
    return GameState(market, GameRules(b=b, phase_count=phases))


def test_phase_gate_boundary_cases():
    st_ = _state()
    # maker at end of phase 1, breaker about to start phase 2 -> open
    st_.maker_ptr = 5
    st_.breaker_ptr = 5
    st_.revealed_upto = 5
    assert st_.breaker_ptr < st_.breaker_stop() == 10
    # maker mid-phase-1, breaker at phase-1 end -> closed
    st2 = _state()
    st2.maker_ptr = 3
    st2.breaker_ptr = 5
    st2.revealed_upto = 5
    assert st2.breaker_stop() == st2.breaker_ptr
    # unrestricted game -> always open
    st3 = _state(phases=1)
    st3.breaker_ptr = 9
    assert st3.breaker_ptr < st3.breaker_stop() == st3.n


def test_view_shows_breaker_reveals_to_maker():
    # After breaker scans 3 items, maker's view contains those 3 costs.
    market = generate_market(10, 77)
    taken = []

    class Peek(NeverTake):
        def play_turn(self, ctx):
            view = ctx.view
            for pos in (1, 2, 3):
                taken.append(view.cost(pos))
            super().play_turn(ctx)

    class ScanThree(NeverTake):
        def play_turn(self, ctx):
            for _ in range(3):
                ctx.offer_next()

    out = play(market, GameRules(b=1), Peek(), ScanThree())
    assert taken[:3] == [market.costs[0], market.costs[1], market.costs[2]]
    assert not out.success


def test_view_hides_unrevealed():
    market = generate_market(10, 5)
    st_ = GameState(market, GameRules(b=0))
    from purchase_games.engine import View

    view = View(st_, MAKER)
    st_.revealed_upto = 4
    assert view.cost(4) == market.costs[3]
    with pytest.raises(HiddenInformationError):
        view.cost(5)
    with pytest.raises(HiddenInformationError):
        view.label(5)


def test_blocked_breaker_lets_maker_sweep_phase():
    # Breaker is an eager taker that hits the phase gate with quota left;
    # maker then may take many items inside the blocked phase in one turn.
    market = generate_market(12, 9)
    rules = GameRules(b=6, phase_count=2)
    out = play(market, rules, AlwaysTake(), NeverTake(), record_trace=True)
    # Breaker took nothing (never-take), so it parked at the gate (pos 6)
    # blocked; maker then swept to the boundary taking everything.
    ends = [ev for ev in out.details["trace"] if ev[0] == "end"]
    assert ends[0][1] == BREAKER and ends[0][4] is True  # blocked
    assert out.maker_positions[0] == 1
    # maker's blocked turn may take more than one item
    assert len(out.maker_positions) >= 1


def test_maker_can_take_breaker_rejected_item():
    # Breaker scans past cheap items without taking; maker grabs position 1
    # even though breaker's pointer is far ahead.
    market = generate_market(10, 44)
    out = play(market, GameRules(b=1), AlwaysTake(), NeverTake())
    assert out.success and out.M == 1


# --------------------------------------------------------------------------
# Labels are looked up only when read
# --------------------------------------------------------------------------


ITEM_PAIRS = {
    "single_threshold/closed_form": (
        1, lambda n, b: single_threshold_maker(n).strategy(),
        lambda n, b: breaker_closed_form(n).strategy()),
    "dp/never": (0, lambda n, b: item_b0_dp(n).strategy(), lambda n, b: NeverTake()),
    "phased/cheap_grab": (
        3, lambda n, b: PhasedMaker(phased_maker_plan(n, b)),
        lambda n, b: cheap_grab_breaker(n, b)),
}


@pytest.mark.parametrize("pair", sorted(ITEM_PAIRS))
def test_plain_item_game_never_builds_the_permutation(pair):
    b, maker, breaker = ITEM_PAIRS[pair]
    for seed in range(5):
        market = generate_market(400, seed)
        out = play(market, GameRules(b=b), maker(400, b), breaker(400, b))
        assert out.success
        assert market._perm is None


def _with_fresh_fields(out: Outcome) -> Outcome:
    """The same Outcome, built through the ordinary constructor."""
    return Outcome(**{f.name: getattr(out, f.name) for f in dataclasses.fields(Outcome)})


def test_item_game_outcome_labels_on_first_read():
    market = generate_market(300, 8)
    maker = PhasedMaker(phased_maker_plan(300, 2))
    out = play(market, GameRules(b=2), maker, AlwaysTake())
    assert len(out.breaker_positions) >= 2 and market._perm is None
    fresh = generate_market(300, 8)
    assert out.maker_items == tuple(fresh.label(p) for p in out.maker_positions)
    assert out.breaker_items == tuple(fresh.label(p) for p in out.breaker_positions)

    slow = play(generate_market(300, 8), GameRules(b=2),
                SlowTurns(PhasedMaker(phased_maker_plan(300, 2))), AlwaysTake())
    assert slow == out and repr(slow) == repr(out)
    copy = _with_fresh_fields(out)
    assert copy == out and repr(copy) == repr(out)


def test_edge_game_outcome_labels_match_market():
    n = 40
    rules = GameRules(b=1, goal=lambda: CliqueGoal(3))

    def game(maker):
        market = generate_market(n * (n - 1) // 2, 5, EdgeLabels(n))
        return market, play(market, rules, maker, NeverTake())

    market, out = game(triangle_maker_unrestricted(n, 1))
    assert len(out.maker_positions) > 2
    assert out.maker_items == tuple(market.label(p) for p in out.maker_positions)
    _, slow = game(SlowTurns(triangle_maker_unrestricted(n, 1)))
    assert slow == out and repr(slow) == repr(out)
    assert _with_fresh_fields(out) == out


def _phased_game(game: str):
    """(rules, fresh Maker with a fast turn, market of a seed) of a phased game."""
    if game == "item":
        rules = GameRules(b=2, phase_count=4)
        return rules, lambda: ScheduleStrategy(0.01), lambda seed: generate_market(400, seed)
    if game == "clique":
        plan = clique_plan(60, 1, 3)
        rules = GameRules(b=1, phase_count=3, goal=lambda: CliqueGoal(3))
        return (rules, lambda: kclique_maker(plan),
                lambda seed: generate_market(plan.edge_count, seed, EdgeLabels(60)))
    plan = path_plan(120, 1, k_override=2, threshold_scale=1.0)
    rules = GameRules(b=1, phase_count=plan.phase_count, goal=lambda: PathGoal(0, 1))
    return (rules, lambda: path_maker(plan, 0, 1),
            lambda seed: generate_market(plan.edge_count, seed, EdgeLabels(120)))


@pytest.mark.parametrize("game", ["item", "clique", "path"])
def test_never_take_fast_turn_matches_decide_loop(game):
    rules, new_maker, market = _phased_game(game)
    for seed in range(4):
        fast = play(market(seed), rules, new_maker(), NeverTake(), record_trace=True)
        slow = play(market(seed), rules, new_maker(), SlowTurns(NeverTake()),
                    record_trace=True)
        assert fast == slow and fast.details["trace"] == slow.details["trace"], seed
        assert sum(ev[:2] == ("turn", BREAKER) for ev in fast.details["trace"]) >= 2


def test_item_and_view_labels_look_up_the_market():
    market = generate_market(30, 2)
    seen = []

    class Watcher(AlwaysTake):
        def decide(self, view, item) -> bool:
            seen.append((item.position, item.label, view.my_positions(), view.my_labels()))
            return super().decide(view, item)

    play(market, GameRules(b=2), NeverTake(), Watcher())
    assert any(my_labels for *_, my_labels in seen)
    for position, label, mine, my_labels in seen:
        assert label == market.label(position)
        assert my_labels == tuple(market.label(p) for p in mine)


# --------------------------------------------------------------------------
# Block schedules
# --------------------------------------------------------------------------


def test_seek_stops_at_end():
    state = GameState(generate_market(60, 3), GameRules(b=1))
    ctx = TurnContext(state, BREAKER, View(state, BREAKER), 1, 50)
    assert ctx.seek(-1.0, end=20) is None  # no cost is negative
    assert state.breaker_ptr == 20 and state.revealed_upto == 20
    assert ctx.seek(1.0, end=10) is None  # an end behind the pointer moves nothing
    assert state.breaker_ptr == 20
    item = ctx.seek(1.0, end=30)
    assert item.position == 21 and state.breaker_ptr == 21
    ctx.take(item)
    ctx.quota = 1
    assert ctx.seek(-1.0, end=80) is None  # the turn's stop comes first
    assert state.breaker_ptr == 50 and state.revealed_upto == 50


def test_block_schedule_matches_its_per_position_form_and_decide_loop():
    """A Breaker priced by block equals the same schedule spelled out per
    position, and SlowTurns of itself, traces included, in games where one
    Breaker turn passes a block end."""
    n, ends, levels = 400, np.array([120, 150, 330, 400]), np.array([0.02, 0.9, 0.01, 0.3])
    per_position = np.repeat(levels, np.diff(ends, prepend=0))
    straddled = 0
    for seed in range(6):
        rules = GameRules(b=3, phase_count=1 + seed % 2 * 3)
        runs = [play(generate_market(n, seed), rules, ScheduleStrategy(0.004), breaker,
                     record_trace=True)
                for breaker in (ScheduleStrategy(levels, ends),
                                SlowTurns(ScheduleStrategy(levels, ends)),
                                ScheduleStrategy(per_position))]
        assert runs[0] == runs[1] == runs[2], seed
        trace = runs[0].details["trace"]
        assert trace == runs[1].details["trace"] == runs[2].details["trace"], seed
        starts = [ev[2] for ev in trace if ev[:2] == ("turn", BREAKER)]
        stops = [ev[2] for ev in trace if ev[:2] == ("end", BREAKER)]
        straddled += any(np.any((a < ends) & (ends < z)) for a, z in zip(starts, stops))
    assert straddled >= 3


def test_block_schedule_needs_a_level_per_block():
    with pytest.raises(ValueError):
        ScheduleStrategy(np.array([0.1, 0.2]), ends=np.array([10, 20, 30]))
