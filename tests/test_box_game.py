"""Box game tests: protocol, the min-box and focus strategies, adversarial
orderings, and the engine-vs-oracle comparisons."""

import io
import itertools

import numpy as np
import pytest

from purchase_games.box_game import (
    AdversarialOrderer,
    BoxConfig,
    FocusBreaker,
    MinboxMaker,
    adversarial_ordering,
    box_threshold,
    focus_breaker,
    load_scripted_ordering,
    minbox_maker,
    play_box,
    save_scripted_ordering,
)
from purchase_games.engine import (
    BREAKER,
    MAKER,
    UNOWNED,
    AlwaysTake,
    HiddenInformationError,
    NeverTake,
    Strategy,
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


class NoFastFocus(FocusBreaker):
    """Focus breaker forced through the generic per-ball loop."""

    box_turn = None


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
    for t in range(40):
        cfg = BoxConfig(n=4, m=6, b=3, ordering="random")
        fast = play_box(cfg, MinboxMaker(), FocusBreaker(), seed=mix_seed(9, t))
        slow = play_box(cfg, MinboxMaker(), NoFastFocus(), seed=mix_seed(9, t))
        assert fast == slow


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


def test_adversarial_orderer_pattern():
    orderer = AdversarialOrderer(3)
    stock = [2, 2, 2]
    assert orderer.next_box(MAKER, stock) == 1      # non-box-0, lowest id
    assert orderer.next_box(BREAKER, stock) == 0    # box 0 while stock lasts
    assert orderer.next_box(MAKER, [2, 0, 0]) == 0  # fallback
    assert orderer.next_box(BREAKER, [0, 1, 2]) == 1


def test_adversarial_ordering_function():
    cfg = BoxConfig(n=2, m=2, b=1, ordering="adversarial")
    box, ball = adversarial_ordering(cfg, {"revealed_boxes": [], "scanning": "maker"})
    assert box == 1 and ball == 0  # first ball of box 1
    box, _ = adversarial_ordering(cfg, {"revealed_boxes": [1, 1], "scanning": "maker"})
    assert box == 0  # non-box-0 stock exhausted
    box, _ = adversarial_ordering(cfg, {"revealed_boxes": [], "scanning": "breaker"})
    assert box == 0


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
    path = str(tmp_path / "ordering.txt")
    save_scripted_ordering(path, seq)
    back = load_scripted_ordering(path, 3, 2)
    assert back == seq
    with pytest.raises(ValueError):
        load_scripted_ordering(io.StringIO("0\n1\n"), 2, 2)
    with pytest.raises(ValueError):
        load_scripted_ordering(io.StringIO("0\n0\n0\n1\n"), 2, 2)


def test_factories():
    cfg = BoxConfig(n=2, m=3, b=1)
    assert isinstance(minbox_maker(cfg), MinboxMaker)
    assert isinstance(focus_breaker(cfg), FocusBreaker)


def test_adversarial_adaptive_engine_at_threshold():
    # Through the engine with the adaptive orderer: at m = bn+1 the min-box
    # maker wins even with the ordering colluding with an always-taking
    # breaker, matching the oracle.
    cfg = BoxConfig(n=2, m=3, b=1, ordering="adversarial")
    out = play_box(cfg, MinboxMaker(), AlwaysTake(), seed=1)
    assert out.success
    assert box_minimax(2, 3, 1, "adversarial").winner == "maker"


def test_box_view_hides_unrevealed():
    seq = (0, 1, 0, 1)
    cfg = BoxConfig(n=2, m=2, b=1, ordering="scripted", sequence=seq)

    class Probe(Strategy):
        def __init__(self):
            self.checked = False

        def decide(self, view, item):
            if not self.checked:
                self.checked = True
                assert view.box_of(item.position) == item.label[0]
                with pytest.raises(RuntimeError):
                    view.box_of(item.position + 1)
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
                for ask in (view.box_of, view.owner_of):
                    for pos in (0, item.position + 1):
                        with pytest.raises(HiddenInformationError) as exc:
                            ask(pos)
                        raised.append(exc.type)
            return True

    play_box(cfg, Probe(), NeverTake(), seed=1)
    assert raised == [HiddenInformationError] * 4
