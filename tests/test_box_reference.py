"""A naive second reading of the box-game rules, and ``play_box`` checked
against it (differential testing: W. M. McKeeman, "Differential Testing for
Software", Digital Technical Journal 10(1), 1998).

The reference plays ball by ball from the rules in the README and the
``box_game`` docstring: Maker moves first and takes at most one ball a
turn; Breaker takes up to b; each pointer only moves forward; a ball
belongs to Breaker once Breaker takes it or Maker's pointer passes it
without taking it; an uncovered box whose m balls all belong to Breaker is
dead and ends the game at once.  It keeps no counters: each box's count is
recounted from the owners whenever it is read."""

import itertools

import numpy as np

from purchase_games import box_game, streams
from purchase_games.box_game import BoxConfig, FocusBreaker, MinboxMaker, play_box
from purchase_games.engine import AlwaysTake, NeverTake, RandomStrategy, SlowTurns, mix_seed


def reference_game(n, m, b, ordering, seed, sequence, breaker_takes_ball):
    """(Maker's positions, Breaker's positions, winner, M, turns, damage
    log) of the min-box Maker against a Breaker that takes an unowned ball
    of box ``box`` it is offered when ``breaker_takes_ball(box, covered)``
    says so, ``covered(c)`` telling whether Maker holds a ball of box c."""
    total = n * m
    if ordering == "random":
        tape = np.random.default_rng(mix_seed(seed, streams._TAPE_STREAM)).permutation(total)
        boxes = [int(rank) // m for rank in tape]
    elif ordering == "scripted":
        boxes = list(sequence)
    else:
        boxes = []  # each ball's box is chosen when a pointer first reaches it
    owner, refused = [None] * total, set()  # owner "maker" / "breaker"; Maker's passes
    pointer = {"maker": 0, "breaker": 0}

    def box_at(pos, player):  # the box of ball ``pos`` (0-based), placed if new
        if pos == len(boxes):
            stock = [m - boxes.count(box) for box in range(n)]
            order = [0] + list(range(1, n)) if player == "breaker" else list(range(1, n)) + [0]
            boxes.append(next(box for box in order if stock[box] > 0))
        return boxes[pos]

    def btb(box):
        return sum(1 for pos in range(len(boxes)) if boxes[pos] == box
                   and (owner[pos] == "breaker" or pos in refused))

    def covered(box):
        return any(owner[pos] == "maker" and boxes[pos] == box for pos in range(len(boxes)))

    def top():
        return max([btb(box) for box in range(n) if not covered(box)], default=0)

    def over():
        return all(map(covered, range(n))) or top() >= m

    log, breaker_turns, turns, maker_takes, breaker_takes = [], 0, 0, [], []
    while True:
        while not over():  # Maker's turn
            pos = pointer["maker"]
            pointer["maker"] += 1
            if owner[pos] is not None:
                continue
            box = box_at(pos, "maker")
            if not covered(box) and btb(box) >= top():
                owner[pos] = "maker"
                maker_takes.append(pos + 1)
                break
            refused.add(pos)
        turns += 1
        log.append((breaker_turns, top()))
        if over():
            break
        taken = 0
        while taken < b and pointer["breaker"] < total and not over():  # Breaker's turn
            pos = pointer["breaker"]
            pointer["breaker"] += 1
            if owner[pos] is not None:
                continue
            if breaker_takes_ball(box_at(pos, "breaker"), covered):
                owner[pos] = "breaker"
                breaker_takes.append(pos + 1)
                taken += 1
        breaker_turns += 1
        turns += 1
        log.append((breaker_turns, top()))
        if over():
            break
    won = all(map(covered, range(n)))
    return (tuple(maker_takes), tuple(breaker_takes), "maker" if won else "breaker",
            maker_takes[-1] if won else None, turns, log)


def test_play_box_matches_the_reference_driver():
    """The min-box Maker against random Breakers at p in {0, 0.2, 0.5, 1},
    ``AlwaysTake`` and ``NeverTake``, on all three orderings, from sizes
    where Breaker always wins up to m = bn + 1, played in ``play_box``'s one
    loop and, with both players wrapped in SlowTurns, ball by ball: the same
    positions, winner, M, turn count and per-turn damage log as the
    reference, and a random Breaker's generator ends where the reference's
    does."""
    breakers = {f"random{p}": p for p in (0.0, 0.2, 0.5, 1.0)}
    breakers.update(always=1.0, never=0.0)
    breaker_wins = games = 0
    for (n, m, b), ordering, name, t in itertools.product(
            [(2, 3, 1), (3, 4, 2), (4, 3, 3), (8, 4, 6), (10, 3, 5), (5, 11, 2)],
            ("random", "scripted", "adversarial"), breakers, range(5)):
        seed = mix_seed(41, t)
        sequence = None
        if ordering == "scripted":
            rng = np.random.default_rng(seed)
            sequence = tuple(rng.permutation(np.repeat(np.arange(n), m)).tolist())
        cfg = BoxConfig(n=n, m=m, b=b, ordering=ordering, sequence=sequence)
        p, drawing = breakers[name], name.startswith("random")
        ref_rng = np.random.default_rng(mix_seed(seed, 5))  # a double an offer
        expected = reference_game(
            n, m, b, ordering, seed, sequence,
            (lambda box, covered: ref_rng.random() < p) if drawing
            else (lambda box, covered: p == 1.0))
        for slow in (False, True):
            if drawing:
                breaker = RandomStrategy(p, mix_seed(seed, 5))
            else:
                breaker = AlwaysTake() if name == "always" else NeverTake()
            maker = MinboxMaker()
            log = []
            out = play_box(cfg, SlowTurns(maker) if slow else maker,
                           SlowTurns(breaker) if slow else breaker, seed=seed, damage_log=log)
            case = ((n, m, b), ordering, name, t, slow)
            assert (out.maker_positions, out.breaker_positions, out.details["winner"], out.M,
                    out.turns_used, log) == expected, case
            if drawing:
                assert breaker._rng.bit_generator.state == ref_rng.bit_generator.state, case
        breaker_wins += not out.success
        games += 1
    assert breaker_wins >= 80 and games - breaker_wins >= 300


def focus_takes_ball(n):
    """The focus Breaker's rule: its focus is box 0 until Maker covers it,
    then the lowest uncovered box, and it takes only the focus box's balls.
    Maker covers boxes only between Breaker's turns, so the focus is always
    the lowest uncovered box."""
    return lambda box, covered: box == next(c for c in range(n) if not covered(c))


def test_focus_games_match_the_reference_driver(monkeypatch):
    """The exact min-box Maker against the exact focus Breaker, whose turns
    on a tape ordered in advance are ``_minbox_turn`` and ``_focus_turn``,
    and the same pair wrapped in SlowTurns, offered each ball, on all three
    orderings: the same positions, winner, M, turn count and per-turn
    damage log as the reference.  (2, 60, 29) has Maker passes of dozens of
    balls with Breaker's claims inside them."""
    focus_turns = []
    real_focus_turn = box_game._focus_turn
    monkeypatch.setattr(box_game, "_focus_turn",
                        lambda *args: focus_turns.append(1) or real_focus_turn(*args))
    breaker_wins = games = 0
    for (n, m, b), ordering, t in itertools.product(
            [(2, 3, 1), (3, 4, 2), (4, 6, 3), (6, 5, 4), (5, 11, 2), (2, 60, 29)],
            ("random", "scripted", "adversarial"), range(6)):
        seed = mix_seed(43, t)
        sequence = None
        if ordering == "scripted":
            rng = np.random.default_rng(seed)
            sequence = tuple(rng.permutation(np.repeat(np.arange(n), m)).tolist())
        cfg = BoxConfig(n=n, m=m, b=b, ordering=ordering, sequence=sequence)
        expected = reference_game(n, m, b, ordering, seed, sequence, focus_takes_ball(n))
        for slow in (False, True):
            focus_turns.clear()
            maker, breaker = MinboxMaker(), FocusBreaker()
            log = []
            out = play_box(cfg, SlowTurns(maker) if slow else maker,
                           SlowTurns(breaker) if slow else breaker, seed=seed, damage_log=log)
            case = ((n, m, b), ordering, t, slow)
            assert (out.maker_positions, out.breaker_positions, out.details["winner"], out.M,
                    out.turns_used, log) == expected, case
            assert bool(focus_turns) == (not slow and ordering != "adversarial"), case
        breaker_wins += not out.success
        games += 1
    assert breaker_wins >= 30 and games - breaker_wins >= 30
