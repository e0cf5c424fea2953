"""Bitwise pins of whole box-game Outcomes.

Every game of a small grid (sizes x orderings x Makers x Breakers x seeds)
is played through ``play_box`` with a damage log, and the sha256 of
``repr(outcome)`` plus ``repr(damage_log)`` must match ``box_pins.json``.
The catalog pins see only success, cost and failure tag; these also see the
positions, labels, ``M``, ``turns_used``, ``details`` and the damage log.
A change that only restructures the box driver must leave every digest
alone.  To rebuild the pins after a change meant to alter box games:

    PYTHONPATH=src python tests/test_box_pins.py > pins.tmp && mv pins.tmp tests/box_pins.json
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from purchase_games.box_game import BoxConfig, FocusBreaker, MinboxMaker, play_box
from purchase_games.engine import AlwaysTake, NeverTake, RandomStrategy, SlowTurns, mix_seed

PINS_FILE = Path(__file__).with_name("box_pins.json")

SIZES = [(1, 1, 1), (2, 3, 1), (3, 4, 2), (5, 11, 2), (4, 6, 3), (6, 5, 4)]  # (n, m, b)
ORDERINGS = ["random", "scripted", "adversarial"]
SEEDS = [0, 7, 2024]

MAKERS = {
    "minbox": lambda seed: MinboxMaker(),
    "random": lambda seed: RandomStrategy(0.5, mix_seed(seed, 3)),
    "always": lambda seed: AlwaysTake(),
}
BREAKERS = {
    "focus": lambda seed: FocusBreaker(),
    "slow_focus": lambda seed: SlowTurns(FocusBreaker()),
    "never": lambda seed: NeverTake(),
    "always": lambda seed: AlwaysTake(),
    "random": lambda seed: RandomStrategy(0.5, mix_seed(seed, 4)),
}


def _config(n: int, m: int, b: int, ordering: str, seed: int) -> BoxConfig:
    sequence = None
    if ordering == "scripted":
        rng = np.random.Generator(np.random.PCG64(mix_seed(seed, 5)))
        sequence = tuple(int(x) for x in rng.permutation(np.repeat(np.arange(n), m)))
    return BoxConfig(n=n, m=m, b=b, ordering=ordering, sequence=sequence)


def _digest(size: tuple, ordering: str, maker: str, breaker: str, seed: int) -> str:
    log = []
    out = play_box(_config(*size, ordering, seed), MAKERS[maker](seed),
                   BREAKERS[breaker](seed), seed=seed, damage_log=log)
    return hashlib.sha256((repr(out) + repr(log)).encode()).hexdigest()


def _key(size, ordering, maker, breaker, seed) -> str:
    n, m, b = size
    return f"n{n}m{m}b{b}/{ordering}/{maker}/{breaker}/{seed}"


def _games(size, ordering):
    for maker, breaker, seed in itertools.product(MAKERS, BREAKERS, SEEDS):
        yield size, ordering, maker, breaker, seed


def _all_games():
    for size, ordering in itertools.product(SIZES, ORDERINGS):
        yield from _games(size, ordering)


_PINS = json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}


def test_every_game_is_pinned():
    assert sorted(_PINS) == sorted(_key(*g) for g in _all_games())


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("size", SIZES, ids=lambda s: "n{}m{}b{}".format(*s))
def test_outcomes_match_pins(size, ordering):
    got = {_key(*g): _digest(*g) for g in _games(size, ordering)}
    assert got == {key: _PINS[key] for key in got}


if __name__ == "__main__":
    print(json.dumps({_key(*g): _digest(*g) for g in _all_games()}, indent=2, sort_keys=True))
