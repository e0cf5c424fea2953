"""Bitwise pins of whole edge-game Outcomes.

Triangle, k-clique and path games at small sizes are played through
``play``, once with the Makers' fast turns and once with ``SlowTurns`` on
both sides, and the sha256 of ``repr(outcome)`` must match
``edge_pins.json``.  The catalog pins see only success, cost and failure tag
at n=20, where no k-clique game reaches its closing phase, and the
fast==slow tests compare a Maker only with itself; these pins also see the
positions, labels, ``M``, ``turns_used`` and the failure tag of games that
win in the closing phase and of games that fail in each kind of phase.  A
change that only restructures the Makers must leave every digest alone.  To
rebuild the pins after a change meant to alter edge games:

    PYTHONPATH=src python tests/test_edge_pins.py > pins.tmp && mv pins.tmp tests/edge_pins.json
"""

import hashlib
import itertools
import json
import warnings
from pathlib import Path

import pytest

from purchase_games.clique_game import (
    CliqueGoal,
    TriangleMaker,
    clique_plan,
    kclique_maker,
    plan_mimic_breaker,
    triangle_mimic_breaker,
)
from purchase_games.engine import (
    UNOWNED,
    EdgeLabels,
    GameRules,
    RandomStrategy,
    SlowTurns,
    Strategy,
    generate_market,
    mix_seed,
    play,
)
from purchase_games.item_game import cheap_grab_breaker
from purchase_games.path_game import PathGoal, path_maker, path_mimic_breaker, path_plan

PINS_FILE = Path(__file__).with_name("edge_pins.json")

SEEDS = [0, 1, 2, 3]
TURNS = ["fast", "slow"]


class TerminalBreaker(Strategy):
    """Takes every unowned edge at vertex 0 or 1: the star roots' and the
    path terminals' edges."""

    def decide(self, view, item):
        return item.owner == UNOWNED and item.label[0] <= 1


def _breakers(stream: int, b: int, mimic):
    return {
        "mimic": lambda seed: mimic(),
        "cheap_grab": lambda seed: cheap_grab_breaker(stream, max(1, b)),
        "random": lambda seed: RandomStrategy(0.02, mix_seed(seed, 4)),
        "terminal": lambda seed: TerminalBreaker(),
    }


def _triangle(n: int, b: int):
    rules = GameRules(b=b, phase_count=1, goal=lambda: CliqueGoal(3))
    stream = n * (n - 1) // 2
    return (rules, n, stream, lambda: TriangleMaker(n, b),
            lambda: triangle_mimic_breaker(n, b))


def _kclique(n: int, b: int, k: int):
    plan = clique_plan(n, b, k)
    rules = GameRules(b=b, phase_count=k, goal=lambda: CliqueGoal(k))
    return (rules, n, plan.edge_count, lambda: kclique_maker(plan),
            lambda: plan_mimic_breaker(plan))


def _path(n: int, b: int, k: int, scale: float):
    plan = path_plan(n, b, k_override=k, threshold_scale=scale)
    rules = GameRules(b=b, phase_count=plan.phase_count, goal=lambda: PathGoal(0, 1))
    return (rules, n, plan.edge_count, lambda: path_maker(plan, 0, 1),
            lambda: path_mimic_breaker(plan))


# name -> (builder, args); a builder returns the rules, the vertex count, the
# stream length and fresh-Maker and fresh-mimic-Breaker factories
GAMES = {
    "triangle/n12b1": (_triangle, (12, 1)),
    "triangle/n80b2": (_triangle, (80, 2)),
    "kclique/k3n60b1": (_kclique, (60, 1, 3)),
    "kclique/k3n100b2": (_kclique, (100, 2, 3)),
    "kclique/k3n150b0": (_kclique, (150, 0, 3)),
    "kclique/k4n100b1": (_kclique, (100, 1, 4)),
    "kclique/k5n60b2": (_kclique, (60, 2, 5)),
    "path/k1n300b1s0.5": (_path, (300, 1, 1, 0.5)),
    "path/k2n120b1s1": (_path, (120, 1, 2, 1.0)),
    "path/k3n120b1s20": (_path, (120, 1, 3, 20.0)),
}
BREAKERS = ["mimic", "cheap_grab", "random", "terminal"]


def _setup(game: str):
    builder, args = GAMES[game]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # regime warnings at desk sizes
        return builder(*args)


def _outcome(game: str, breaker: str, seed: int, turns: str):
    rules, n, stream, new_maker, mimic = _setup(game)
    maker = new_maker()
    opponent = _breakers(stream, rules.b, mimic)[breaker](seed)
    if turns == "slow":
        maker, opponent = SlowTurns(maker), SlowTurns(opponent)
    return play(generate_market(stream, seed, EdgeLabels(n)), rules, maker, opponent)


def _digest(game: str, breaker: str, seed: int, turns: str) -> str:
    return hashlib.sha256(repr(_outcome(game, breaker, seed, turns)).encode()).hexdigest()


def _key(game, breaker, seed, turns) -> str:
    return f"{game}/{breaker}/{seed}/{turns}"


def _games(game):
    for breaker, seed, turns in itertools.product(BREAKERS, SEEDS, TURNS):
        yield game, breaker, seed, turns


def _all_games():
    for game in GAMES:
        yield from _games(game)


_PINS = json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}


def test_every_game_is_pinned():
    assert sorted(_PINS) == sorted(_key(*g) for g in _all_games())


@pytest.mark.parametrize("game", GAMES)
def test_outcomes_match_pins(game):
    got = {_key(*g): _digest(*g) for g in _games(game)}
    assert got == {key: _PINS[key] for key in got}


if __name__ == "__main__":
    print(json.dumps({_key(*g): _digest(*g) for g in _all_games()}, indent=2, sort_keys=True))
