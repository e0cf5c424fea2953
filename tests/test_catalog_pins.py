"""Bitwise pins of the harness export for every catalog strategy pair.

Each maker x breaker pair of each game runs a few small trials, and the
sha256 of its JSON export must match ``catalog_pins.json`` at jobs=1 and at
jobs=2.  Box pairs are pinned on random tapes and, at a small and a large
trial count, on the adversarial tape.  A change that only makes the library faster must leave every digest
alone.  To rebuild the pins after a change meant to alter outputs:

    PYTHONPATH=src python tests/test_catalog_pins.py > pins.tmp && mv pins.tmp tests/catalog_pins.json
"""

import hashlib
import io
import json
import warnings
from pathlib import Path

import pytest

from purchase_games.harness import TrialConfig, breaker_catalog, export, maker_catalog, run_trials

PINS_FILE = Path(__file__).with_name("catalog_pins.json")

# Small configs per game; the maker name picks the clique order for clique.
_BASE = {
    "item": dict(n=40, b=1, trials=12),
    "clique": dict(n=20, b=4, trials=4),
    "path": dict(n=30, b=1, k=1, override_scale=20.0, trials=3),
    "box": dict(n=3, b=1, m=4, trials=10),
}
_CLIQUE_K = {"triangle": 3, "kclique": 4}
# A small and a large call, each played in bulk for the min-box Maker
# against a fixed-probability Breaker.
_ADVERSARIAL_TRIALS = (10, 600)


def _pairs():
    for game in _BASE:
        for maker in sorted(maker_catalog(game)):
            for breaker in sorted(breaker_catalog(game)):
                yield game, maker, breaker


def _adversarial():
    """(maker, breaker, trials) of every adversarial-tape box pin."""
    for _, maker, breaker in filter(lambda pair: pair[0] == "box", _pairs()):
        for trials in _ADVERSARIAL_TRIALS:
            yield maker, breaker, trials


def _config(game: str, maker: str, breaker: str, **changes) -> TrialConfig:
    params = dict(_BASE[game], **changes)
    if game == "clique":
        params["k"] = _CLIQUE_K[maker]
    return TrialConfig(game=game, maker=maker, breaker=breaker, master_seed=2024, **params)


def _digest(cfg: TrialConfig, jobs: int) -> str:
    buf = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        export(run_trials(cfg, jobs=jobs), "json", buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _key(game: str, maker: str, breaker: str) -> str:
    return f"{game}/{maker}/{breaker}"


def _adversarial_key(maker: str, breaker: str, trials: int) -> str:
    return f"box/{maker}/{breaker}/ordering=adversarial/trials={trials}"


def _adversarial_config(maker: str, breaker: str, trials: int) -> TrialConfig:
    return _config("box", maker, breaker, ordering="adversarial", trials=trials)


_PINS = json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}


def test_every_catalog_pair_is_pinned():
    assert sorted(_PINS) == sorted([_key(*p) for p in _pairs()]
                                   + [_adversarial_key(*a) for a in _adversarial()])


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("game, maker, breaker", list(_pairs()))
def test_export_matches_pin(game, maker, breaker, jobs):
    assert _digest(_config(game, maker, breaker), jobs) == _PINS[_key(game, maker, breaker)]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("maker, breaker, trials", list(_adversarial()))
def test_adversarial_box_export_matches_pin(maker, breaker, trials, jobs):
    digest = _digest(_adversarial_config(maker, breaker, trials), jobs)
    assert digest == _PINS[_adversarial_key(maker, breaker, trials)]


if __name__ == "__main__":
    pins = {_key(*p): _digest(_config(*p), 1) for p in _pairs()}
    pins.update({_adversarial_key(*a): _digest(_adversarial_config(*a), 1)
                 for a in _adversarial()})
    print(json.dumps(pins, indent=2, sort_keys=True))
