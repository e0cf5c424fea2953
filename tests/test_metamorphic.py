"""Metamorphic relations: rules that no exact oracle prices at useful sizes,
checked as relations between games that must end alike."""

import itertools

import pytest

from purchase_games.engine import GameRules, NeverTake, SlowTurns, generate_market, mix_seed, play
from purchase_games.item_game import single_threshold_maker

ROUTES = {"fast": lambda strategy: strategy, "slow": SlowTurns}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_a_breaker_that_takes_nothing_binds_no_maker(route):
    """Against ``NeverTake``, the single-threshold Maker buys the same items
    at the same cost for every quota b and phase count: the quota and the
    phase gate bind Breaker alone, and Maker may take what Breaker passed."""
    wrap = ROUTES[route]
    for n, t in itertools.product((5, 17, 200), range(30)):
        seed = mix_seed(1500 + n, t)
        want = None
        for b, phases in itertools.product((0, 1, 3), (1, 2, 5)):
            out = play(generate_market(n, seed), GameRules(b=b, phase_count=phases),
                       wrap(single_threshold_maker(n).strategy()), wrap(NeverTake()))
            got = (out.success, out.maker_cost, out.maker_positions, out.breaker_positions)
            if want is None:
                want = got
            assert got == want, (n, t, b, phases)
