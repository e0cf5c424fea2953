"""The edge-game Makers' stage candidates against whole-stream endpoints.

A Maker builds each stage's candidates from the positions whose cost its
threshold lets through (every position when the threshold is at least 1),
either by ranking the stage's vertex pairs or by unranking those positions.
Here each build is recomputed the slow way: the endpoint arrays of the
whole stream from ``Market.edge_endpoints()``, a vertex mask over the
stage's slice of them, and the cost test.
"""

import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from purchase_games.clique_game import (
    CliqueGoal,
    KCliqueMaker,
    TriangleMaker,
    clique_plan,
    plan_mimic_breaker,
    triangle_mimic_breaker,
)
from purchase_games.engine import (
    BREAKER,
    MAKER,
    UNOWNED,
    EdgeLabels,
    GameRules,
    Item,
    RandomStrategy,
    StagedScanner,
    generate_market,
    mix_seed,
    play,
)
from purchase_games.path_game import PathGoal, PathMaker, path_mimic_breaker, path_plan


def _reference(maker, lo: int, hi: int):
    """(stage kind, threshold, candidates) from whole-stream endpoints, or
    None for the k-clique closing phase, whose candidates are registered
    positions rather than a mask."""
    u, v = maker._market.edge_endpoints()
    u, v = u[lo:hi], v[lo:hi]
    if isinstance(maker, TriangleMaker):
        leaf = maker._leaf_mask
        if maker._phase == 1:
            kind, thr = "star", maker.star_threshold
            mask = (u == maker.root) | (v == maker.root)
        else:
            kind, thr = "close", maker.close_threshold
            mask = leaf[u] & leaf[v]
    elif isinstance(maker, KCliqueMaker):
        kind, plan = maker._kind(maker._phase), maker.plan
        leaf, matched, root = maker._leaf_mask, maker._matched_mask, maker._root
        if kind == "closing":
            return None
        if kind == "star":
            thr = plan.star_thresholds[maker._phase - 1]
            mask = ((u == root) & leaf[v]) | ((v == root) & leaf[u])
        elif kind == "matching":
            thr = plan.matching_threshold
            mask = leaf[u] & leaf[v]
        else:
            thr = plan.extend_threshold
            mask = leaf[u] & leaf[v] & (matched[u] | matched[v])
    else:
        if maker._growing():
            kind, thr = "growth", maker.plan.growth_threshold
            prev = maker._prev_mask
            mask = prev[u] ^ prev[v]
        else:
            kind, thr = "connect", maker._connect_thr
            in_t, in_tp = maker._in_t, maker._in_tp
            mask = (in_t[u] & in_tp[v]) | (in_t[v] & in_tp[u])
    if thr < 1.0:
        mask &= maker._market.costs[lo:hi] <= thr
    return kind, thr, np.flatnonzero(mask) + lo + 1


class Recorded:
    """Records each stage build: its bounds, the candidates the Maker built
    and the reference recomputed from the Maker's state at that moment."""

    def prepare(self, market):
        super().prepare(market)
        self.records = []

    def _stage_candidates(self, lo, hi):
        cands = super()._stage_candidates(lo, hi)
        self.records.append(((lo, hi), cands, _reference(self, lo, hi)))
        return cands


class RecordedTriangle(Recorded, TriangleMaker):
    pass


class RecordedKClique(Recorded, KCliqueMaker):
    pass


class RecordedPath(Recorded, PathMaker):
    pass


def _triangle(n, b):
    return (n, GameRules(b=b, goal=lambda: CliqueGoal(3)), lambda: RecordedTriangle(n, b),
            lambda: triangle_mimic_breaker(n, b))


def _kclique(n, b, k):
    plan = clique_plan(n, b, k)
    return (n, GameRules(b=b, phase_count=k, goal=lambda: CliqueGoal(k)),
            lambda: RecordedKClique(plan), lambda: plan_mimic_breaker(plan))


def _path(n, b, k, scale):
    plan = path_plan(n, b, k_override=k, threshold_scale=scale)
    return (n, GameRules(b=b, phase_count=plan.phase_count, goal=lambda: PathGoal(0, 1)),
            lambda: RecordedPath(plan), lambda: path_mimic_breaker(plan))


GAMES = {
    "triangle/n80b2": (_triangle, (80, 2)),
    "triangle/n200b1": (_triangle, (200, 1)),
    "kclique/k3n60b1": (_kclique, (60, 1, 3)),
    "kclique/k3n150b0": (_kclique, (150, 0, 3)),
    "kclique/k4n100b1": (_kclique, (100, 1, 4)),
    "path/k1n300b1s0.5": (_path, (300, 1, 1, 0.5)),
    "path/k3n120b1s20": (_path, (120, 1, 3, 20.0)),
    "path/k1n200b1s50": (_path, (200, 1, 1, 50.0)),
}
SEEDS = [0, 1, 2]

# the stage kinds that each family's games above must build
EXPECTED = {
    "triangle": {"star", "close"},
    "kclique": {"star", "matching", "extension"},
    "path": {"growth", "connect"},
}


@pytest.mark.parametrize("family", sorted(EXPECTED))
def test_stage_candidates_match_whole_stream_endpoints(family):
    kinds, routes = set(), set()
    for game, seed in itertools.product([g for g in GAMES if g.startswith(family)], SEEDS):
        builder, args = GAMES[game]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # regime warnings at desk sizes
            n, rules, new_maker, mimic = builder(*args)
        stream = n * (n - 1) // 2
        for breaker in (mimic(), RandomStrategy(0.05, mix_seed(seed, 4))):
            maker = new_maker()
            play(generate_market(stream, seed, EdgeLabels(n)), rules, maker, breaker)
            for bounds, cands, ref in maker.records:
                if ref is None:
                    continue
                kind, thr, expected = ref
                assert np.array_equal(cands, expected), (game, seed, bounds, kind)
                kinds.add(kind)
                routes.add(bool(thr < 1.0))
    assert kinds == EXPECTED[family]
    assert routes == {True, False}  # cost-first and whole-slice builds


class PairsOnly(StagedScanner):
    _by_unranking = StagedScanner._by_pairs


class UnrankingOnly(StagedScanner):
    _by_pairs = StagedScanner._by_unranking


def _vertices(n, rng, size):
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size, replace=False)] = True
    return mask


def test_masked_routes_agree_on_every_stage_kind():
    """Both routes of ``_masked``, each forced on one market, against whole-
    stream endpoints, for the vertex masks of every stage kind; in the star
    stages the root is in both masks."""
    n = 90
    market = generate_market(n * (n - 1) // 2, 3, EdgeLabels(n))
    u, v = market.edge_endpoints()
    rng = np.random.default_rng(7)
    root, every = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    root[4] = True
    leaves, tree, tree2 = _vertices(n, rng, 30), _vertices(n, rng, 6), _vertices(n, rng, 5)
    leaves[4] = True
    matched = leaves & _vertices(n, rng, 45)
    kinds = {
        "triangle star": (root, every), "triangle close": (leaves, leaves),
        "k-clique star": (root, leaves), "matching": (leaves, leaves),
        "extension": (leaves & matched, leaves), "growth": (tree, ~tree),
        "connect": (tree, tree2),
    }
    routes = set()
    for kind, (a, b) in kinds.items():
        for lo, hi, thr in [(0, 2000, 0.3), (1500, market.n, 0.05), (100, 3000, 1.0),
                            (3000, market.n, 7.5)]:
            mask = a[u[lo:hi]] & b[v[lo:hi]] | a[v[lo:hi]] & b[u[lo:hi]]
            if thr < 1.0:
                mask &= market.costs[lo:hi] <= thr
            expected = np.flatnonzero(mask) + lo + 1
            for scanner in (PairsOnly(), UnrankingOnly(), StagedScanner()):
                scanner.prepare(market)
                got = scanner._masked(lo, hi, a, b, thr)
                assert np.array_equal(got, expected), (kind, lo, hi, thr, type(scanner))
            left = np.count_nonzero(market.costs[lo:hi] <= thr)
            routes.add(np.count_nonzero(a) * np.count_nonzero(b) < left)
    assert routes == {True, False}  # the unforced scanner took both routes


class HandStaged(StagedScanner):
    """A scanner whose phases play stages given by hand; its ``_admit``
    records each call and refuses every position divisible by 5."""

    def __init__(self, ends, stages):
        self.ends, self.stages = ends, stages

    def _reset(self):
        self.admitted = []

    def _enter_phase(self, phase, revealed):
        self._stage = self.stages[phase - 1]

    def _close_phase(self, phase):
        pass

    def _admit(self, view, item):
        self.admitted.append(item.position)
        return item.position % 5 != 0


@pytest.mark.parametrize("quota", [0, 1, 2, math.inf])
def test_shared_admission_is_the_stage_predicate(quota):
    """``decide`` against a plain predicate, over every edge of K_6 in both
    orientations, at prices below, at and above the threshold and under
    each owner, in two phases whose quota counts from 0 each."""
    n, thr = 6, 0.5
    rng = np.random.default_rng(5)
    for trial in range(20):
        a, b = rng.random(n) < 0.4, rng.random(n) < 0.6
        offers = [(u, v, cost, owner) for u, v in itertools.permutations(range(n), 2)
                  for cost in (0.25, thr, 0.75) for owner in (UNOWNED, MAKER, BREAKER)]
        order = rng.permutation(len(offers))
        offers = [offers[i] for i in order]
        half = len(offers) // 2
        scanner = HandStaged((half, len(offers)), [(a, b, thr, quota), (b, a, thr, quota)])
        view = SimpleNamespace(revealed_upto=0)
        scanner.begin(view)
        taken = 0
        for pos, (u, v, cost, owner) in enumerate(offers, start=1):
            if pos == half + 1:
                taken = 0
            x, y = (a, b) if pos <= half else (b, a)
            passes = (taken < quota and cost <= thr and owner == UNOWNED
                      and bool(x[u] and y[v] or x[v] and y[u]))
            called = len(scanner.admitted)
            got = scanner.decide(view, Item(pos, (u, v), cost, owner, False))
            assert len(scanner.admitted) == called + passes, (trial, pos)
            assert got == (passes and pos % 5 != 0), (trial, pos, u, v, cost, owner)
            taken += got
