"""Outside-in span tracer for the purchase-games benchmark.

Spans are recorded around calls into the library's public functions and
methods, from this file only: ``instrument`` rebinds each traced name where
the library looks it up (a module attribute or a class attribute) and
``Instrumented.close`` puts the originals back.  The library itself is not
modified.

A span is (name, start, end, parent span, trial index, group), kept in
compact arrays in memory and summarised when the run ends.  A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

NO_PARENT = -1
NO_TRIAL = -1


class Tracer:
    """In-memory span store.  ``group`` labels every span opened while it is
    set (the benchmark sets it to the config being run)."""

    def __init__(self):
        self.pid = os.getpid()
        self.names: list = []
        self._name_ids: dict = {}
        self.groups: list = []
        self._group_ids: dict = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.trial = array("l")
        self.group_of = array("l")
        self.counts: Counter = Counter()   # (group, counter name) -> count
        self._stack: list = []
        self._group = -1
        self._trial = NO_TRIAL

    # -- recording -------------------------------------------------------

    def set_group(self, group: str) -> None:
        gid = self._group_ids.get(group)
        if gid is None:
            gid = self._group_ids[group] = len(self.groups)
            self.groups.append(group)
        self._group = gid

    @property
    def group(self) -> str:
        return self.groups[self._group]

    def active(self) -> bool:
        """False in forked worker processes, which inherit the rebound names
        but whose spans would never reach the parent."""
        return os.getpid() == self.pid

    def open(self, name: str, trial=None) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        if trial is not None:
            self._trial = trial
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.trial.append(self._trial)
        self.group_of.append(self._group)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, trial_ends: bool = False) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        if trial_ends:
            self._trial = NO_TRIAL

    def count(self, name: str, k=1) -> None:
        self.counts[(self.group, name)] += k

    # -- summarising -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.name)

    def self_times(self) -> dict:
        """{(group, span name): (total self ns, span count)}."""
        n = len(self.name)
        covered = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p != NO_PARENT:
                lo = max(start[i], start[p])
                hi = min(end[i], end[p])
                if hi > lo:
                    covered[p] += hi - lo
        out: dict = defaultdict(lambda: [0, 0])
        for i in range(n):
            key = (self.groups[self.group_of[i]], self.names[self.name[i]])
            acc = out[key]
            acc[0] += (end[i] - start[i]) - covered[i]
            acc[1] += 1
        return {k: tuple(v) for k, v in out.items()}


def _span(tracer: Tracer, name: str, fn, after=None):
    """``fn`` inside a span; ``after(result, *args)`` runs once it closed."""
    def traced(*args, **kwargs):
        if not tracer.active():
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(result, *args)
        return result
    return traced


def _counted(tracer: Tracer, name: str, fn, hits: str = None):
    """Count calls (and, with ``hits``, truthy results) without a span."""
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.active():
            tracer.count(name)
            if hits is not None and result:
                tracer.count(hits)
        return result
    return counted


class Instrumented:
    """Rebinds names on modules and classes; ``close`` restores them all."""

    def __init__(self):
        self._saved: list = []

    def rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def close(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def instrument(tracer: Tracer, capture=None) -> Instrumented:
    """Trace the layers a harness trial passes through.

    ``capture(outcome, market)`` is called after every game inside a
    ``bench.capture`` span, so the caller can keep what it needs for
    structural re-verification without the work landing in any library
    layer.  ``market`` is None for a box game whose tape is built lazily
    (adversarial orderings), which has no market.
    """
    from purchase_games import (box_game, clique_game, engine, harness,
                                item_game, path_game)

    ins = Instrumented()
    span = functools.partial(_span, tracer)

    def wrap(owner, attr, name, after=None):
        ins.rebind(owner, attr, span(name, owner.__dict__[attr], after))

    def count(owner, attr, name, hits=None):
        ins.rebind(owner, attr, _counted(tracer, name, owner.__dict__[attr], hits))

    # harness: the trial, the per-trial catalog build, the root call, fan-out.
    run_one_trial = harness.run_one_trial

    @functools.wraps(run_one_trial)
    def traced_trial(cfg, index):
        if not tracer.active():
            return run_one_trial(cfg, index)
        idx = tracer.open("harness.trial", trial=index)
        try:
            return run_one_trial(cfg, index)
        finally:
            tracer.close(idx, trial_ends=True)

    ins.rebind(harness, "run_one_trial", traced_trial)

    def traced_catalog(catalog):
        @functools.wraps(catalog)
        def wrapped(game):
            return {key: span("harness.build", factory)
                    for key, factory in catalog(game).items()}
        return wrapped

    ins.rebind(harness, "maker_catalog", traced_catalog(harness.maker_catalog))
    ins.rebind(harness, "breaker_catalog", traced_catalog(harness.breaker_catalog))
    wrap(harness, "run_trials", "harness.run_trials")
    wrap(harness, "export", "harness.export")

    class TracedPool(ProcessPoolExecutor):
        def __enter__(self):
            self._span = tracer.open("harness.pool") if tracer.active() else None
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                if self._span is not None:
                    tracer.close(self._span)

    ins.rebind(harness, "ProcessPoolExecutor", TracedPool)

    # oracle, bound by name in the harness catalog.
    wrap(harness, "item_b0_dp", "oracle.item_b0_dp")

    # engine: market construction.
    box_market = [None]  # the market of the box game in progress

    def built_market(market, *args):
        tracer.count("engine.market_items", market.n)
        tracer.count("engine.market_bytes_computed", market.costs.nbytes)

    def built_box_market(market, *args):
        built_market(market)
        box_market[0] = market

    def built_arrays(arrays, *args):
        tracer.count("engine.market_bytes_computed", sum(a.nbytes for a in arrays))

    wrap(harness, "generate_market", "engine.market_generate", built_market)
    wrap(box_game, "generate_market", "engine.market_generate", built_box_market)
    wrap(harness, "EdgeLabels", "engine.edge_labels", lambda labels, *args: built_arrays(
        (labels.rank_u, labels.rank_v, labels._row_offset)))
    wrap(engine.Market, "edge_endpoints", "engine.edge_endpoints", built_arrays)

    perm_getter = engine.Market.perm.fget
    traced_perm = span("engine.perm", perm_getter, lambda out, *args: built_arrays((out,)))

    def perm(market):
        # Only the first read of a market materialises the permutation.
        if market._perm is not None:
            return perm_getter(market)
        return traced_perm(market)

    ins.rebind(engine.Market, "perm", property(perm))

    def _capture(outcome, market):
        if capture is None:
            return
        idx = tracer.open("bench.capture")
        try:
            capture(outcome, market)
        finally:
            tracer.close(idx)

    # engine: the turn loop.
    def played(outcome, market, *args):
        tracer.count("engine.turns", outcome.turns_used)
        _capture(outcome, market)

    wrap(harness, "play", "engine.play", played)
    wrap(engine.TurnContext, "seek", "engine.seek")
    count(engine.TurnContext, "offer_next", "engine.offer_next")
    wrap(engine.ScheduleStrategy, "play_turn", "engine.schedule_turn")

    # game modules: Maker turns, decisions, goal checks.
    wrap(item_game.PhasedMaker, "play_turn", "item_game.maker_turn")
    for cls in (clique_game.TriangleMaker, clique_game.KCliqueMaker):
        wrap(cls, "play_turn", "clique_game.maker_turn")
        count(cls, "decide", "clique_game.decide", hits="clique_game.take")
    wrap(path_game.PathMaker, "play_turn", "path_game.maker_turn")
    count(path_game.PathMaker, "decide", "path_game.decide", hits="path_game.take")
    for cls in (engine.OwnAnyItem, clique_game.CliqueGoal, path_game.PathGoal):
        wrap(cls, "on_maker_take", "goal.check")

    # box_game: its own game loop.
    play_box = box_game.play_box

    @functools.wraps(play_box)
    def traced_play_box(config, maker, breaker, **kwargs):
        if not tracer.active():
            return play_box(config, maker, breaker, **kwargs)
        box_market[0] = None
        idx = tracer.open("box_game.play")
        try:
            out = play_box(config, maker, breaker, **kwargs)
        finally:
            tracer.close(idx)
        _capture(out, box_market[0])
        box_market[0] = None
        return out

    ins.rebind(box_game, "play_box", traced_play_box)
    wrap(box_game, "_breaker_turn", "box_game.breaker_turn")
    wrap(box_game.MinboxMaker, "decide", "box_game.maker_decide")
    count(engine.RandomStrategy, "decide", "box_game.random_decide")
    return ins
