"""Monte Carlo trial runner and statistics aggregation.

A TrialConfig names a game, a Maker and a Breaker from the strategy catalog,
and all game parameters; ``run_trials`` executes the trials with per-trial
seeds derived from the master seed by a fixed 64-bit mix, optionally fanned
out across processes in chunks of consecutive trials: one chunk a worker for
a config played in bulk, up to four a worker for one played a trial at a
time, and a call of one chunk in the calling process.  Aggregation is exact
and order-independent: per-trial results are gathered in trial-index order
and reduced with correctly rounded summation, so a run with ``jobs=8`` is
bitwise identical to ``jobs=1``.

The fan-out's workers are forked (by ``fork``, whatever the default start
method) at the first parallel call with a given worker count and reused by
later calls with that count, so module state changed after that fork (a
monkeypatch, a warnings filter) does not reach them.  A pool worker exits
when its parent process is gone, so a parent killed by a signal leaves no
idle worker behind.

``_build`` does a config's fixed work once per ``run_trials`` call in each
process and thread, and ``_bulk_plan`` decides there how its trials are
played: a one-phase item game between a threshold or phased Maker and a
threshold Breaker in ``_run_item_block``, an adversarially ordered box game
between the min-box Maker and a fixed-probability Breaker in
``_run_box_block``, and every other config one trial at a time.  Either
block plays a chunk of any size and gives ``run_one_trial``'s results,
trial by trial.  Every trial draws from the streams of its seed
(``streams``), built from seed words computed a block of trials at a time.
A box game has three implementations of its turn rules (``box_game``):
per-ball offers, fast turns of the exact min-box Maker and focus Breaker,
and one loop a game for the min-box Maker against a fixed-probability
Breaker, which ``play_box`` and the adversarial block both play through.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from . import box_game, clique_game, item_game, path_game
from .engine import (
    AlwaysTake,
    EdgeLabels,
    GameRules,
    NeverTake,
    OwnAnyItem,
    RandomStrategy,
    UNOWNED,
    ScheduleStrategy,
    _opened,
    generate_market,
    play,
)
from .oracle import item_b0_dp
from .streams import (
    _BREAKER_STREAM,
    _COST_STREAM,
    _MAKER_STREAM,
    _fill_rows,
    _pcg64_seed_words,
    _remember_seed_words,
    _seeded,
    _stream_seeds,
    mix_seed,
)

__all__ = [
    "TrialConfig",
    "TrialAggregate",
    "run_trials",
    "confidence_interval",
    "export",
    "maker_catalog",
    "breaker_catalog",
]


@dataclass(frozen=True)
class TrialConfig:
    """One reproducible experiment: game, strategies, parameters, seed."""

    game: str                 # item | clique | path | box
    n: int
    b: int
    trials: int
    master_seed: int
    maker: str
    breaker: str
    phases: int = 1           # item game: optional phase restriction
    k: Optional[int] = None   # clique order / path phase parameter
    m: Optional[int] = None   # box game: balls per box
    ordering: str = "random"  # box game
    eps: float = 0.5          # box game b0 marker
    override_scale: float = 1.0  # path game threshold scale
    jobs: int = 1

    def canonical_string(self) -> str:
        pairs = [
            ("game", self.game), ("n", self.n), ("b", self.b),
            ("trials", self.trials), ("seed", self.master_seed),
            ("maker", self.maker), ("breaker", self.breaker),
            ("phases", self.phases), ("k", self.k), ("m", self.m),
            ("ordering", self.ordering), ("eps", self.eps),
            ("override_scale", self.override_scale),
        ]
        return " ".join(f"{k}={v}" for k, v in pairs if v is not None)


# --------------------------------------------------------------------------
# Strategy catalog
# --------------------------------------------------------------------------


def _edge_stream_length(cfg: TrialConfig) -> int:
    return cfg.n * (cfg.n - 1) // 2


def _clique_k(cfg: TrialConfig) -> int:
    return cfg.k if cfg.k is not None else 3


def _path_plan(cfg: TrialConfig) -> path_game.PathPlan:
    return path_game.path_plan(cfg.n, cfg.b, k_override=cfg.k,
                               threshold_scale=cfg.override_scale)


def _fresh(make, *args):
    """A per-trial factory that ignores the trial's seed: ``make(*args)``."""
    return lambda seed: make(*args)


_TAKERS = {  # the entries every game shares, by the items they take: none, all, half
    "never": lambda cfg: _fresh(NeverTake),
    "always": lambda cfg: _fresh(AlwaysTake),
    "random": lambda cfg: functools.partial(RandomStrategy, 0.5),  # seed -> strategy
}


def _takers(*names) -> dict:
    return {name: _TAKERS[name] for name in names}


def _triangle_maker(cfg: TrialConfig):
    clique_game.triangle_maker_unrestricted(cfg.n, cfg.b)  # its regime warning, once
    return _fresh(clique_game.TriangleMaker, cfg.n, cfg.b)


def _clique_mimic(cfg: TrialConfig):
    mimic = (clique_game.triangle_mimic_breaker(cfg.n, cfg.b) if cfg.maker == "triangle"
             else clique_game.plan_mimic_breaker(
                 clique_game.clique_plan(cfg.n, cfg.b, _clique_k(cfg))))
    return _fresh(ScheduleStrategy, mimic.values, mimic.ends)


def maker_catalog(game: str) -> dict:
    """Maker entries of ``game`` by name.  An entry does a config's fixed
    work once, ``entry(cfg)``, and returns the per-trial factory
    ``seed -> fresh strategy``."""
    if game == "item":
        return {
            "single_threshold": lambda cfg: _fresh(
                item_game.single_threshold_maker(cfg.n).strategy),
            "phased": lambda cfg: _fresh(item_game.PhasedMaker,
                                         item_game.phased_maker_plan(cfg.n, cfg.b)),
            "dp": lambda cfg: _fresh(ScheduleStrategy, item_b0_dp(cfg.n).thresholds),
            **_takers("always", "random"),
        }
    if game == "clique":
        return {
            "triangle": _triangle_maker,
            "kclique": lambda cfg: _fresh(clique_game.kclique_maker,
                                          clique_game.clique_plan(cfg.n, cfg.b, _clique_k(cfg))),
        }
    if game == "path":
        return {
            "path": lambda cfg: _fresh(path_game.path_maker, _path_plan(cfg)),
        }
    if game == "box":
        return {
            "minbox": lambda cfg: _fresh(box_game.MinboxMaker),
            **_takers("random"),
        }
    raise ValueError(f"unknown game {game!r}")


def breaker_catalog(game: str) -> dict:
    """Breaker entries of ``game`` by name, shaped like maker_catalog's."""
    if game == "item":
        return {
            "closed_form": lambda cfg: _fresh(item_game.breaker_closed_form(cfg.n).strategy),
            "best_response": lambda cfg: _fresh(item_game.breaker_best_response(
                item_game.single_threshold_maker(cfg.n)).strategy),
            "cheap_grab": lambda cfg: _fresh(item_game.cheap_grab_breaker, cfg.n, max(1, cfg.b)),
            "mimic": lambda cfg: _fresh(item_game.mimic_threshold_breaker,
                                        item_game.single_threshold_maker(cfg.n)),
            **_takers("never", "always", "random"),
        }
    if game == "clique":
        return {
            "mimic": _clique_mimic,
            "cheap_grab": lambda cfg: _fresh(item_game.cheap_grab_breaker,
                                             _edge_stream_length(cfg), max(1, cfg.b)),
            **_takers("never", "random"),
        }
    if game == "path":
        return {
            "mimic": lambda cfg: _fresh(path_game.path_mimic_breaker, _path_plan(cfg)),
            "cheap_grab": lambda cfg: _fresh(item_game.cheap_grab_breaker,
                                             _edge_stream_length(cfg), max(1, cfg.b)),
            **_takers("never", "random"),
        }
    if game == "box":
        return {
            "focus": lambda cfg: _fresh(box_game.FocusBreaker),
            **_takers("never", "always", "random"),
        }
    raise ValueError(f"unknown game {game!r}")


def _game(cfg: TrialConfig):
    """The config's rules and stream shape; returns the per-trial game
    ``(seed, maker, breaker) -> Outcome``."""
    if cfg.game == "item":
        if cfg.n < 1:  # the bulk kernel builds no market to refuse it
            raise ValueError(f"market size must be >= 1, got {cfg.n}")
        rules = GameRules(b=cfg.b, phase_count=cfg.phases, goal=OwnAnyItem)
        return lambda seed, maker, breaker: play(
            generate_market(cfg.n, seed), rules, maker, breaker)
    if cfg.game == "clique":
        k = _clique_k(cfg)
        stream = _edge_stream_length(cfg)
        if stream < 1:
            raise ValueError("need at least 2 vertices")
        if cfg.maker == "triangle" and k != 3:
            raise ValueError(f"the triangle Maker plays k=3, got k={k}")
        if cfg.maker == "triangle" and cfg.n < 3:
            raise ValueError("need at least k=3 vertices")
        phases = cfg.phases if cfg.maker == "triangle" else k
        rules = GameRules(b=cfg.b, phase_count=phases,
                          goal=functools.partial(clique_game.CliqueGoal, k))
        return lambda seed, maker, breaker: play(
            generate_market(stream, seed, EdgeLabels(cfg.n)), rules, maker, breaker)
    if cfg.game == "path":
        plan = _path_plan(cfg)
        rules = GameRules(b=cfg.b, phase_count=plan.phase_count,
                          goal=functools.partial(path_game.PathGoal, 0, 1))
        return lambda seed, maker, breaker: play(
            generate_market(plan.edge_count, seed, EdgeLabels(cfg.n)), rules, maker,
            breaker)
    if cfg.game == "box":
        if cfg.m is None:
            raise ValueError("box game needs m (balls per box)")
        box_cfg = box_game.BoxConfig(n=cfg.n, m=cfg.m, b=cfg.b,
                                     ordering=cfg.ordering, eps=cfg.eps)
        return lambda seed, maker, breaker: box_game.play_box(box_cfg, maker, breaker,
                                                              seed=seed)
    raise ValueError(f"unknown game {cfg.game!r}")


_builds = threading.local()  # .last: the calling thread's (config, build), or None


def _build(cfg: TrialConfig):
    """The config's per-trial factories (maker, breaker, game) and its bulk
    plan (``_bulk_plan``), built once; an unknown strategy name or a bad
    game parameter raises ValueError here.  Each thread keeps the build of
    its last config, so threads running different configs do not evict each
    other's.  ``run_trials`` drops the calling thread's build when it
    returns (``_build.cache_clear``); a pool worker keeps at most the build
    of its last chunk until its next chunk.  Edge labels and markets are
    made per trial and never kept here."""
    last = getattr(_builds, "last", None)
    if last is not None and (last[0] is cfg or last[0] == cfg):
        return last[1]
    makers, breakers = maker_catalog(cfg.game), breaker_catalog(cfg.game)
    for role, name, catalog in (("maker", cfg.maker, makers),
                                ("breaker", cfg.breaker, breakers)):
        if name not in catalog:
            raise ValueError(
                f"unknown {role} {name!r} for {cfg.game}; catalog: {sorted(catalog)}")
    play_trial = _game(cfg)
    new_maker, new_breaker = makers[cfg.maker](cfg), breakers[cfg.breaker](cfg)
    _builds.last = cfg, (new_maker, new_breaker, play_trial,
                         _bulk_plan(cfg, new_maker, new_breaker))
    return _builds.last[1]


_build.cache_clear = functools.partial(setattr, _builds, "last", None)


# --------------------------------------------------------------------------
# Trial execution
# --------------------------------------------------------------------------


def run_one_trial(cfg: TrialConfig, index: int):
    """Run trial ``index``: returns (success, maker_cost, failure_tag)."""
    seed = mix_seed(cfg.master_seed, index)
    new_maker, new_breaker, play_trial, _ = _build(cfg)
    out = play_trial(seed, new_maker(mix_seed(seed, _MAKER_STREAM)),
                     new_breaker(mix_seed(seed, _BREAKER_STREAM)))
    tag = None if out.success else str(out.failure_phase or "unmet")
    return out.success, out.maker_cost, tag


def _threshold(strategy):
    """The threshold, a scalar or one per position, of a rule that takes
    every unowned offered item priced at or under it and plays no other way:
    a plain ``ScheduleStrategy``, ``AlwaysTake`` (+inf) or ``NeverTake``
    (-inf).  None for any other rule."""
    kind = type(strategy)
    if kind is ScheduleStrategy and strategy.ends is None:
        return strategy.values
    return {AlwaysTake: math.inf, NeverTake: -math.inf}.get(kind)


_SEED_BATCH = 2**12  # trials whose cost streams are seeded in one pass
_MEMO_BATCH = 2**8   # trials played alone whose streams' seed words are remembered at once
_MEMO_FLOOR = 16     # fewest trials played alone for which remembering them pays
_BLOCK = 2**15       # costs held at once, unless one window of one row is wider
_WINDOW = 2**10      # columns of the narrowest first window


def _first_window(n: int, t) -> int:
    """Columns of a block's first window: ``_WINDOW`` (at most n), doubled
    until it holds at least one expected Maker hit, ``t[:w].sum() >= 1``
    (``t * w`` for a scalar), or reaches n."""
    w = min(n, _WINDOW)
    while w < n and (t * w if np.ndim(t) == 0 else t[:w].sum()) < 1:
        w = min(n, 2 * w)
    return w


def _run_item_block(cfg: TrialConfig, start: int, count: int, t, ends, s):
    """Trials ``start .. start+count-1`` of a one-phase item game played in
    bulk (Maker's thresholds ``t`` and phase ends ``ends``, Breaker's
    thresholds ``s``, as ``_bulk_plan`` gives them), as
    ``_run_chunk`` returns them, with the per-trial engine's exact results.

    Such a game is two turns.  Breaker takes the first b positions priced
    at most s[p].  Then a threshold Maker takes the first position Breaker
    did not take priced at most t[p]; a ``PhasedMaker`` attempts the first
    position priced at most t[p] in each phase of its plan, owned or not,
    and takes the first attempt Breaker did not take.  The goal is met, or
    Maker takes nothing and the trial is unmet.

    No market is built.  The seed words of the cost streams
    ``generate_market`` would draw from are computed for 2**12 trials at a
    time, and each trial's costs are drawn from them by ``_fill_rows``.
    Rows are read in column windows, the first ``_first_window(n, t)`` wide
    and each later one as wide as all before it, reached by restarting the
    row's stream and advancing it.  Breaker's takes in a window are its
    first hits there, up to the takes it has left, and Maker's attempts are
    its first hits in each phase after the last phase it attempted; both
    are carried from window to window per row.  So a window that holds
    Maker's take decides the row, and only undecided rows read the next
    window.  At most 2**15 costs, or one window of one row, are held at
    once."""
    n, b = cfg.n, cfg.b
    success = np.zeros(count, dtype=bool)
    cost = np.zeros(count, dtype=np.float64)
    buffer = np.empty(min(max(_BLOCK, n), count * n))
    first = _first_window(n, t)
    for lo in range(0, count, _SEED_BATCH):
        live = np.arange(lo, min(count, lo + _SEED_BATCH))  # rows still undecided
        words = _pcg64_seed_words(_stream_seeds(cfg.master_seed, start + live, _COST_STREAM))
        need = np.full(live.size, b)  # Breaker's takes still to come, per live row
        tried = np.full(live.size, -1)  # the last phase Maker attempted, per live row
        a, e = 0, first
        while True:
            w = e - a
            rows = max(1, _BLOCK // w)
            tw, sw = (x[a:e] if np.ndim(x) else x for x in (t, s))
            ew = None if ends is None else ends - (a + 1)  # phases' last columns
            for g in range(0, live.size, rows):
                group = live[g:g + rows]
                costs = buffer[:group.size * w].reshape(group.size, w)
                _fill_rows(costs, words[group - lo], a)
                met, at = _maker_takes(costs, tw, sw, need[g:g + rows], ew, tried[g:g + rows])
                success[group[met]] = True
                cost[group[met]] = costs[met, at[met]]
            undecided = ~success[live]  # a row is decided by Maker's take
            if e == n or not undecided.any():
                break
            live, need, tried = live[undecided], need[undecided], tried[undecided]
            a, e = e, min(n, 2 * e)
    return success, cost, ["unmet"] * (count - int(np.count_nonzero(success)))


def _maker_takes(costs, t, s, need, ends, tried):
    """Whether Maker takes a column of each row of the window ``costs``, and
    which: the first of its candidates that Breaker does not take.  Breaker
    takes the first ``need[row]`` columns priced at most ``s``, and ``need``
    is decreased in place by the takes the window holds.  With ``ends``
    None, Maker's candidates are the columns priced at most ``t``.
    Otherwise ``ends`` are the last columns of Maker's phases, counted from
    the window's first, and its candidates are its attempts: the first
    column priced at most ``t`` in each phase after phase ``tried[row]``
    (0-based); ``tried`` is raised in place to the last phase attempted."""
    open_ = costs <= t
    if ends is not None:
        hits = np.flatnonzero(open_)
        row, col = np.divmod(hits, costs.shape[1])
        phase = np.searchsorted(ends, col)
        attempt = phase > tried[row]
        attempt[1:] &= (row[1:] != row[:-1]) | (phase[1:] != phase[:-1])
        open_.ravel()[hits[~attempt]] = False
        row, phase = row[attempt], phase[attempt]
        last = np.diff(row, append=-1) != 0  # each row's last attempt
        tried[row[last]] = phase[last]
    if need.any():
        hits = np.flatnonzero(costs <= s)
        hit_row = hits // costs.shape[1]
        per_row = np.bincount(hit_row, minlength=len(costs))
        rank = np.arange(hits.size) - (np.cumsum(per_row) - per_row)[hit_row]
        open_.ravel()[hits[rank < need[hit_row]]] = False
        need -= np.minimum(per_row, need)
    at = open_.argmax(axis=1)
    return open_[np.arange(len(costs)), at], at


def _run_box_block(cfg: TrialConfig, start: int, count: int, p: float):
    """Trials ``start .. start+count-1`` of an adversarially ordered box game
    between the min-box Maker and a Breaker taking with probability ``p``,
    as ``_run_chunk`` returns them.  Each game is played as ``play_box``
    plays it, by ``box_game._play_minbox_fixed_p`` on plain lists: every
    ball unowned and placed as a pointer first reaches it (``front`` 0).
    A random Breaker draws its doubles from its trial's Breaker stream,
    ``box_game._DRAWS`` at a time, as ``play_box`` draws them; the
    streams' seed words are computed for 2**12 trials at a time.  The tape
    has no market, so every cost is 0.0 and every Breaker win is tagged
    "box-starved"."""
    n, m, total = cfg.n, cfg.m, cfg.n * cfg.m
    drawing = 0.0 < p < 1.0
    won = []
    for lo in range(0, count, _SEED_BATCH):
        hi = min(count, lo + _SEED_BATCH)
        if drawing:
            words = _pcg64_seed_words(_stream_seeds(
                cfg.master_seed, np.arange(start + lo, start + hi), _BREAKER_STREAM))
        for rng in (map(_seeded, words) if drawing else [None] * (hi - lo)):
            goal = box_game.BoxState(n, m)
            box_game._play_minbox_fixed_p(
                goal, cfg.b, p, [UNOWNED] * total, [0] * total, 0,
                None if rng is None else lambda: rng.random(box_game._DRAWS).tolist(),
                [], [], None)
            won.append(goal.covered_count == n)
    success = np.array(won, dtype=bool)
    return success, np.zeros(count), ["box-starved"] * (count - sum(won))


def _bulk_plan(cfg: TrialConfig, new_maker, new_breaker):
    """The block ``block(cfg, start, count)`` that ``_run_chunk`` plays any
    chunk of the config's trials with, or None, for every trial played
    alone.

    A one-phase item game plays in ``_run_item_block`` when Maker is a
    threshold rule (thresholds ``t``, ``ends`` None) or a ``PhasedMaker``
    (its plan's thresholds and phase ends) and Breaker a threshold rule
    (thresholds ``s``).  An adversarially ordered box game plays in
    ``_run_box_block`` when Maker is the min-box rule and Breaker takes each
    unowned offered ball with a fixed probability p
    (``box_game._take_probability``)."""
    if cfg.game == "item" and cfg.phases == 1:
        maker = new_maker(0)
        if type(maker) is item_game.PhasedMaker:
            t, ends = maker.plan.position_thresholds, maker.plan.ends
        else:
            t, ends = _threshold(maker), None
        s = _threshold(new_breaker(0))
        if t is not None and s is not None:
            return functools.partial(_run_item_block, t=t, ends=ends, s=s)
    if (cfg.game == "box" and cfg.ordering == "adversarial"
            and type(new_maker(0)) is box_game.MinboxMaker):
        p = box_game._take_probability(new_breaker(0))
        if p is not None:
            return functools.partial(_run_box_block, p=p)
    return None


def _run_chunk(cfg: TrialConfig, start: int, count: int):
    """Trials ``start .. start+count-1``: (success, cost, failure tags).  A
    chunk of ``_MEMO_FLOOR`` or more trials played alone remembers their
    streams' seed words ``_MEMO_BATCH`` trials at a time (``_generator``)."""
    block = _build(cfg)[3]
    if block is not None:
        return block(cfg, start, count)
    success = np.zeros(count, dtype=bool)
    cost = np.zeros(count, dtype=np.float64)
    tags: list = []
    try:
        for i in range(count):
            if count >= _MEMO_FLOOR and i % _MEMO_BATCH == 0:
                _remember_seed_words(cfg.master_seed,
                                     np.arange(start + i, start + min(count, i + _MEMO_BATCH)))
            s, c, tag = run_one_trial(cfg, start + i)
            success[i] = s
            cost[i] = c
            if tag is not None:
                tags.append(tag)
    finally:
        _remember_seed_words(None)
    return success, cost, tags


@dataclass(frozen=True)
class TrialAggregate:
    """Cross-trial statistics with the exact sums they derive from retained,
    so every mean is recomputable and independent of execution order."""

    trials: int
    success_count: int
    sum_cost: float
    sumsq_cost: float
    sum_cost_success: float
    min_cost: Optional[float]
    max_cost: Optional[float]
    failure_histogram: dict
    config_string: str
    master_seed: int

    @property
    def success_rate(self) -> float:
        return self.success_count / self.trials if self.trials else 0.0

    @property
    def mean_cost_all(self) -> Optional[float]:
        return self.sum_cost / self.trials if self.trials else None

    @property
    def mean_cost_success(self) -> Optional[float]:
        return self.sum_cost_success / self.success_count if self.success_count else None

    @property
    def stderr(self) -> Optional[float]:
        if self.trials < 2:
            return None
        mean = self.sum_cost / self.trials
        var = (self.sumsq_cost - self.trials * mean * mean) / (self.trials - 1)
        return math.sqrt(max(var, 0.0) / self.trials)


def _env_jobs() -> int:
    text = os.environ.get("PG_JOBS", "1")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"PG_JOBS must be an integer, got {text!r}") from None


_pool = None  # (pid, workers, executor) of the fan-out's worker pool
_pool_lock = threading.Lock()  # held by a parallel call until its last chunk is in


# The pool forks whatever the default start method (Python 3.14 makes it
# 'forkserver' on Linux, whose workers are the fork server's children and
# would outlive a killed creator).
_FORK = (multiprocessing.get_context("fork")
         if "fork" in multiprocessing.get_all_start_methods() else None)


def _worker_pool(workers: int):
    """This process's pool of ``workers`` processes: forked on the first call
    with that count, then reused.  A pool of another count is shut down
    first."""
    global _pool
    if _pool is None or _pool[:2] != (os.getpid(), workers):
        _drop_pool()
        _pool = (os.getpid(), workers,
                 ProcessPoolExecutor(max_workers=workers, mp_context=_FORK,
                                     initializer=_exit_with_parent))
    return _pool[2]


def _exit_with_parent() -> None:
    """Pool worker initializer: a daemon thread ends the worker within about
    a second of its parent process going away.  A worker otherwise sleeps on
    its call queue forever when its parent is killed before it can shut the
    pool down.  Workers are forked straight from the pool's creator, so
    that is the parent read here."""
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def _drop_pool() -> None:
    """Forget the pool, shutting it down and cancelling its queued chunks if
    this process made it; one inherited through a fork is its parent's."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].shutdown(wait=True, cancel_futures=True)
    _pool = None


def run_trials(config: TrialConfig, jobs: Optional[int] = None) -> TrialAggregate:
    """Execute all trials and aggregate.  ``jobs`` defaults to the config's
    (1 unless set); only a config ``jobs`` of 0, as the CLI sets without
    ``--jobs``, reads the PG_JOBS environment variable, default 1, and
    raises ValueError if it is not an integer.  A negative worker count
    raises ValueError.  The config is built first, in the calling process,
    so an unknown strategy name or a bad game parameter raises ValueError
    there, whatever the trial and worker counts.  With ``jobs`` > 1 the
    trials split into chunks whose sizes differ by at most one.  A call the
    config's bulk plan plays (``_bulk_plan``) sends one chunk to each
    worker, ``min(jobs, trials)``, as a bulk trial costs the same wherever
    it runs; any other call splits into ``min(4 * jobs, trials)`` chunks, as
    its trials vary in cost.  A call of one chunk plays it in the calling
    process, and one of more on a pool of at most one worker per chunk.
    Parallel calls from several threads take turns on the pool; an error
    while the chunks run shuts it down, and the next parallel call forks a
    new one.  Results are reduced in trial-index order with exact summation,
    so the aggregate does not depend on the worker count."""
    if jobs is None:
        jobs = config.jobs or _env_jobs()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    trials = config.trials
    if trials < 0:
        raise ValueError("trials must be >= 0")

    try:
        per_worker = 1 if _build(config)[3] is not None else 4
        parts = 1 if jobs <= 1 else min(per_worker * jobs, trials)
        if parts <= 1:
            chunks = [_run_chunk(config, 0, trials)]
        else:
            bounds = [trials * i // parts for i in range(parts + 1)]
            spans = [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]
            with _pool_lock:
                pool = _worker_pool(min(jobs, parts))
                try:
                    futures = [pool.submit(_run_chunk, config, start, count)
                               for start, count in spans]
                    chunks = [f.result() for f in futures]
                except BaseException:
                    _drop_pool()
                    raise
    finally:
        _build.cache_clear()  # the config's build lives as long as this call

    success = np.concatenate([c[0] for c in chunks])
    cost = np.concatenate([c[1] for c in chunks])
    tags = [t for c in chunks for t in c[2]]
    costs_list = cost.tolist()
    histogram: dict = {}
    for t in tags:
        histogram[t] = histogram.get(t, 0) + 1
    return TrialAggregate(
        trials=trials,
        success_count=int(np.count_nonzero(success)),
        sum_cost=math.fsum(costs_list),
        sumsq_cost=math.fsum(c * c for c in costs_list),
        sum_cost_success=math.fsum(cost[success].tolist()),
        min_cost=float(cost.min()) if trials else None,
        max_cost=float(cost.max()) if trials else None,
        failure_histogram=dict(sorted(histogram.items())),
        config_string=config.canonical_string(),
        master_seed=config.master_seed,
    )


def confidence_interval(agg: TrialAggregate, level: float) -> tuple:
    """Normal-approximation interval mean +- z(level) * stderr over the
    all-trials mean cost."""
    if agg.trials < 2:
        raise ValueError("confidence interval undefined below 2 trials")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    mean = agg.mean_cost_all
    se = agg.stderr
    return (mean - z * se, mean + z * se)


_CSV_COLUMNS = [
    "config", "trials", "success_rate", "mean_cost_all", "mean_cost_success",
    "stderr", "ci95_low", "ci95_high", "seed", "histogram",
]


def _payload(agg: TrialAggregate) -> dict:
    ci = confidence_interval(agg, 0.95) if agg.trials >= 2 else None
    return {
        "config": agg.config_string,
        "trials": agg.trials,
        "success_rate": agg.success_rate,
        "mean_cost_all": agg.mean_cost_all,
        "mean_cost_success": agg.mean_cost_success,
        "stderr": agg.stderr,
        "ci95": list(ci) if ci else None,
        "seed": agg.master_seed,
        "histogram": agg.failure_histogram,
    }


def export(agg: TrialAggregate, fmt: str, destination) -> None:
    """Write the aggregate as JSON (one object) or CSV (fixed column order:
    config, trials, success_rate, mean_cost_all, mean_cost_success, stderr,
    ci95_low, ci95_high, seed, histogram).  JSON numbers round-trip exactly;
    CSV floats are printed at 17 significant digits.  ``destination`` is a
    path or a writable file object."""
    payload = _payload(agg)
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True) + "\n"
    elif fmt == "csv":
        def fmt_val(key):
            val = payload[key] if key in payload else None
            if key == "ci95_low":
                val = payload["ci95"][0] if payload["ci95"] else None
            elif key == "ci95_high":
                val = payload["ci95"][1] if payload["ci95"] else None
            if val is None:
                return ""
            if isinstance(val, float):
                return f"{val:.17g}"
            if isinstance(val, dict):
                return json.dumps(val, sort_keys=True).replace(",", ";")
            return str(val)
        text = ",".join(_CSV_COLUMNS) + "\n" + ",".join(fmt_val(c) for c in _CSV_COLUMNS) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    try:
        with _opened(destination, "w") as out:
            out.write(text)
    except OSError as exc:
        if exc.filename is None:  # a write failed, not the open
            raise
        raise OSError(f"cannot write export to {exc.filename}: {exc}") from exc
