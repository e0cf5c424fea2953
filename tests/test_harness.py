"""Harness and CLI tests: determinism, aggregation, exports, exit codes."""

import io
import itertools
import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purchase_games import box_game, clique_game, engine, harness, item_game
from purchase_games.cli import cli_main
from purchase_games.engine import mix_seed
from purchase_games.harness import TrialAggregate, TrialConfig, confidence_interval, export, run_trials
from purchase_games.item_game import breaker_closed_form, single_threshold_maker
from purchase_games.oracle import item_b0_dp


def _cfg(**kw):
    base = dict(game="item", n=60, b=1, trials=400, master_seed=11,
                maker="single_threshold", breaker="closed_form")
    base.update(kw)
    return TrialConfig(**base)


# --------------------------------------------------------------------------
# run_trials
# --------------------------------------------------------------------------


def test_zero_trials_empty_aggregate():
    agg = run_trials(_cfg(trials=0))
    assert agg.trials == 0 and agg.success_count == 0
    assert agg.success_rate == 0.0
    assert agg.mean_cost_all is None and agg.stderr is None


def test_identical_configs_identical_aggregates():
    a = run_trials(_cfg())
    b = run_trials(_cfg())
    assert a == b


def test_parallel_matches_serial_bitwise():
    cfg = _cfg(trials=600)
    a1 = run_trials(cfg, jobs=1)
    a4 = run_trials(cfg, jobs=4)
    assert a1 == a4
    b1, b4 = io.StringIO(), io.StringIO()
    export(a1, "json", b1)
    export(a4, "json", b4)
    assert b1.getvalue() == b4.getvalue()


@pytest.fixture
def fresh_pool():
    """No cached worker pool before the test, and none left after it."""
    harness._drop_pool()
    yield
    harness._drop_pool()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its worker count and the
    chunks submitted to it, and runs each chunk inline, starting no
    process."""

    made: list = []
    submitted: list = []

    def __init__(self, max_workers, mp_context=None, initializer=None):
        self.made.append(max_workers)

    def submit(self, fn, *args):
        self.submitted.append(args)
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_pool_has_no_more_workers_than_chunks(fresh_pool, monkeypatch):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "made", [])
    cfg = _cfg(trials=3)
    assert run_trials(cfg, jobs=64) == run_trials(cfg, jobs=1)
    assert _InlinePool.made == [3]


@pytest.fixture
def inline_pool(fresh_pool, monkeypatch):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "made", [])
    monkeypatch.setattr(_InlinePool, "submitted", [])


def test_parallel_calls_of_one_chunk_play_it_in_the_caller(inline_pool):
    """A one-trial call makes one chunk, and so does a bulk box call of
    fewer than ``2 * _BOX_ROWS`` trials: the caller plays it, without
    forking a pool or shutting down the one it has."""
    cfgs = [_cfg(n=200, trials=trials) for trials in (1, 2000, 1, 2000)]
    for cfg in cfgs + [_box_cfg(n=5, m=11, b=2, trials=100)]:
        assert run_trials(cfg, jobs=2) == run_trials(cfg, jobs=1)
    assert _InlinePool.made == [2]


CHUNK_PLAN_TRIALS = (1, 2, 3, 63, 64, 65, 127, 521, 2000)
CHUNK_PLAN_CFGS = {  # config, and the fewest trials its chunks play in bulk (None: never)
    "bulk-item": (dict(n=200), 1),
    "bulk-box": (dict(game="box", n=5, m=11, b=2, master_seed=3, maker="minbox",
                      breaker="random", ordering="adversarial"), 64),
    "item-alone": (dict(phases=2), None),
}


@pytest.mark.parametrize("kind", sorted(CHUNK_PLAN_CFGS))
def test_chunk_plan_submits_one_bulk_chunk_a_worker(inline_pool, kind):
    """A call played in bulk sends ``min(jobs, trials // rows)`` chunks, any
    other ``min(4 * jobs, trials)``; a call of one chunk submits none."""
    changes, rows = CHUNK_PLAN_CFGS[kind]
    block, plan_rows = harness._build(_cfg(**changes))[3]
    harness._build.cache_clear()
    assert (block is not None, plan_rows) == (rows is not None, rows or 1)
    for jobs in (2, 3):
        for trials in CHUNK_PLAN_TRIALS:
            _InlinePool.submitted.clear()
            run_trials(_cfg(trials=trials, **changes), jobs=jobs)
            bulk = rows is not None and trials >= rows
            parts = min(jobs, trials // rows) if bulk else min(4 * jobs, trials)
            assert len(_InlinePool.submitted) == (parts if parts > 1 else 0), (jobs, trials)
            assert sum(count for _, _, count in _InlinePool.submitted) in (0, trials)


@pytest.mark.parametrize("kind", sorted(CHUNK_PLAN_CFGS))
def test_chunk_plan_exports_equal_the_serial_bytes(fresh_pool, kind):
    changes, _ = CHUNK_PLAN_CFGS[kind]
    for jobs in (2, 3):
        for trials in CHUNK_PLAN_TRIALS:
            cfg = _cfg(trials=trials, **changes)
            assert _exported(run_trials(cfg, jobs=jobs)) == _exported(run_trials(cfg, jobs=1)), \
                (jobs, trials)


def _worker_processes():
    return list(harness._pool[2]._processes.values())


def test_parallel_calls_reuse_one_pool_per_worker_count(fresh_pool):
    cfg = _cfg(trials=64)
    serial = run_trials(cfg, jobs=1)
    assert run_trials(cfg, jobs=2) == serial
    first = _worker_processes()
    assert len(first) == 2
    assert run_trials(cfg, jobs=2) == serial
    assert {p.pid for p in _worker_processes()} == {p.pid for p in first}

    assert run_trials(cfg, jobs=3) == serial
    assert len(_worker_processes()) == 3
    assert not any(p.is_alive() for p in first)


def test_pool_inherited_through_fork_is_left_alone(fresh_pool):
    calls = []

    class Inherited:
        def submit(self, *args):
            calls.append("submit")

        def shutdown(self, *args, **kwargs):
            calls.append("shutdown")

    harness._pool = (os.getppid(), 2, Inherited())
    cfg = _cfg(trials=64)
    assert run_trials(cfg, jobs=2) == run_trials(cfg, jobs=1)
    assert calls == []
    assert harness._pool[:2] == (os.getpid(), 2)


def test_failed_parallel_call_drops_the_pool(fresh_pool, monkeypatch):
    def failing(cfg, index):
        raise ValueError("trial failed")

    monkeypatch.setattr(harness, "run_one_trial", failing)  # before the pool forks
    with pytest.raises(ValueError, match="trial failed"):
        run_trials(_cfg(trials=20, phases=2), jobs=2)
    assert harness._pool is None
    cfg = _cfg(trials=64)  # played in bulk, so the failing trial is not reached
    assert run_trials(cfg, jobs=2) == run_trials(cfg, jobs=1)


@pytest.mark.parametrize("bad, message", [
    (dict(game="box", n=3, m=None, maker="minbox", breaker="focus"), "needs m"),
    (dict(game="clique", n=1, maker="triangle", breaker="mimic"), "2 vertices"),
    (dict(maker="nope"), "catalog"),
])
def test_parallel_call_with_a_bad_config_keeps_the_pool(fresh_pool, bad, message):
    """The config is built in the calling process before any chunk is sent,
    so its error is raised there and the workers stay."""
    cfg = _cfg(trials=64)
    assert run_trials(cfg, jobs=2) == run_trials(cfg, jobs=1)
    pool = harness._pool
    with pytest.raises(ValueError, match=message):
        run_trials(_cfg(trials=20, **bad), jobs=2)
    assert harness._pool is pool


def test_threads_take_turns_on_the_pool(fresh_pool):
    cfg = _cfg(trials=64)
    serial = run_trials(cfg, jobs=1)
    with ThreadPoolExecutor(4) as threads:
        results = list(threads.map(lambda jobs: run_trials(cfg, jobs=jobs), [2, 3] * 4,
                                   timeout=120))
    assert results == [serial] * 8


_ORPHANING_RUN = """
import multiprocessing, sys
from purchase_games import harness
multiprocessing.set_start_method(sys.argv[1])
cfg = harness.TrialConfig(game="item", n=60, b=1, trials=40, master_seed=3,
                          maker="single_threshold", breaker="closed_form")
assert harness.run_trials(cfg, jobs=2) == harness.run_trials(cfg, jobs=1)
print(*harness._pool[2]._processes, flush=True)
sys.stdin.read()
"""


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
@pytest.mark.parametrize("method", ["fork", "forkserver"])
def test_pool_workers_exit_when_their_parent_is_killed(method):
    """A SIGTERM skips every exit hook, so only the workers' own watch can
    end them.  The pool forks its workers whatever the default start method
    (``method``): a fork server's children would hold it alive, and it them."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method!r} start method here")
    proc = subprocess.Popen([sys.executable, "-c", _ORPHANING_RUN, method],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    workers = []
    try:
        assert select.select([proc.stdout], [], [], 120)[0]
        workers = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(workers) == 2 and all(map(_running, workers))
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == -signal.SIGTERM
        deadline = time.monotonic() + 30
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, workers))
    finally:
        proc.kill()
        proc.wait(timeout=30)
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)


def test_unknown_strategy_lists_catalog():
    with pytest.raises(ValueError, match="catalog"):
        run_trials(_cfg(maker="nope"))
    with pytest.raises(ValueError, match="catalog"):
        run_trials(_cfg(breaker="nope"))


def test_basic_stats_sane():
    agg = run_trials(_cfg())
    assert 0.0 <= agg.success_rate <= 1.0
    assert agg.mean_cost_all >= 0.0
    assert agg.stderr >= 0.0
    assert agg.min_cost <= agg.mean_cost_all <= agg.max_cost
    assert agg.config_string.startswith("game=item")


def test_all_game_types_run():
    box = run_trials(TrialConfig(game="box", n=3, b=1, m=4, trials=20,
                                 master_seed=5, maker="minbox", breaker="focus"))
    assert box.trials == 20
    clique = run_trials(TrialConfig(game="clique", n=60, b=1, k=3, trials=5,
                                    master_seed=5, maker="triangle", breaker="mimic"))
    assert clique.trials == 5
    path = run_trials(TrialConfig(game="path", n=500, b=1, k=1, trials=5,
                                  master_seed=5, override_scale=20.0,
                                  maker="path", breaker="cheap_grab"))
    assert path.trials == 5
    assert "grow" not in path.failure_histogram or path.success_count < 5


@pytest.mark.parametrize("maker, k", [("triangle", 3), ("kclique", 3), ("kclique", 4)])
def test_clique_mimic_prices_like_the_maker_it_faces(maker, k):
    cfg = TrialConfig(game="clique", n=60, b=1, k=k, trials=1, master_seed=5,
                      maker=maker, breaker="mimic")
    mimic = harness.breaker_catalog("clique")["mimic"](cfg)(0)
    want = (clique_game.triangle_mimic_breaker(60, 1) if maker == "triangle"
            else clique_game.plan_mimic_breaker(clique_game.clique_plan(60, 1, k)))
    assert np.array_equal(mimic.ends, want.ends)
    assert np.array_equal(mimic.values, want.values)
    assert len(mimic.ends) == (2 if maker == "triangle" else k)


@pytest.mark.parametrize("maker, breaker, b", [
    ("single_threshold", "closed_form", 1),
    ("dp", "never", 0),
    ("phased", "cheap_grab", 3),
])
def test_item_trials_never_build_the_permutation(monkeypatch, maker, breaker, b):
    """These pairs, the phased Maker's included, are played in bulk, which
    builds no market and so no permutation either."""
    markets = []
    real = harness.generate_market

    def recording(*args, **kwargs):
        markets.append(real(*args, **kwargs))
        return markets[-1]

    monkeypatch.setattr(harness, "generate_market", recording)
    agg = run_trials(_cfg(n=400, b=b, trials=30, maker=maker, breaker=breaker), jobs=1)
    assert agg.success_count == 30
    assert markets == []


def test_phased_run_warns_once_per_call():
    # The plan is memoised across calls; its regime warning is not.
    cfg = _cfg(n=200, b=2, trials=25, maker="phased", breaker="cheap_grab")
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            run_trials(cfg, jobs=1)
        assert len([w for w in caught if "cost guarantee degrades" in str(w.message)]) == 1


# --------------------------------------------------------------------------
# item trials in bulk
# --------------------------------------------------------------------------

BULK_MAKERS = ("single_threshold", "dp", "always")  # threshold rules; "phased" plays too
BULK_BREAKERS = ("closed_form", "best_response", "cheap_grab", "mimic", "never", "always")


def _bulk(cfg):
    return harness._build(cfg)[3][0] is not None


def test_bulk_item_pairs_are_the_threshold_rules():
    makers, breakers = harness.maker_catalog("item"), harness.breaker_catalog("item")
    try:
        bulk = {(m, b) for m in makers for b in breakers
                if _bulk(_cfg(n=40, b=2, maker=m, breaker=b))}
        assert not _bulk(_cfg(phases=2))
    finally:
        harness._build.cache_clear()
    assert bulk == {(m, b) for m in BULK_MAKERS + ("phased",) for b in BULK_BREAKERS}


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("maker", BULK_MAKERS)
def test_bulk_item_trials_match_the_per_trial_engine(monkeypatch, maker, grid):
    """With ``grid``, every cost is snapped to a multiple of 1/4, so costs
    equal to a threshold (0, 1/4, 1/2 or 1) are common.  The engine's costs
    are snapped in its markets, and the bulk kernel's, which come from no
    market, in each window it decides."""
    snapped = []
    if grid:
        real_market = harness.generate_market

        def grid_market(*args, **kwargs):
            market = real_market(*args, **kwargs)
            market.costs = np.round(market.costs * 4.0) / 4.0
            return market

        real_takes = harness._maker_takes

        def grid_takes(costs, *args):
            costs[:] = np.round(costs * 4.0) / 4.0
            snapped.append(costs.size)
            return real_takes(costs, *args)

        monkeypatch.setattr(harness, "generate_market", grid_market)
        monkeypatch.setattr(harness, "_maker_takes", grid_takes)
    breaker_takes = []  # (b, Breaker's takes) of each game the engine played
    real_play = harness.play

    def recording_play(market, rules, *args, **kwargs):
        out = real_play(market, rules, *args, **kwargs)
        breaker_takes.append((rules.b, len(out.breaker_positions)))
        return out

    monkeypatch.setattr(harness, "play", recording_play)
    start, count = 5, 40
    tags = []
    try:
        for breaker in BULK_BREAKERS:
            for n in (2, 3, 40, 257):
                for b in (0, 1, 2, n + 1):
                    cfg = _cfg(n=n, b=b, trials=start + count, master_seed=n * 31 + b,
                               maker=maker, breaker=breaker)
                    played = len(breaker_takes)
                    success, cost, unmet = harness._run_chunk(cfg, start, count)
                    assert len(breaker_takes) == played  # no trial reached the engine
                    ref = [harness.run_one_trial(cfg, start + i) for i in range(count)]
                    assert success.tolist() == [s for s, _, _ in ref], cfg
                    assert [c.hex() for c in cost.tolist()] == [c.hex() for _, c, _ in ref], cfg
                    assert unmet == [t for _, _, t in ref if t is not None], cfg
                    tags += [t for _, _, t in ref]
    finally:
        harness._build.cache_clear()
    assert "unmet" in tags and None in tags
    assert any(0 < taken < b for b, taken in breaker_takes)
    assert bool(snapped) == grid


@pytest.mark.parametrize("changes", [
    dict(phases=2),
    dict(maker="phased", breaker="random", b=2),
    dict(maker="random"),
    dict(breaker="random"),
])
def test_other_item_configs_play_each_trial(monkeypatch, changes):
    calls = []
    real = harness.run_one_trial

    def counting(cfg, index):
        calls.append(index)
        return real(cfg, index)

    monkeypatch.setattr(harness, "run_one_trial", counting)
    run_trials(_cfg(n=40, trials=12, **changes), jobs=1)
    assert calls == list(range(12))


# --------------------------------------------------------------------------
# trials played alone, with their streams' seed words remembered
# --------------------------------------------------------------------------


def _remembered():
    return getattr(engine._seed_memo, "table", None)


def _exported(agg):
    out = io.StringIO()
    export(agg, "json", out)
    return out.getvalue()


def _alone_box_cfg(**kw):
    """A box config played one game at a time that builds four generators
    a game: costs, tape, a random Maker and a random Breaker."""
    return _box_cfg(n=5, m=11, b=2, ordering="random", maker="random", **kw)


@pytest.mark.parametrize("batch", [4, 7, 2**8])
@pytest.mark.parametrize("extra", [-1, 0, 9])
def test_trials_played_alone_build_their_generators_from_remembered_words(monkeypatch,
                                                                          batch, extra):
    """A chunk of ``_MEMO_FLOOR`` or more trials played alone builds all
    four generators of each game from seed words remembered ``_MEMO_BATCH``
    trials at a time, plus one build per batch for the self-check; a
    smaller chunk remembers none.  Nothing is remembered after the call,
    and the export equals that of a run that remembers nothing."""
    monkeypatch.setattr(harness, "_MEMO_BATCH", batch)
    trials = harness._MEMO_FLOOR + extra
    cfg = _alone_box_cfg(trials=trials)
    built = []

    class CountedWords(engine._SeedWords):
        def __init__(self, words):
            built.append(1)
            super().__init__(words)

    monkeypatch.setattr(engine, "_SeedWords", CountedWords)
    remembered = _exported(run_trials(cfg, jobs=1))
    assert _remembered() is None
    batches = -(-trials // batch) if trials >= harness._MEMO_FLOOR else 0
    assert len(built) == (4 * trials + batches if batches else 0)
    monkeypatch.setattr(harness, "_MEMO_FLOOR", trials + 1)
    assert _exported(run_trials(cfg, jobs=1)) == remembered


def test_seed_words_are_forgotten_when_a_trial_raises(monkeypatch):
    real = harness.run_one_trial

    def failing(cfg, index):
        assert _remembered() is not None
        if index == 20:
            raise RuntimeError("trial 20 failed")
        return real(cfg, index)

    monkeypatch.setattr(harness, "run_one_trial", failing)
    with pytest.raises(RuntimeError, match="trial 20 failed"):
        run_trials(_alone_box_cfg(trials=harness._MEMO_FLOOR + 20), jobs=1)
    assert _remembered() is None


def test_threads_playing_trials_alone_export_the_serial_bytes():
    """Two threads remember their own chunks' seed words at once, with
    thread switches every few microseconds, and each call exports what it
    does alone."""
    cfgs = [_alone_box_cfg(trials=120, master_seed=seed) for seed in (1, 2)]
    serial = [_exported(run_trials(cfg, jobs=1)) for cfg in cfgs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as threads:
            futures = [threads.submit(lambda cfg=cfg: _exported(run_trials(cfg, jobs=1)))
                       for cfg in cfgs * 2]
            exports = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert exports == serial * 2


def test_threads_running_different_configs_keep_their_own_builds(monkeypatch):
    """Three threads play the trials of three box_n5-shaped configs in
    lock-step, one trial each at a time, with thread switches every few
    microseconds: each config is built once, and each call exports what it
    does alone."""
    seeds = (1, 2, 3)
    cfgs = [_box_cfg(n=5, m=11, b=2, ordering="random", trials=40, master_seed=seed)
            for seed in seeds]
    serial = [_exported(run_trials(cfg, jobs=1)) for cfg in cfgs]
    built = []
    real_game, real_trial = harness._game, harness.run_one_trial
    lockstep = threading.Barrier(len(cfgs), timeout=60)

    def counted_game(cfg):
        built.append(cfg.master_seed)
        return real_game(cfg)

    def lockstep_trial(cfg, index):
        lockstep.wait()
        return real_trial(cfg, index)

    monkeypatch.setattr(harness, "_game", counted_game)
    monkeypatch.setattr(harness, "run_one_trial", lockstep_trial)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(cfgs)) as threads:
            futures = [threads.submit(lambda cfg=cfg: _exported(run_trials(cfg, jobs=1)))
                       for cfg in cfgs]
            exports = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(built) == list(seeds)
    assert exports == serial


def test_bulk_chunks_join_to_one_chunk():
    cfg = _cfg(n=200, trials=1000)
    try:
        whole = harness._run_chunk(cfg, 0, 1000)
        parts = [harness._run_chunk(cfg, 0, 373), harness._run_chunk(cfg, 373, 627)]
    finally:
        harness._build.cache_clear()
    assert whole[0].tolist() == parts[0][0].tolist() + parts[1][0].tolist()
    assert whole[1].tobytes() == parts[0][1].tobytes() + parts[1][1].tobytes()
    assert whole[2] == parts[0][2] + parts[1][2]


def test_bulk_item_chunk_holds_one_block_of_costs():
    trials, n = 20_000, 200
    cfg = _cfg(n=n, trials=trials)
    harness._build(cfg)
    tracemalloc.start()
    try:
        success, _, _ = harness._run_chunk(cfg, 0, trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        harness._build.cache_clear()
    assert success.all()
    # Every trial's costs would take trials * n * 8 bytes; one block, 2**18.
    assert peak < trials * n


@pytest.mark.parametrize("n", [2**12, 2**15, 10**5])
def test_bulk_item_trials_match_the_engine_at_large_n(monkeypatch, n):
    """Seed batches of 3 trials and 2 first-window rows at a time: a chunk
    that starts inside a batch crosses batch, group and window boundaries,
    and its rows are decided in the first window, in a later one, or never
    (Breaker's mimic takes every item Maker wants when b > n)."""
    first = harness._first_window(n, single_threshold_maker(n).values)
    monkeypatch.setattr(harness, "_SEED_BATCH", 3)
    monkeypatch.setattr(harness, "_BLOCK", 2 * first)
    start, count = 2, 7
    decided = set()
    try:
        for b, breaker in [(0, "never"), (1, "closed_form"), (10, "mimic"),
                           (10, "cheap_grab"), (n + 1, "mimic")]:
            cfg = _cfg(n=n, b=b, trials=start + count, master_seed=n + b, breaker=breaker)
            success, cost, unmet = harness._run_chunk(cfg, start, count)
            ref = [harness.run_one_trial(cfg, start + i) for i in range(count)]
            assert success.tolist() == [s for s, _, _ in ref], cfg
            assert [c.hex() for c in cost.tolist()] == [c.hex() for _, c, _ in ref], cfg
            assert unmet == [t for _, _, t in ref if t is not None], cfg
            for i, (met, c, _) in enumerate(ref):
                if not met:
                    decided.add("never")
                    continue
                costs = harness.generate_market(n, mix_seed(cfg.master_seed, start + i)).costs
                decided.add("first" if np.flatnonzero(costs == c)[0] < first else "later")
    finally:
        harness._build.cache_clear()
    assert decided == {"first", "later", "never"}


def _window_of(column: int, first: int) -> int:
    """Index of the bulk kernel's window that holds 0-based ``column``: the
    first is ``first`` columns wide, and each later one as wide as all
    before it."""
    return (int(column) // first).bit_length()


def _attempt_carried(plan, first, costs, out) -> bool:
    """Whether the phased Maker of ``out`` made an attempt that Breaker had
    pre-empted, with more of its hits in that phase before its take, in a
    later window than the attempt."""
    take = out.M - 1 if out.success else len(costs)
    hits = np.flatnonzero(costs <= plan.position_thresholds)
    hits = hits[hits < take]
    phase = np.searchsorted(plan.ends, hits + 1)
    owned = set(out.breaker_positions)
    for p in np.unique(phase):
        h = hits[phase == p]
        if h[0] + 1 in owned and _window_of(h[-1], first) > _window_of(h[0], first):
            return True
    return False


@pytest.mark.parametrize("n", [40, 400, 2**12, 10**5])
def test_bulk_phased_trials_match_the_engine_at_large_n(monkeypatch, n):
    """The phased Maker in bulk against the engine, trial by trial, with seed
    batches of 3 trials and blocks of 64 costs, first with 3-column and
    then with 2**10-column narrowest first windows: a chunk that starts
    inside a batch crosses batch, group and window boundaries.  Up to
    n = 2**12, some rows have an attempt that Breaker pre-empted and more of
    Maker's hits in that phase in a later window, which only the carried
    last attempted phase keeps Maker from taking.  At n = 10**5 an attempt
    is pre-empted too rarely to count on: about 1 trial in 25 against the
    always Breaker at b = 10."""
    games = []  # (costs, Outcome) of each game the engine played
    real_play = harness.play

    def recording_play(market, *args, **kwargs):
        out = real_play(market, *args, **kwargs)
        games.append((market.costs, out))
        return out

    monkeypatch.setattr(harness, "play", recording_play)
    monkeypatch.setattr(harness, "_SEED_BATCH", 3)
    monkeypatch.setattr(harness, "_BLOCK", 64)
    start, count = 2, 7
    carried = 0
    try:
        for window in (3, 2**10):
            monkeypatch.setattr(harness, "_WINDOW", window)
            for b in (1, 3, 10):
                for breaker in ("cheap_grab", "mimic", "closed_form", "always", "never"):
                    cfg = _cfg(n=n, b=b, trials=start + count, master_seed=n + b,
                               maker="phased", breaker=breaker)
                    success, cost, unmet = harness._run_chunk(cfg, start, count)
                    assert games == []  # no trial reached the engine
                    ref = [harness.run_one_trial(cfg, start + i) for i in range(count)]
                    assert success.tolist() == [s for s, _, _ in ref], cfg
                    assert [c.hex() for c in cost.tolist()] == [c.hex() for _, c, _ in ref], cfg
                    assert unmet == [t for _, _, t in ref if t is not None], cfg
                    plan = harness._build(cfg)[0](0).plan
                    first = harness._first_window(n, plan.position_thresholds)
                    carried += sum(_attempt_carried(plan, first, *game) for game in games)
                    games.clear()
    finally:
        harness._build.cache_clear()
    assert carried or n == 10**5


@st.composite
def _bulk_cfgs(draw):
    """One-phase item configs that ``_run_chunk`` plays in bulk, n <= 300."""
    n = draw(st.integers(2, 300))
    maker = draw(st.sampled_from(BULK_MAKERS + ("phased",)))
    b = draw(st.integers(1, n - 1) if maker == "phased" else st.integers(0, n + 1))
    master = draw(st.one_of(st.integers(-2**70, -1), st.integers(0, 2**64 - 1),
                            st.integers(2**64, 2**70)))
    return _cfg(n=n, b=b, master_seed=master, maker=maker,
                breaker=draw(st.sampled_from(BULK_BREAKERS)))


@settings(max_examples=150, deadline=None)
@given(cfg=_bulk_cfgs(), start=st.integers(0, 40), count=st.integers(1, 12),
       window=st.sampled_from([1, 2, 5, 2**10]), batch=st.sampled_from([1, 3, 2**12]),
       block=st.sampled_from([1, 50, 2**15]))
def test_bulk_chunk_equals_the_engine_trial_by_trial(cfg, start, count, window, batch,
                                                     block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_WINDOW", window)
        mp.setattr(harness, "_SEED_BATCH", batch)
        mp.setattr(harness, "_BLOCK", block)
        try:
            assert _bulk(cfg)
            success, cost, unmet = harness._run_chunk(cfg, start, count)
            ref = [harness.run_one_trial(cfg, start + i) for i in range(count)]
        finally:
            harness._build.cache_clear()
    assert success.tolist() == [s for s, _, _ in ref]
    assert [c.hex() for c in cost.tolist()] == [c.hex() for _, c, _ in ref]
    assert unmet == [t for _, _, t in ref if t is not None]


@pytest.mark.parametrize("master", [-5, 2**64 + 5])
def test_bulk_item_trials_reduce_the_master_seed_as_mix_seed_does(master):
    cfg = _cfg(n=60, b=1, trials=50, master_seed=master)
    try:
        success, cost, _ = harness._run_chunk(cfg, 0, 50)
        ref = [harness.run_one_trial(cfg, i) for i in range(50)]
    finally:
        harness._build.cache_clear()
    assert success.tolist() == [s for s, _, _ in ref]
    assert [c.hex() for c in cost.tolist()] == [c.hex() for _, c, _ in ref]


# --------------------------------------------------------------------------
# adversarial box games in bulk
# --------------------------------------------------------------------------

BOX_BULK_BREAKERS = ("random", "always", "never")  # take probabilities 0.5, 1, 0


def _box_cfg(**kw):
    base = dict(game="box", n=3, m=4, b=1, trials=100, master_seed=3, maker="minbox",
                breaker="random", ordering="adversarial")
    base.update(kw)
    return TrialConfig(**base)


def _assert_chunk_matches_run_one_trial(cfg, start, count):
    """``_run_chunk`` gives ``run_one_trial``'s results, trial by trial:
    success, cost bits and tags; returns the per-trial tags."""
    success, cost, tags = harness._run_chunk(cfg, start, count)
    ref = [harness.run_one_trial(cfg, start + i) for i in range(count)]
    assert success.tolist() == [s for s, _, _ in ref], cfg
    assert [c.hex() for c in cost.tolist()] == [c.hex() for _, c, _ in ref], cfg
    assert tags == [t for _, _, t in ref if t is not None], cfg
    return [t for _, _, t in ref]


@pytest.mark.parametrize("changes, bulk", [
    (dict(ordering="random"), False),
    (dict(ordering="random", breaker="always"), False),
    (dict(breaker="focus"), False),
    (dict(maker="random"), False),
    (dict(breaker="random"), True),
    (dict(breaker="always"), True),
    (dict(breaker="never"), True),
])
def test_box_games_in_bulk_are_adversarial_minbox_blocks(monkeypatch, changes, bulk):
    """A chunk plays no game through ``play_box`` exactly when it is an
    adversarial min-box chunk against a take-with-probability-p Breaker
    whose block holds ``_BOX_ROWS`` games; every other chunk plays one game
    per trial."""
    games = []
    real = box_game.play_box

    def counting(*args, **kwargs):
        games.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(box_game, "play_box", counting)
    rows = harness._BOX_ROWS
    for trials, block in [(rows - 1, harness._BLOCK), (rows, harness._BLOCK),
                          (rows, 12 * rows - 1)]:  # a block of 12-ball games too small
        monkeypatch.setattr(harness, "_BLOCK", block)
        games.clear()
        run_trials(_box_cfg(trials=trials, **changes), jobs=1)
        in_bulk = bulk and trials >= rows and block >= 12 * rows
        assert len(games) == (0 if in_bulk else trials)


def test_random_tape_minbox_games_take_the_turns_without_offers(monkeypatch):
    """A ``box_n5``-shaped call, a random tape between the min-box Maker and
    the random Breaker, plays each trial as one ``play_box`` game whose
    turns offer no ball: no Item is built, and neither strategy's
    ``decide`` is called."""
    calls = {"play_box": 0, "Item": 0, "MinboxMaker.decide": 0, "RandomStrategy.decide": 0}

    def counted(name, real):
        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counting

    real_deferred = engine._deferred

    def deferred(cls, *args, **kwargs):
        calls["Item"] += cls is engine.Item
        return real_deferred(cls, *args, **kwargs)

    monkeypatch.setattr(engine, "_deferred", deferred)
    monkeypatch.setattr(engine.Item, "__init__", counted("Item", engine.Item.__init__))
    monkeypatch.setattr(box_game, "play_box", counted("play_box", box_game.play_box))
    for cls in (box_game.MinboxMaker, engine.RandomStrategy):
        monkeypatch.setattr(cls, "decide", counted(f"{cls.__name__}.decide", cls.decide))
    cfg = _box_cfg(n=5, m=11, b=2, trials=300, master_seed=1, ordering="random")
    assert run_trials(cfg, jobs=1).success_count == 300
    assert calls == {"play_box": 300, "Item": 0, "MinboxMaker.decide": 0,
                     "RandomStrategy.decide": 0}
    # The counters see the per-ball path when it runs.
    box_game.play_box(box_game.BoxConfig(n=2, m=3, b=1), engine.SlowTurns(box_game.MinboxMaker()),
                      engine.SlowTurns(engine.RandomStrategy(0.5, 1)), seed=1)
    assert calls["Item"] > 0 and calls["MinboxMaker.decide"] > 0
    assert calls["RandomStrategy.decide"] > 0


@pytest.mark.parametrize("trials", [64, 127, 250, 521])
def test_bulk_box_calls_keep_bulk_chunks_at_jobs_2(fresh_pool, monkeypatch, trials):
    """At jobs=2 every chunk of a call that plays in bulk holds at least
    ``_BOX_ROWS`` trials, so no game goes through ``play_box``: the pool is
    forked after it is replaced by one that refuses, and the export equals
    jobs=1's byte for byte."""
    cfg = _box_cfg(n=5, m=11, b=2, trials=trials, master_seed=1)
    serial, parallel = io.StringIO(), io.StringIO()
    export(run_trials(cfg, jobs=1), "json", serial)

    def refuse(*args, **kwargs):
        raise AssertionError("a box game was played per trial")

    monkeypatch.setattr(box_game, "play_box", refuse)
    export(run_trials(cfg, jobs=2), "json", parallel)
    assert parallel.getvalue() == serial.getvalue()


def test_bulk_box_trials_match_play_box_on_a_grid(monkeypatch):
    """Every n <= 4 and b <= 3, with m in {1, 2, b(n-1), b(n-1)+1, bn,
    bn+1}, so that both players win, against each take probability; blocks
    of 7 games."""
    monkeypatch.setattr(harness, "_BOX_ROWS", 1)
    tags = []
    try:
        for n in range(1, 5):
            for b in range(1, 4):
                for m in sorted({1, 2, b * (n - 1), b * (n - 1) + 1, b * n, b * n + 1} - {0}):
                    monkeypatch.setattr(harness, "_BLOCK", 7 * n * m)
                    for breaker in BOX_BULK_BREAKERS:
                        cfg = _box_cfg(n=n, m=m, b=b, trials=40, master_seed=n * 100 + m * 10 + b,
                                       breaker=breaker)
                        tags += _assert_chunk_matches_run_one_trial(cfg, 3, 30)
    finally:
        harness._build.cache_clear()
    assert "box-starved" in tags and None in tags


def test_bulk_box_trials_match_play_box_from_n_5():
    """n 5-8, b 2-5 and m <= 6, against the catalog's random (p = 1/2)
    Breaker, 200 games a config, and its always Breaker, whose games on an
    adversarial tape are all alike, in one block: the configs where the
    most Breaker balls in an uncovered box must be recounted after Maker
    covers the box that held them."""
    try:
        for n, b, m in itertools.product(range(5, 9), range(2, 6), range(1, 7)):
            for breaker, games in (("random", 200), ("always", harness._BOX_ROWS)):
                cfg = _box_cfg(n=n, m=m, b=b, trials=games, master_seed=n * 100 + b * 10 + m,
                               breaker=breaker)
                assert harness._build(cfg)[3][0] is not None
                _assert_chunk_matches_run_one_trial(cfg, 0, games)
    finally:
        harness._build.cache_clear()


@st.composite
def _box_bulk_cfgs(draw):
    """Adversarial min-box configs that ``_run_chunk`` plays in bulk, with
    m up to bn + 2, so that Breaker wins too."""
    n, b = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    master = draw(st.one_of(st.integers(-2**70, -1), st.integers(0, 2**64 - 1),
                            st.integers(2**64, 2**70)))
    return _box_cfg(n=n, b=b, m=draw(st.integers(1, b * n + 2)), master_seed=master,
                    breaker=draw(st.sampled_from(BOX_BULK_BREAKERS)))


@settings(max_examples=150, deadline=None)
@given(cfg=_box_bulk_cfgs(), start=st.integers(0, 40), count=st.integers(1, 12),
       rows=st.integers(1, 4), spare=st.integers(0, 1))
def test_bulk_box_chunk_equals_play_box_trial_by_trial(cfg, start, count, rows, spare):
    """Blocks of ``rows`` games, with ``_BLOCK`` exactly their balls or
    one ball more."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_BOX_ROWS", 1)
        mp.setattr(harness, "_BLOCK", rows * cfg.n * cfg.m + spare)
        try:
            assert harness._build(cfg)[3][0] is not None
            _assert_chunk_matches_run_one_trial(cfg, start, count)
        finally:
            harness._build.cache_clear()


# --------------------------------------------------------------------------
# both bulk blocks against the paper's numbers, through run_trials
# --------------------------------------------------------------------------


def _run_in_bulk(cfg):
    """``run_trials(cfg)``, after checking that its plan plays every chunk
    in bulk."""
    try:
        block, rows = harness._build(cfg)[3]
    finally:
        harness._build.cache_clear()
    assert block is not None and cfg.trials >= rows
    return run_trials(cfg, jobs=1)


def _threshold_cost(n):
    return item_game.expected_cost(breaker_closed_form(n), single_threshold_maker(n))


def _stopping_cost(n):
    return item_b0_dp(n).value


@pytest.mark.parametrize("maker, breaker, b, exact, n, trials", [
    ("single_threshold", "closed_form", 1, _threshold_cost, 10**4, 20_000),
    ("dp", "never", 0, _stopping_cost, 10**4, 20_000),
    ("single_threshold", "closed_form", 1, _threshold_cost, 10**5, 5_000),
    ("dp", "never", 0, _stopping_cost, 10**5, 5_000),
], ids=["single_threshold", "dp", "single_threshold-n1e5", "dp-n1e5"])
def test_bulk_item_mean_cost_matches_the_formula(maker, breaker, b, exact, n, trials):
    """The mean cost is within 4 standard errors of the exact value:
    Maker's threshold schedule against Breaker's closed-form best response
    (~4/n), and optimal stopping with no Breaker (~2/n)."""
    agg = _run_in_bulk(_cfg(n=n, b=b, trials=trials, master_seed=16, maker=maker,
                            breaker=breaker))
    assert agg.success_rate == 1.0
    assert abs(agg.mean_cost_all - exact(n)) <= 4.0 * agg.stderr


@pytest.mark.parametrize("breaker", ["cheap_grab", "mimic", "closed_form"])
@pytest.mark.parametrize("b", [10, 100])
def test_bulk_phased_trials_never_fail(b, breaker):
    """The b+1-phase plan secures an item against any Breaker of quota b."""
    agg = _run_in_bulk(_cfg(n=10**5, b=b, trials=10_000, master_seed=b, maker="phased",
                            breaker=breaker))
    assert agg.success_count == agg.trials


@pytest.mark.parametrize("target", [0, 1])
def test_bulk_phased_kernel_attempts_every_phase(target):
    """The b+1-phase plan at b = 1 against a Breaker whose one take is
    Maker's first hit in phase ``target``: it takes the positions priced at
    or under Maker's thresholds there and no others.  Maker wins only by
    attempting the other phase too, so a kernel that skips a phase's
    attempt loses these games.  The first 20 trials are the engine's."""
    n, trials = 10**4, 2000
    cfg = _cfg(n=n, b=1, trials=trials, master_seed=19, maker="phased")
    try:
        new_maker, _, play_trial, _ = harness._build(cfg)
        plan = new_maker(0).plan
        t, ends = plan.position_thresholds, plan.ends
        assert len(ends) == 2
        phase = np.searchsorted(ends, np.arange(1, n + 1))
        s = np.where(phase == target, t, -1.0)
        success, cost, unmet = harness._run_item_block(cfg, 0, trials, t, ends, s)
        assert success.all() and unmet == []
        for i in range(20):
            seed = mix_seed(cfg.master_seed, i)
            out = play_trial(seed, new_maker(mix_seed(seed, 101)), engine.ScheduleStrategy(s))
            assert out.success and out.maker_cost.hex() == cost[i].hex(), i
            assert len(out.breaker_positions) == 1 and phase[out.M - 1] != target, i
    finally:
        harness._build.cache_clear()


@pytest.mark.parametrize("breaker", BOX_BULK_BREAKERS)
def test_bulk_minbox_wins_every_game_from_bn_plus_1(breaker):
    """With m = bn + 1 balls per box, the min-box Maker wins against every
    ordering and every Breaker."""
    for n, b in itertools.product((1, 2, 3, 5), (1, 2, 3)):
        cfg = _box_cfg(n=n, b=b, m=box_game.box_threshold(n, b), trials=1000,
                       master_seed=n * 10 + b, breaker=breaker)
        assert _run_in_bulk(cfg).success_count == cfg.trials, cfg


# --------------------------------------------------------------------------
# confidence intervals
# --------------------------------------------------------------------------


def test_ci_requires_two_trials():
    agg = run_trials(_cfg(trials=1))
    with pytest.raises(ValueError):
        confidence_interval(agg, 0.95)


def test_ci_zero_variance_degenerate():
    agg = TrialAggregate(trials=10, success_count=10, sum_cost=5.0,
                         sumsq_cost=2.5, sum_cost_success=5.0, min_cost=0.5,
                         max_cost=0.5, failure_histogram={},
                         config_string="x", master_seed=0)
    lo, hi = confidence_interval(agg, 0.95)
    assert lo == hi == 0.5


def test_ci_level_multiplier_and_widening():
    agg = run_trials(_cfg())
    lo95, hi95 = confidence_interval(agg, 0.95)
    lo99, hi99 = confidence_interval(agg, 0.99)
    assert lo99 < lo95 and hi95 < hi99
    half = (hi95 - lo95) / 2.0
    assert half == pytest.approx(1.959964 * agg.stderr, rel=1e-5)


# --------------------------------------------------------------------------
# export
# --------------------------------------------------------------------------


def test_json_roundtrip_exact():
    agg = run_trials(_cfg())
    buf = io.StringIO()
    export(agg, "json", buf)
    parsed = json.loads(buf.getvalue())
    assert parsed["trials"] == agg.trials
    assert parsed["success_rate"] == agg.success_rate
    assert parsed["mean_cost_all"] == agg.mean_cost_all
    assert parsed["stderr"] == agg.stderr
    assert parsed["seed"] == agg.master_seed
    assert parsed["config"] == agg.config_string


def test_csv_column_order():
    agg = run_trials(_cfg())
    buf = io.StringIO()
    export(agg, "csv", buf)
    header, row = buf.getvalue().strip().split("\n")
    assert header == ("config,trials,success_rate,mean_cost_all,"
                      "mean_cost_success,stderr,ci95_low,ci95_high,seed,histogram")
    cells = row.split(",")
    assert float(cells[3]) == agg.mean_cost_all  # 17 digits round-trips


def test_export_to_file(tmp_path):
    agg = run_trials(_cfg(trials=10))
    for path in (str(tmp_path / "as_str.json"), tmp_path / "as_path.json"):
        export(agg, "json", path)
        with open(path) as fh:
            assert json.load(fh)["trials"] == 10
        with pytest.raises(OSError, match="cannot write export to"):
            export(agg, "json", type(path)(tmp_path / "missing" / "agg.json"))


def test_export_unknown_format():
    agg = run_trials(_cfg(trials=10))
    with pytest.raises(ValueError):
        export(agg, "xml", io.StringIO())


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def test_cli_item_smoke(capsys):
    code = cli_main(["item", "--n", "100", "--b", "1", "--trials", "200",
                     "--seed", "7", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 200
    assert payload["success_rate"] == 1.0


def test_cli_oracle_box(capsys):
    code = cli_main(["oracle", "box", "--n", "2", "--b", "1", "--m", "3"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["winner"] == "maker"


def test_cli_schedules_matches_closed_form(capsys):
    code = cli_main(["schedules", "--n", "10", "--b", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 11
    maker = single_threshold_maker(10)
    breaker = breaker_closed_form(10)
    for i, line in enumerate(lines[1:]):
        pos, mval, bval = line.split()
        assert int(pos) == i + 1
        assert float(mval) == maker.values[i]
        assert float(bval) == breaker.values[i]


def test_cli_unknown_flag_exits_1(capsys):
    assert cli_main(["item", "--n", "10", "--frobnicate"]) == 1


def test_cli_bad_config_exits_1(capsys):
    assert cli_main(["item", "--n", "10", "--maker", "nope", "--trials", "5"]) == 1


@pytest.mark.parametrize("argv", [
    ["path", "--n", "30", "--override-scale", "-1"],
    ["path", "--n", "30", "--override-scale", "nan"],
    ["path", "--n", "30", "--override-scale", "inf"],
    ["box", "--n", "3", "--m", "4", "--eps", "0"],
    ["box", "--n", "3", "--m", "4", "--eps", "1"],
    ["box", "--n", "0", "--m", "3"],
    ["item", "--n", "0"],
    ["item", "--n", "0", "--maker", "always", "--breaker", "never"],
    ["clique", "--n", "1"],
    ["clique", "--n", "2", "--k", "3", "--maker", "triangle"],
    ["item", "--n", "10", "--seed", "-1"],  # the library would reduce a seed mod 2**64
    ["item", "--n", "10", "--seed", str(2**64)],
    ["clique", "--n", "30", "--k", "4", "--maker", "triangle"],  # a triangle needs k=3
])
def test_cli_bad_game_parameter_exits_1(capsys, argv):
    for trials in ("0", "2"):  # a run with no trials checks the game as well
        assert cli_main(argv + ["--trials", trials]) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_cli_accepts_the_largest_64_bit_seed(capsys):
    assert cli_main(["item", "--n", "10", "--trials", "2", "--seed", str(2**64 - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2**64 - 1


def test_cli_assert_mode_exit_codes(capsys):
    ok = cli_main(["item", "--n", "100", "--trials", "100", "--seed", "3",
                   "--assert-min-success", "0.5"])
    assert ok == 0
    bad = cli_main(["item", "--n", "100", "--trials", "100", "--seed", "3",
                    "--assert-max-mean-cost", "0.0000001"])
    assert bad == 2


def test_cli_out_file(tmp_path, capsys):
    path = str(tmp_path / "out.json")
    code = cli_main(["item", "--n", "50", "--trials", "50", "--seed", "1",
                     "--out", path])
    assert code == 0
    with open(path) as fh:
        assert json.load(fh)["trials"] == 50


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "purchase_games.cli", "oracle", "item-dp", "--n", "100"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["inputs"]["n"] == 100
    assert 0 < rec["value"] < 1


def test_cli_parallel_run_exits_with_the_serial_bytes():
    """The idle worker pool must not hold up interpreter exit."""
    def cli(jobs):
        return subprocess.run(
            [sys.executable, "-m", "purchase_games.cli", "item", "--n", "200",
             "--trials", "2000", "--seed", "7", "--jobs", str(jobs)],
            capture_output=True, timeout=120)

    parallel, serial = cli(2), cli(1)
    assert parallel.returncode == 0 and serial.returncode == 0
    assert parallel.stdout == serial.stdout


def test_pg_jobs_env_default(monkeypatch):
    monkeypatch.setenv("PG_JOBS", "2")
    cfg = _cfg(trials=64, jobs=0)
    a_env = run_trials(cfg)          # picks up PG_JOBS=2
    a_one = run_trials(cfg, jobs=1)
    assert a_env == a_one


def test_negative_jobs_rejected(monkeypatch, capsys):
    with pytest.raises(ValueError, match="jobs must be >= 0"):
        run_trials(_cfg(trials=3), jobs=-1)
    with pytest.raises(ValueError, match="jobs must be >= 0"):
        run_trials(_cfg(trials=3, jobs=-2))
    monkeypatch.setenv("PG_JOBS", "-1")
    with pytest.raises(ValueError, match="jobs must be >= 0"):
        run_trials(_cfg(trials=3, jobs=0))
    monkeypatch.delenv("PG_JOBS")
    assert cli_main(["item", "--n", "200", "--trials", "3", "--jobs", "-1"]) == 1
    assert "jobs must be >= 0" in capsys.readouterr().err


def test_pg_jobs_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("PG_JOBS", "abc")
    with pytest.raises(ValueError) as err:
        run_trials(_cfg(trials=3, jobs=0))
    assert str(err.value) == "PG_JOBS must be an integer, got 'abc'"
    assert run_trials(_cfg(trials=3, jobs=1)).trials == 3  # an explicit count wins
    assert cli_main(["item", "--n", "20", "--trials", "3"]) == 1
    assert "PG_JOBS must be an integer, got 'abc'" in capsys.readouterr().err


def test_cli_schedules_out_file(tmp_path, capsys):
    path = tmp_path / "schedules.txt"
    assert cli_main(["schedules", "--n", "5", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text().splitlines()[0] == "position maker_threshold breaker_threshold"
