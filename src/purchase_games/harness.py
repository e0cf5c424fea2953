"""Monte Carlo trial runner and statistics aggregation.

A TrialConfig names a game, a Maker and a Breaker from the strategy catalog,
and all game parameters; ``run_trials`` executes the trials with per-trial
seeds derived from the master seed by a fixed 64-bit mix, optionally fanned
out across processes.  Aggregation is exact and order-independent: per-trial
results are gathered in trial-index order and reduced with correctly rounded
summation, so a run with ``jobs=8`` is bitwise identical to ``jobs=1``.

Everything about a config that is the same in each trial (threshold
schedules, the stopping DP, the phase and game plans, the rules) is built
once per ``run_trials`` call in each process; a trial only makes fresh
strategies and its market.
"""

from __future__ import annotations

import functools
import json
import math
import os
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
    ScheduleStrategy,
    generate_market,
    mix_seed,
    play,
)
from .oracle import item_b0_dp

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


_random = functools.partial(RandomStrategy, 0.5)  # per-trial factory: seed -> strategy


def _triangle_maker(cfg: TrialConfig):
    clique_game.triangle_maker_unrestricted(cfg.n, cfg.b)  # its regime warning, once
    return _fresh(clique_game.TriangleMaker, cfg.n, cfg.b)


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
            "always": lambda cfg: _fresh(AlwaysTake),
            "random": lambda cfg: _random,
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
            "random": lambda cfg: _random,
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
            "never": lambda cfg: _fresh(NeverTake),
            "always": lambda cfg: _fresh(AlwaysTake),
            "random": lambda cfg: _random,
        }
    if game == "clique":
        return {
            "mimic": lambda cfg: _fresh(ScheduleStrategy, (
                clique_game.triangle_mimic_breaker(cfg.n, cfg.b)
                if _clique_k(cfg) == 3 and cfg.phases <= 1
                else clique_game.plan_mimic_breaker(
                    clique_game.clique_plan(cfg.n, cfg.b, _clique_k(cfg)))).values),
            "cheap_grab": lambda cfg: _fresh(item_game.cheap_grab_breaker,
                                             _edge_stream_length(cfg), max(1, cfg.b)),
            "never": lambda cfg: _fresh(NeverTake),
            "random": lambda cfg: _random,
        }
    if game == "path":
        return {
            "mimic": lambda cfg: _fresh(path_game.path_mimic_breaker, _path_plan(cfg)),
            "cheap_grab": lambda cfg: _fresh(item_game.cheap_grab_breaker,
                                             _edge_stream_length(cfg), max(1, cfg.b)),
            "never": lambda cfg: _fresh(NeverTake),
            "random": lambda cfg: _random,
        }
    if game == "box":
        return {
            "focus": lambda cfg: _fresh(box_game.FocusBreaker),
            "never": lambda cfg: _fresh(NeverTake),
            "always": lambda cfg: _fresh(AlwaysTake),
            "random": lambda cfg: _random,
        }
    raise ValueError(f"unknown game {game!r}")


def _resolve(cfg: TrialConfig):
    makers = maker_catalog(cfg.game)
    breakers = breaker_catalog(cfg.game)
    if cfg.maker not in makers:
        raise ValueError(
            f"unknown maker {cfg.maker!r} for {cfg.game}; catalog: {sorted(makers)}")
    if cfg.breaker not in breakers:
        raise ValueError(
            f"unknown breaker {cfg.breaker!r} for {cfg.game}; catalog: {sorted(breakers)}")
    return makers[cfg.maker], breakers[cfg.breaker]


def _game(cfg: TrialConfig):
    """The config's rules and stream shape; returns the per-trial game
    ``(seed, maker, breaker) -> Outcome``."""
    if cfg.game == "item":
        rules = GameRules(b=cfg.b, phase_count=cfg.phases, goal=OwnAnyItem)
        return lambda seed, maker, breaker: play(
            generate_market(cfg.n, seed), rules, maker, breaker, seed_record=seed)
    if cfg.game == "clique":
        k = _clique_k(cfg)
        stream = _edge_stream_length(cfg)
        phases = cfg.phases if cfg.maker == "triangle" else k
        rules = GameRules(b=cfg.b, phase_count=phases,
                          goal=functools.partial(clique_game.CliqueGoal, k))
        return lambda seed, maker, breaker: play(
            generate_market(stream, seed, EdgeLabels(cfg.n)), rules, maker, breaker,
            seed_record=seed)
    if cfg.game == "path":
        plan = _path_plan(cfg)
        rules = GameRules(b=cfg.b, phase_count=plan.phase_count,
                          goal=functools.partial(path_game.PathGoal, 0, 1))
        return lambda seed, maker, breaker: play(
            generate_market(plan.edge_count, seed, EdgeLabels(cfg.n)), rules, maker, breaker,
            seed_record=seed)
    if cfg.game == "box":
        if cfg.m is None:
            raise ValueError("box game needs m (balls per box)")
        box_cfg = box_game.BoxConfig(n=cfg.n, m=cfg.m, b=cfg.b,
                                     ordering=cfg.ordering, eps=cfg.eps)
        return lambda seed, maker, breaker: box_game.play_box(box_cfg, maker, breaker,
                                                              seed=seed)
    raise ValueError(f"unknown game {cfg.game!r}")


@functools.lru_cache(maxsize=1)
def _build(cfg: TrialConfig):
    """The config's per-trial factories (maker, breaker, game), built once.
    ``run_trials`` drops the build when it returns; edge labels and markets
    are made per trial and never kept here."""
    make_maker, make_breaker = _resolve(cfg)
    return make_maker(cfg), make_breaker(cfg), _game(cfg)


# --------------------------------------------------------------------------
# Trial execution
# --------------------------------------------------------------------------


def run_one_trial(cfg: TrialConfig, index: int):
    """Run trial ``index``: returns (success, maker_cost, failure_tag)."""
    seed = mix_seed(cfg.master_seed, index)
    new_maker, new_breaker, play_trial = _build(cfg)
    out = play_trial(seed, new_maker(mix_seed(seed, 101)), new_breaker(mix_seed(seed, 102)))
    tag = None if out.success else str(out.failure_phase or "unmet")
    return out.success, out.maker_cost, tag


def _run_chunk(cfg: TrialConfig, start: int, count: int):
    success = np.zeros(count, dtype=bool)
    cost = np.zeros(count, dtype=np.float64)
    tags: list = []
    for i in range(count):
        s, c, tag = run_one_trial(cfg, start + i)
        success[i] = s
        cost[i] = c
        if tag is not None:
            tags.append(tag)
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


def run_trials(config: TrialConfig, jobs: Optional[int] = None) -> TrialAggregate:
    """Execute all trials and aggregate.  ``jobs`` defaults to the config's,
    which defaults to the PG_JOBS environment variable, then 1.  Results are
    reduced in trial-index order with exact summation, so the aggregate does
    not depend on the worker count."""
    if jobs is None:
        jobs = config.jobs or int(os.environ.get("PG_JOBS", "1"))
    trials = config.trials
    if trials < 0:
        raise ValueError("trials must be >= 0")
    _resolve(config)  # fail fast on unknown strategy names

    try:
        if trials == 0:
            chunks = []
        elif jobs <= 1:
            chunks = [_run_chunk(config, 0, trials)]
        else:
            chunk_size = max(1, math.ceil(trials / (jobs * 4)))
            spans = [(start, min(chunk_size, trials - start))
                     for start in range(0, trials, chunk_size)]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(_run_chunk, config, start, count)
                           for start, count in spans]
                chunks = [f.result() for f in futures]
    finally:
        _build.cache_clear()  # the config's build lives as long as this call

    if chunks:
        success = np.concatenate([c[0] for c in chunks])
        cost = np.concatenate([c[1] for c in chunks])
        tags = [t for c in chunks for t in c[2]]
    else:
        success = np.zeros(0, dtype=bool)
        cost = np.zeros(0)
        tags = []

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
    close = False
    if isinstance(destination, (str, bytes)):
        try:
            destination = open(destination, "w")
        except OSError as exc:
            raise OSError(f"cannot write export to {exc.filename}: {exc}") from exc
        close = True
    try:
        payload = _payload(agg)
        if fmt == "json":
            destination.write(json.dumps(payload, sort_keys=True))
            destination.write("\n")
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
            destination.write(",".join(_CSV_COLUMNS) + "\n")
            destination.write(",".join(fmt_val(c) for c in _CSV_COLUMNS) + "\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    finally:
        if close:
            destination.close()
