"""The benchmark's fixed trial configs and the workloads that group them.

Each config is one ``TrialConfig`` (without trials and seed) plus the number
of trials per ``run_trials`` call.  A workload runs its configs round-robin,
one call per config per round, as a closed loop: one caller, and the next
call starts when the previous one has returned.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

# Master seed of the warm-up calls, whose export digests are pinned in
# pins.json; they do not depend on --seed.
PIN_SEED = 1


@dataclass(frozen=True)
class Config:
    name: str
    params: dict               # TrialConfig fields other than trials and seed
    trials: int                # trials per run_trials call
    jobs: int = 1
    always_wins: bool = False  # Maker wins every trial, by a proven guarantee

    def serial_twin(self) -> "Config":
        """The same calls at jobs=1, which must export the same bytes."""
        return dataclasses.replace(self, name=f"{self.name}.jobs1", jobs=1)


_ITEM_N200 = dict(game="item", n=200, b=1, maker="single_threshold", breaker="closed_form")
_BOX_N5 = dict(game="box", n=5, b=2, m=11, maker="minbox", breaker="random")

CONFIGS = {c.name: c for c in [
    Config("item_n200", _ITEM_N200, trials=500),
    # b = 0: Breaker never moves and the stopping rule's last threshold is 1.
    Config("item_dp_n1e4", dict(game="item", n=10**4, b=0, maker="dp", breaker="never"),
           trials=25, always_wins=True),
    # The phased plan secures an item against any Breaker.
    Config("item_phased_n1e5",
           dict(game="item", n=10**5, b=10, maker="phased", breaker="cheap_grab"),
           trials=20, always_wins=True),
    # m = bn + 1: the min-box Maker wins against every ordering.
    Config("box_n5", dict(_BOX_N5, ordering="random"), trials=300, always_wins=True),
    Config("box_n5_adversarial", dict(_BOX_N5, ordering="adversarial"), trials=250,
           always_wins=True),
    Config("triangle_n3000",
           dict(game="clique", n=3000, b=3, maker="triangle", breaker="mimic"),
           trials=1),
    Config("path_n2000",
           dict(game="path", n=2000, b=1, k=1, override_scale=20.0, maker="path",
                breaker="cheap_grab"),
           trials=2),
    # m <= (1 - eps) b n with b >= b0: meant to be a Breaker win.
    Config("box_n20",
           dict(game="box", n=20, b=1600, m=16000, maker="minbox", breaker="focus",
                ordering="random"),
           trials=1),
    Config("item_n200_jobs2", _ITEM_N200, trials=2000, jobs=2),
]}


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple
    why: str
    calibration: str = "interpreter"  # the kind of work its time is scaled by


WORKLOADS = {w.name: w for w in [
    Workload("short-trials",
             ("item_n200", "item_dp_n1e4", "item_phased_n1e5", "box_n5",
              "box_n5_adversarial"),
             "sub-5-ms trials, where per-trial harness overhead, per-config rebuilds "
             "and the unused label permutation dominate"),
    Workload("edge-games", ("triangle_n3000", "path_n2000"),
             "market construction on million-edge streams: permutation, edge "
             "endpoints, edge labels and the candidate scanner",
             calibration="arrays"),
    Workload("box-scan", ("box_n20",),
             "the per-ball Python min-box loop, with market and harness under "
             "1% of each game"),
    Workload("fanout", ("item_n200_jobs2",),
             "the process-pool fan-out of run_trials at jobs=2 on the item-200 config"),
]}
