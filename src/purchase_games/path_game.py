"""Maker strategy connecting two fixed vertices by purchased edges.

The stream is the edge set of K_n under a 3k-phase restriction with
k = ceil(ln ln n).  Phases 1..k grow a tree T from u: during phase i Maker
takes any edge priced at most (b+1) p joining the phase-start tree to a new
vertex, until ((1-eps) n p / 3k)^i new vertices have been added, where
p = n^(-1+1/(3k)) and eps = n^(-1/(9k)).  Phases k+1..2k grow T' from v the
same way, and the last k phases are one logical stage: take the first edge
between the two trees priced at most (b+1) ln^2 n / (|T| |T'|).  Maker wins
as soon as its edges connect u to v (which can happen early, if the trees
grow into each other).

The asymptotic regime needs astronomically large n (the branching factor
(1-eps) n p / 3k stays below 1 at any desk-scale n with the default k), so
the plan accepts explicit overrides: a forced k and a threshold scale
factor, both echoed in the plan dump.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .engine import (
    Goal,
    Item,
    PhaseBounds,
    ScheduleStrategy,
    StagedScanner,
    View,
    phase_ends,
)

__all__ = [
    "PathPlan",
    "path_plan",
    "PathGoal",
    "TreeState",
    "PathMaker",
    "path_maker",
    "path_mimic_breaker",
]


@dataclass(frozen=True)
class PathPlan(PhaseBounds):
    """Constants of the two-tree path strategy; thresholds carry the override
    scale so every consumer sees the effective values."""

    n: int
    b: int
    k: int
    p_edge: float
    eps: float
    growth_threshold: float        # scale * (b+1) * p_edge
    tree_targets: np.ndarray       # real-valued branching^i, i = 1..k
    int_targets: np.ndarray        # floor of the above, the per-phase quotas
    connect_numerator: float       # scale * (b+1) * ln^2 n
    scale: float
    k_overridden: bool
    degenerate: bool
    edge_count: int
    ends: np.ndarray               # engine phase ends (3k phases)

    @property
    def branching(self) -> float:
        return float(self.tree_targets[0])

    def connect_threshold(self, tree_size: int, tree2_size: int) -> float:
        return self.connect_numerator / (tree_size * tree2_size)

    def dump_text(self) -> str:
        lines = [
            f"n: {self.n}",
            f"b: {self.b}",
            f"k: {self.k}",
            f"k_overridden: {self.k_overridden}",
            f"threshold_scale: {self.scale:.17g}",
            f"p_edge: {self.p_edge:.17g}",
            f"eps: {self.eps:.17g}",
            f"growth_threshold: {self.growth_threshold:.17g}",
            f"connect_numerator: {self.connect_numerator:.17g}",
            "tree_targets: " + ",".join(f"{x:.17g}" for x in self.tree_targets),
            "int_targets: " + ",".join(str(int(x)) for x in self.int_targets),
            f"degenerate: {self.degenerate}",
        ]
        return "\n".join(lines) + "\n"


def path_plan(n: int, b: int, k_override: Optional[int] = None,
              threshold_scale: float = 1.0) -> PathPlan:
    """Build the path plan.  Without overrides, k = ceil(ln ln n).

    A plan whose branching factor is at most 1 cannot grow trees; it is still
    returned fully populated (so its constants can be inspected) but flagged
    degenerate, with a warning when no override was given.  Constructing a
    strategy from a degenerate, un-overridden plan raises.  A
    ``threshold_scale`` that is not positive and finite raises ValueError.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not 0.0 < threshold_scale < math.inf:
        raise ValueError(f"threshold_scale must be positive and finite, got {threshold_scale}")
    overridden = k_override is not None or threshold_scale != 1.0
    k = k_override if k_override is not None else math.ceil(math.log(math.log(n)))
    if k < 1:
        raise ValueError("k must be >= 1")
    if b > n ** (1.0 - 1.0 / k):
        warnings.warn(f"b={b} exceeds n^(1-1/k)={n ** (1.0 - 1.0 / k):.3g}; "
                      "the guarantee degrades", stacklevel=2)
    p = float(n) ** (-1.0 + 1.0 / (3.0 * k))
    eps = float(n) ** (-1.0 / (9.0 * k))
    if (b + 1) * p > 1.0:
        raise ValueError(f"(b+1)p = {(b + 1) * p:.3g} > 1: quota too large for this n")
    branching = (1.0 - eps) * n * p / (3.0 * k)
    targets = branching ** np.arange(1, k + 1, dtype=float)
    degenerate = branching <= 1.0
    if degenerate and not overridden:
        warnings.warn(
            f"asymptotic regime unreachable at this n: branching factor "
            f"{branching:.3g} <= 1; pass k_override/threshold_scale for desk-scale play",
            stacklevel=2,
        )
    edge_count = n * (n - 1) // 2
    return PathPlan(
        n=n,
        b=b,
        k=k,
        p_edge=p,
        eps=eps,
        growth_threshold=threshold_scale * (b + 1) * p,
        tree_targets=targets,
        int_targets=np.floor(targets).astype(np.int64),
        connect_numerator=threshold_scale * (b + 1) * math.log(n) ** 2,
        scale=threshold_scale,
        k_overridden=k_override is not None,
        degenerate=degenerate,
        edge_count=edge_count,
        ends=phase_ends(edge_count, 3 * k),
    )


class PathGoal(Goal):
    """Union-find connectivity between the two terminals over Maker's edges."""

    def __init__(self, u: int, v: int):
        self.u = u
        self.v = v
        self._parent: dict = {}

    def _find(self, x):
        parent = self._parent
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def on_maker_take(self, label) -> bool:
        a, b = label
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[ra] = rb
        return self._find(self.u) == self._find(self.v)


@dataclass
class TreeState:
    """Parent maps of the two purchased trees."""

    root_t: int
    root_tp: int
    parent_t: dict = field(default_factory=dict)
    parent_tp: dict = field(default_factory=dict)


class PathMaker(StagedScanner):
    """Two-tree growth Maker; see the module docstring for the schedule."""

    def __init__(self, plan: PathPlan, u: int = 0, v: int = 1):
        if u == v:
            raise ValueError("terminals must differ")
        if plan.degenerate and not (plan.k_overridden or plan.scale != 1.0):
            raise ValueError(
                "asymptotic regime unreachable at this n: the plan is "
                "degenerate; pass overrides to path_plan for desk-scale play"
            )
        self.plan = plan
        self.ends = plan.ends
        self.u = u
        self.v = v
        self._reset()

    def _reset(self):
        plan = self.plan
        self.trees = TreeState(root_t=self.u, root_tp=self.v)
        self._in_t = np.zeros(plan.n, dtype=bool)
        self._in_tp = np.zeros(plan.n, dtype=bool)
        self._in_t[self.u] = True
        self._in_tp[self.v] = True
        self.failure_phase: Optional[int] = None
        self._connect_thr: Optional[float] = None

    # -- phase bookkeeping ----------------------------------------------------

    def _growing(self) -> bool:
        return self._phase <= 2 * self.plan.k

    def _enter_phase(self, phase: int, revealed: int) -> None:
        plan = self.plan
        if not self._growing():
            # The trees stop changing once growth ends, so each connect
            # phase recomputes the same threshold.
            t_size = int(self._in_t.sum())
            tp_size = int(self._in_tp.sum())
            self._connect_thr = plan.connect_threshold(t_size, tp_size)
            self._stage = (self._in_t, self._in_tp, self._connect_thr, math.inf)
            return
        self._own, self._parents = ((self._in_t, self.trees.parent_t) if phase <= plan.k
                                    else (self._in_tp, self.trees.parent_tp))
        self._prev_mask = prev = self._own.copy()
        self._stage = (prev, ~prev, plan.growth_threshold,
                       int(plan.int_targets[(phase - 1) % plan.k]))

    def _close_phase(self, phase: int) -> None:
        if self._growing() and self._taken < self._stage[3]:
            self.failure_phase = phase

    def _admit(self, view: View, item: Item) -> bool:
        """A growth edge must also reach a vertex the tree has not taken
        in this phase; its new end gets its parent."""
        if not self._growing():
            return True
        a, b = item.label
        attach, new = (a, b) if self._prev_mask[a] else (b, a)
        if self._own[new]:
            return False
        self._own[new] = True
        self._parents[new] = attach
        return True

    # Bound in the class body, not only inherited, so that perfbench/tracer.py
    # can wrap this class's own decide and play_turn.
    decide = StagedScanner.decide
    play_turn = StagedScanner.play_turn


def path_maker(plan: PathPlan, u: int = 0, v: int = 1) -> PathMaker:
    return PathMaker(plan, u, v)


def path_mimic_breaker(plan: PathPlan) -> ScheduleStrategy:
    """Generic adversary pricing every edge at the plan's growth bar."""
    return ScheduleStrategy(min(1.0, plan.growth_threshold))
