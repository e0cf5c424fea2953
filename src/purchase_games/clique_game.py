"""Maker strategies for purchasing a triangle or a k-clique from the edge
stream of a complete graph.

The unrestricted triangle strategy builds a star at a fixed root from cheap
edges in the first half of the stream, then closes a triangle inside the
leaf set during the second half.

The k-phase-restricted k-clique strategy nests stars for the first k-3
phases (each star rooted inside the previous star's leaves, so the roots
form a clique with a large common neighborhood L), collects cheap edges
inside L during phase k-2 and extracts a matching from them, takes edges
adjacent to the matching during phase k-1 whose triangle-closing edge is
still unrevealed, and finally plays the phased item-game strategy over the
registered closing candidates in phase k.

The driving exponents: alpha_k = 1/(11 * 2^(k-5) - 1), r = n^(-alpha_k), and
the nested star sizes ell_i = r * (n/r)^(2^-i), which satisfy
ell_i^2 / ell_{i-1} = r = ell_{k-3}^(-4/7) exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .engine import (
    UNOWNED,
    Goal,
    Item,
    Market,
    PhaseBounds,
    ScheduleStrategy,
    StagedScanner,
    View,
    phase_ends,
)
from .item_game import phase_plan

__all__ = [
    "alpha_k",
    "CliquePlan",
    "clique_plan",
    "CliqueGoal",
    "CliqueProgress",
    "extract_matching",
    "TriangleMaker",
    "triangle_maker_unrestricted",
    "triangle_mimic_breaker",
    "KCliqueMaker",
    "kclique_maker",
    "plan_mimic_breaker",
]


def alpha_k(k: int) -> float:
    """Cost exponent for the k-clique game: 1/(11 * 2^(k-5) - 1); 4/7 at
    k = 3, matching the known optimal triangle exponent."""
    if k < 3:
        raise ValueError("clique order k must be >= 3")
    return 1.0 / (11.0 * 2.0 ** (k - 5) - 1.0)


@dataclass(frozen=True)
class CliquePlan(PhaseBounds):
    """All constants of the k-phase k-clique strategy on K_n at quota b.

    star_thresholds[i-1] prices phase-i star edges at 10k(b+1) ell_i/ell_{i-1};
    the matching phase pays up to 10k(b+1) ell^(-9/7) per edge and collects
    ceil(2 ell^(5/7)) of them; extensions pay 5(b+1)k^2 ell^(-8/7) and stop at
    ceil(ell^(4/7)) registered closing candidates, where ell = ell_{k-3}.
    Thresholds above 1 simply mean "take anything" (costs live in [0, 1]).
    """

    k: int
    n: int
    b: int
    alpha: float
    r: float
    ells: np.ndarray               # ell_0 .. ell_{k-3}
    star_thresholds: np.ndarray    # phases 1 .. k-3
    matching_threshold: float
    extend_threshold: float
    star_targets: np.ndarray       # ceil(ell_i), phases 1 .. k-3
    target_collect: int
    target_matching: int
    target_closing: int
    edge_count: int
    ends: np.ndarray               # engine phase ends over the edge stream

    @property
    def ell(self) -> float:
        return float(self.ells[-1])

    @property
    def phase_count(self) -> int:
        return self.k

    def identity_residuals(self) -> tuple[float, float]:
        """Relative errors of ell_i^2/ell_{i-1} = r and r = ell^(-4/7)."""
        worst = 0.0
        for i in range(1, len(self.ells)):
            ratio = self.ells[i] ** 2 / self.ells[i - 1]
            worst = max(worst, abs(ratio / self.r - 1.0))
        closing = abs(self.r * self.ell ** (4.0 / 7.0) - 1.0)
        return worst, closing

    def feasibility_report(self) -> dict:
        """Dry-run legality summary: which thresholds are genuine filters
        (below 1) and whether every target count is attainable in principle."""
        stars = self.star_thresholds
        report = {
            "k": self.k,
            "n": self.n,
            "b": self.b,
            "star_thresholds_below_one": [bool(t <= 1.0) for t in stars],
            "matching_threshold_below_one": bool(self.matching_threshold <= 1.0),
            "extend_threshold_below_one": bool(self.extend_threshold <= 1.0),
            "all_thresholds_positive": bool(
                np.all(stars > 0) and self.matching_threshold > 0 and self.extend_threshold > 0
            ),
            "star_targets": self.star_targets.tolist(),
            "targets_feasible": True,
        }
        avail = self.n - 1
        for t in self.star_targets.tolist():
            if t < 1 or t > avail:
                report["targets_feasible"] = False
            avail = t - 1
        if self.target_matching < 1 or self.target_closing < 1:
            report["targets_feasible"] = False
        last = int(self.star_targets[-1]) if len(self.star_targets) else self.n
        if self.target_collect > last * (last - 1) // 2:
            report["targets_feasible"] = False
        return report

    def dump_text(self) -> str:
        lines = [
            f"k: {self.k}",
            f"n: {self.n}",
            f"b: {self.b}",
            f"alpha_k: {self.alpha:.17g}",
            f"r: {self.r:.17g}",
            "ells: " + ",".join(f"{x:.17g}" for x in self.ells),
            "star_thresholds: " + ",".join(f"{x:.17g}" for x in self.star_thresholds),
            f"matching_threshold: {self.matching_threshold:.17g}",
            f"extend_threshold: {self.extend_threshold:.17g}",
            "star_targets: " + ",".join(str(int(x)) for x in self.star_targets),
            f"target_collect: {self.target_collect}",
            f"target_matching: {self.target_matching}",
            f"target_closing: {self.target_closing}",
        ]
        return "\n".join(lines) + "\n"


def clique_plan(n: int, b: int, k: int) -> CliquePlan:
    """Populate a CliquePlan for the k-clique game on K_n at quota b.

    Warns when b is outside the regime b = o(n^(11 alpha_k / 4)) where the
    cost guarantee holds; the plan is still produced.
    """
    if k < 3:
        raise ValueError("clique order k must be >= 3")
    if n < k:
        raise ValueError(f"need at least k={k} vertices")
    a = alpha_k(k)
    if b > n ** (11.0 * a / 4.0):
        warnings.warn(
            f"b={b} is outside the guaranteed regime b = o(n^(11 alpha_k/4)) "
            f"= o(n^{11.0 * a / 4.0:.3g})",
            stacklevel=2,
        )
    r = float(n) ** (-a)
    i = np.arange(0, k - 2)  # 0 .. k-3
    ells = r * (n / r) ** (2.0 ** (-i.astype(float)))
    ell = float(ells[-1])
    star_thresholds = np.array(
        [10.0 * k * (b + 1) * ells[j] / ells[j - 1] for j in range(1, k - 2)]
    )
    star_targets = np.ceil(ells[1:]).astype(np.int64)
    edge_count = n * (n - 1) // 2
    return CliquePlan(
        k=k,
        n=n,
        b=b,
        alpha=a,
        r=r,
        ells=ells,
        star_thresholds=star_thresholds,
        matching_threshold=10.0 * k * (b + 1) * ell ** (-9.0 / 7.0),
        extend_threshold=5.0 * (b + 1) * k * k * ell ** (-8.0 / 7.0),
        star_targets=star_targets,
        target_collect=math.ceil(2.0 * ell ** (5.0 / 7.0)),
        target_matching=math.ceil(ell ** (5.0 / 7.0)),
        target_closing=math.ceil(ell ** (4.0 / 7.0)),
        edge_count=edge_count,
        ends=phase_ends(edge_count, k),
    )


# --------------------------------------------------------------------------
# Goal and helpers
# --------------------------------------------------------------------------


class CliqueGoal(Goal):
    """Incremental detection of a k-clique among Maker's edges: after adding
    (u, v), a k-clique through that edge exists iff the common neighborhood
    of u and v contains a (k-2)-clique."""

    def __init__(self, k: int):
        if k < 3:
            raise ValueError("k must be >= 3")
        self.k = k
        self.adj: dict = {}

    def start(self, market: Market) -> None:
        self.adj = {}

    def _has_clique(self, cands: frozenset, size: int) -> bool:
        if size == 0:
            return True
        if len(cands) < size:
            return False
        for v in sorted(cands):
            deeper = frozenset(w for w in cands if w > v and w in self.adj[v])
            if self._has_clique(deeper, size - 1):
                return True
        return False

    def on_maker_take(self, label) -> bool:
        u, v = label
        au = self.adj.setdefault(u, set())
        av = self.adj.setdefault(v, set())
        common = au & av
        found = False
        if len(common) >= self.k - 2:
            found = self.k == 3 or self._has_clique(frozenset(common), self.k - 2)
        au.add(v)
        av.add(u)
        return found


def extract_matching(edges: Sequence[tuple]) -> list:
    """Greedy maximal matching scanning edges in acquisition order: keep an
    edge iff neither endpoint was used before."""
    used: set = set()
    out = []
    for u, v in edges:
        if u not in used and v not in used:
            out.append((u, v))
            used.add(u)
            used.add(v)
    return out


# --------------------------------------------------------------------------
# Unrestricted triangle strategy
# --------------------------------------------------------------------------


class TriangleMaker(StagedScanner):
    """Two-stage triangle builder on the full edge stream (no phase gates).

    Stage 1 (first half of the stream): take every edge at the fixed root
    priced at most 8(b+1) n^(-2/3), until ceil(n^(1/3)) leaves are collected.
    Stage 2: take the first edge with both ends in the leaf set priced at
    most 40(b+1) n^(-1/3) ln n.  Falling short of leaves at the halfway point
    is reported as a failure, not an exception.
    """

    def __init__(self, n: int, b: int):
        self.n = n
        self.b = b
        self.star_threshold = 8.0 * (b + 1) * n ** (-2.0 / 3.0)
        self.close_threshold = 40.0 * (b + 1) * n ** (-1.0 / 3.0) * math.log(n)
        self.star_target = math.ceil(n ** (1.0 / 3.0))
        self.edge_count = n * (n - 1) // 2
        self.half = self.edge_count // 2
        self.root = 0
        self._reset()

    def _reset(self):
        self._stage = 1
        self._leaves: set = set()
        self._leaf_mask = np.zeros(self.n, dtype=bool)
        self.failure_phase = None

    def _sync(self, pos: int, view: View) -> None:
        if self._stage == 1 and pos > self.half:
            if len(self._leaves) < self.star_target:
                self.failure_phase = "star"
            self._stage = 2

    def decide(self, view: View, item: Item) -> bool:
        self._sync(item.position, view)
        if self.failure_phase:
            return False
        u, v = item.label
        if self._stage == 1:
            if len(self._leaves) >= self.star_target:
                return False
            if u != self.root and v != self.root:
                return False
            if item.cost > self.star_threshold or item.owner != UNOWNED:
                return False
            w = v if u == self.root else u
            self._leaves.add(w)
            self._leaf_mask[w] = True
            return True
        if self._leaf_mask[u] and self._leaf_mask[v] and item.cost <= self.close_threshold:
            return item.owner == UNOWNED
        return False

    def _stage_bounds(self):
        if self.failure_phase:
            return None
        return (0, self.half) if self._stage == 1 else (self.half, self.edge_count)

    def _stage_candidates(self, lo: int, hi: int) -> np.ndarray:
        seg_u, seg_v = self._u[lo:hi], self._v[lo:hi]
        if self._stage == 1:
            mask = (seg_u == self.root) | (seg_v == self.root)
            return self._masked(lo, hi, mask, self.star_threshold)
        mask = self._leaf_mask[seg_u] & self._leaf_mask[seg_v]
        return self._masked(lo, hi, mask, self.close_threshold)

    # Bound in the class body, not only inherited, so each Maker class owns
    # a play_turn that perfbench/tracer.py can wrap on its own.
    play_turn = StagedScanner.play_turn


def triangle_maker_unrestricted(n: int, b: int) -> TriangleMaker:
    """Triangle Maker for K_n at quota b; warns outside b <= n^(2/3)/10."""
    if b > n ** (2.0 / 3.0) / 10.0:
        warnings.warn(f"b={b} exceeds n^(2/3)/10; the success guarantee degrades",
                      stacklevel=2)
    return TriangleMaker(n, b)


def triangle_mimic_breaker(n: int, b: int) -> ScheduleStrategy:
    """Generic adversary pricing edges like the triangle Maker: the star bar
    in the first half of the stream, the closing bar in the second."""
    maker = TriangleMaker(n, b)
    values = np.empty(maker.edge_count)
    values[: maker.half] = min(1.0, maker.star_threshold)
    values[maker.half:] = min(1.0, maker.close_threshold)
    return ScheduleStrategy(values)


# --------------------------------------------------------------------------
# k-phase restricted k-clique strategy
# --------------------------------------------------------------------------


@dataclass
class CliqueProgress:
    """Construction state: the star roots chosen so far, the matching, and
    the extension edges with their registered closing edges."""

    roots: list = field(default_factory=list)
    matching: list = field(default_factory=list)
    # (edge, closing_label, closing_pos, frontier at registration)
    extensions: list = field(default_factory=list)
    pending_closings: dict = field(default_factory=dict)  # position -> closing label


class KCliqueMaker(StagedScanner):
    """Maker for the k-phase restricted k-clique game, driven by a CliquePlan.

    Phases 1..k-3 build nested stars; phase k-2 collects cheap edges inside
    the common neighborhood and extracts a matching; phase k-1 takes edges
    adjacent to the matching whose closing edge is still unrevealed; phase k
    runs the phased item-game thresholds over the surviving closing
    candidates.  Any phase falling short of its target makes the strategy
    report that phase and go dormant for the rest of the game.
    """

    def __init__(self, plan: CliquePlan):
        self.plan = plan
        self._reset()

    def _reset(self):
        plan = self.plan
        self.progress = CliqueProgress()
        self._phase = 1
        self.failure_phase: Optional[str] = None
        self._root: Optional[int] = None
        self._leaf_mask = np.ones(plan.n, dtype=bool)  # L_0 = all vertices
        self._new_leaves: list = []
        self._collected: list = []
        self._matched_mask = np.zeros(plan.n, dtype=bool)
        self._partner = np.full(plan.n, -1, dtype=np.int64)
        self._ext_count = 0
        self._live_closings: Optional[np.ndarray] = None
        self._sub_thresholds: Optional[np.ndarray] = None
        self._sub_ends: Optional[np.ndarray] = None
        self._sub_attempted = 0
        self._enter_phase(1, 0)

    # -- phase bookkeeping --------------------------------------------------

    def _kind(self, phase: int) -> str:
        k = self.plan.k
        if phase <= k - 3:
            return "star"
        if phase == k - 2:
            return "matching"
        if phase == k - 1:
            return "extension"
        return "closing"

    def _enter_phase(self, phase: int, revealed: int) -> None:
        kind = self._kind(phase)
        if kind == "star":
            root = int(np.flatnonzero(self._leaf_mask)[0])
            self._root = root
            self._new_leaves = []
            self.progress.roots.append(root)
        elif kind == "matching":
            self._collected = []
        elif kind == "closing":
            self._prepare_closing(revealed)

    def _close_phase(self, phase: int) -> None:
        if self.failure_phase:
            return
        plan = self.plan
        kind = self._kind(phase)
        if kind == "star":
            j = phase
            if len(self._new_leaves) < int(plan.star_targets[j - 1]):
                self.failure_phase = f"star-{j}"
                return
            mask = np.zeros(plan.n, dtype=bool)
            mask[self._new_leaves] = True
            self._leaf_mask = mask
        elif kind == "matching":
            matching = extract_matching(self._collected)
            if len(matching) < plan.target_matching:
                self.failure_phase = "matching"
                return
            matching = matching[: plan.target_matching]
            self.progress.matching = matching
            for a, c in matching:
                self._matched_mask[a] = True
                self._matched_mask[c] = True
                self._partner[a] = c
                self._partner[c] = a
        elif kind == "extension":
            if self._ext_count < plan.target_closing:
                self.failure_phase = "extension"

    def _sync(self, pos: int, view: View) -> None:
        plan = self.plan
        while self._phase <= plan.k and pos > plan.phase_end(self._phase):
            self._close_phase(self._phase)
            self._phase += 1
            if self.failure_phase:
                return
            if self._phase <= plan.k:
                self._enter_phase(self._phase, view.revealed_upto)

    def _prepare_closing(self, revealed: int) -> None:
        plan = self.plan
        start = plan.phase_start(plan.k)
        # Candidates must still be unrevealed and inside phase k.
        live = sorted(p for p in self.progress.pending_closings
                      if p >= start and p > revealed)
        if not live:
            self.failure_phase = "closing"
            return
        self._live_closings = np.asarray(live, dtype=np.int64)
        n_cand = len(live)
        b = plan.b
        if n_cand >= b + 1 and b >= 1:
            curve = phase_plan(n_cand, b)
            self._sub_ends = curve.ends
            self._sub_thresholds = curve.position_thresholds
        else:
            self._sub_ends = np.array([n_cand], dtype=np.int64)
            self._sub_thresholds = np.ones(n_cand)
        self._sub_attempted = 0

    # -- decisions ------------------------------------------------------------

    def decide(self, view: View, item: Item) -> bool:
        self._sync(item.position, view)
        if self.failure_phase or self._phase > self.plan.k:
            return False
        plan = self.plan
        kind = self._kind(self._phase)
        u, v = item.label
        if kind == "star":
            j = self._phase
            if len(self._new_leaves) >= int(plan.star_targets[j - 1]):
                return False
            root = self._root
            if u != root and v != root:
                return False
            w = v if u == root else u
            if not self._leaf_mask[w]:
                return False
            if item.cost > plan.star_thresholds[j - 1] or item.owner != UNOWNED:
                return False
            self._new_leaves.append(w)
            return True
        if kind == "matching":
            if len(self._collected) >= plan.target_collect:
                return False
            if not (self._leaf_mask[u] and self._leaf_mask[v]):
                return False
            if item.cost > plan.matching_threshold or item.owner != UNOWNED:
                return False
            self._collected.append((u, v))
            return True
        if kind == "extension":
            if self._ext_count >= plan.target_closing:
                return False
            if not (self._leaf_mask[u] and self._leaf_mask[v]):
                return False
            if item.cost > plan.extend_threshold:
                return False
            if self._matched_mask[u]:
                shared, other = u, v
            elif self._matched_mask[v]:
                shared, other = v, u
            else:
                return False
            mate = int(self._partner[shared])
            if mate == other:
                return False  # the matching edge itself (owned anyway)
            closing = (mate, other) if mate < other else (other, mate)
            rank = self._market.universe.edge_rank(*closing)
            closing_pos = int(self._market.inverse_perm[rank]) + 1
            if closing_pos <= view.revealed_upto:
                return False  # already offered to someone
            if closing_pos in self.progress.pending_closings:
                return False
            if item.owner != UNOWNED:
                return False
            self.progress.pending_closings[closing_pos] = closing
            # (edge, closing label, closing position, frontier at registration)
            self.progress.extensions.append(((u, v), closing, closing_pos,
                                             view.revealed_upto))
            self._ext_count += 1
            return True
        # closing phase: phased item-game thresholds over live candidates
        live = self._live_closings
        idx = int(np.searchsorted(live, item.position))
        if idx >= len(live) or live[idx] != item.position:
            return False
        sub_phase = int(np.searchsorted(self._sub_ends, idx + 1)) + 1
        if sub_phase <= self._sub_attempted:
            return False
        if item.cost <= self._sub_thresholds[idx]:
            self._sub_attempted = sub_phase
            return item.owner == UNOWNED
        return False

    # -- fast scanning ----------------------------------------------------------

    def _stage_bounds(self):
        plan = self.plan
        if self.failure_phase or self._phase > plan.k:
            return None
        return plan.phase_start(self._phase) - 1, plan.phase_end(self._phase)

    def _stage_candidates(self, lo: int, hi: int) -> np.ndarray:
        plan = self.plan
        kind = self._kind(self._phase)
        if kind == "closing":
            return self._live_closings
        seg_u = self._u[lo:hi]
        seg_v = self._v[lo:hi]
        if kind == "star":
            thr = plan.star_thresholds[self._phase - 1]
            root = self._root
            mask = ((seg_u == root) & self._leaf_mask[seg_v]) | (
                (seg_v == root) & self._leaf_mask[seg_u])
        elif kind == "matching":
            thr = plan.matching_threshold
            mask = self._leaf_mask[seg_u] & self._leaf_mask[seg_v]
        else:  # extension
            thr = plan.extend_threshold
            mask = self._leaf_mask[seg_u] & self._leaf_mask[seg_v]
            mask &= self._matched_mask[seg_u] | self._matched_mask[seg_v]
        return self._masked(lo, hi, mask, thr)

    # Bound in the class body for the same reason as TriangleMaker's.
    play_turn = StagedScanner.play_turn


def kclique_maker(plan: CliquePlan) -> KCliqueMaker:
    return KCliqueMaker(plan)


def plan_mimic_breaker(plan: CliquePlan) -> ScheduleStrategy:
    """Generic adversary pricing every position with the plan's phase
    threshold (the extension bar stands in during the closing phase)."""
    values = np.empty(plan.edge_count)
    for phase in range(1, plan.k + 1):
        lo = plan.phase_start(phase) - 1
        hi = plan.phase_end(phase)
        if phase <= plan.k - 3:
            t = plan.star_thresholds[phase - 1]
        elif phase == plan.k - 2:
            t = plan.matching_threshold
        else:
            t = plan.extend_threshold
        values[lo:hi] = min(1.0, float(t))
    return ScheduleStrategy(values)
