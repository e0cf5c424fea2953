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
    Goal,
    Item,
    PhaseBounds,
    ScheduleStrategy,
    StagedScanner,
    View,
    phase_ends,
)
from .item_game import PhasePlan, PhasedMaker, phase_plan

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
        self.ends = (self.half, self.edge_count)
        self.root = 0
        self._reset()

    def _reset(self):
        self._leaf_mask = np.zeros(self.n, dtype=bool)
        self.failure_phase = None

    def _enter_phase(self, phase: int, revealed: int) -> None:
        if phase == 1:
            self._stage = (np.arange(self.n) == self.root, np.ones(self.n, dtype=bool),
                           self.star_threshold, self.star_target)
        else:
            self._stage = (self._leaf_mask, self._leaf_mask, self.close_threshold, math.inf)

    def _close_phase(self, phase: int) -> None:
        if phase == 1 and self._taken < self._stage[3]:
            self.failure_phase = "star"

    def _admit(self, view: View, item: Item) -> bool:
        if self._phase == 1:
            u, v = item.label
            self._leaf_mask[v if u == self.root else u] = True
        return True

    # Bound in the class body, not only inherited, so each Maker class owns
    # a decide and a play_turn that perfbench/tracer.py can wrap on its own.
    decide = StagedScanner.decide
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
    return ScheduleStrategy(np.minimum(1.0, [maker.star_threshold, maker.close_threshold]),
                            ends=maker.ends)


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
        self.ends = plan.ends
        self._reset()

    def _reset(self):
        plan = self.plan
        self.progress = CliqueProgress()
        self.failure_phase: Optional[str] = None
        self._root: Optional[int] = None
        self._leaf_mask = np.ones(plan.n, dtype=bool)  # L_0 = all vertices
        self._new_leaves: list = []
        self._collected: list = []
        self._matched_mask = np.zeros(plan.n, dtype=bool)
        self._partner = np.full(plan.n, -1, dtype=np.int64)
        self._ext_cands: Optional[np.ndarray] = None
        self._closing_at: dict = {}
        self._live_closings: Optional[np.ndarray] = None
        self._closer: Optional[PhasedMaker] = None

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
        plan, kind, leaf = self.plan, self._kind(phase), self._leaf_mask
        if kind == "star":
            root = int(np.flatnonzero(leaf)[0])
            self._root = root
            self._new_leaves = []
            self.progress.roots.append(root)
            self._stage = (np.arange(plan.n) == root, leaf, plan.star_thresholds[phase - 1],
                           int(plan.star_targets[phase - 1]))
        elif kind == "matching":
            self._collected = []
            self._stage = (leaf, leaf, plan.matching_threshold, plan.target_collect)
        elif kind == "extension":
            self._stage = (leaf & self._matched_mask, leaf, plan.extend_threshold,
                           plan.target_closing)
            self._prepare_extension(phase)
        else:
            self._stage = None  # the closing phase decides in _admit
            self._prepare_closing(revealed)

    def _close_phase(self, phase: int) -> None:
        plan = self.plan
        kind = self._kind(phase)
        if kind == "star":
            if self._taken < self._stage[3]:
                self.failure_phase = f"star-{phase}"
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
        elif kind == "extension" and self._taken < self._stage[3]:
            self.failure_phase = "extension"

    def _prepare_extension(self, phase: int) -> None:
        """The phase's candidates, and the positions past the phase start of
        the closing edges they would register, by rank; a closing edge
        before the phase is revealed before any candidate is offered."""
        plan, market, matched = self.plan, self._market, self._matched_mask
        lo = plan.phase_start(phase) - 1
        self._ext_cands = self._masked(lo, plan.phase_end(phase), *self._stage[:3])
        u, v = market.universe.endpoints(market.perm[self._ext_cands - 1])
        shared, other = np.where(matched[u], u, v), np.where(matched[u], v, u)
        mate = self._partner[shared]
        hit = np.zeros(market.universe.size, dtype=bool)
        hit[market.universe.edge_rank(mate, other)[mate != other]] = True
        pos = np.flatnonzero(hit[market.perm[lo:]]) + lo
        self._closing_at = dict(zip(market.perm[pos].tolist(), (pos + 1).tolist()))

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
        # Candidate i is position i of the sub-stream the item-game Maker plays.
        n_cand, b = len(live), plan.b
        if n_cand >= b + 1 and b >= 1:
            sub_plan = phase_plan(n_cand, b)
        else:  # too few to split: one phase, every threshold 1
            sub_plan = PhasePlan(n=n_cand, b=0, alpha=math.inf, N=float(n_cand),
                                 ends=phase_ends(n_cand, 1),
                                 position_thresholds=np.ones(n_cand))
        self._closer = PhasedMaker(sub_plan)

    # -- decisions ------------------------------------------------------------

    def _admit(self, view: View, item: Item) -> bool:
        kind = self._kind(self._phase)
        u, v = item.label
        if kind == "star":
            self._new_leaves.append(v if u == self._root else u)
            return True
        if kind == "matching":
            self._collected.append((u, v))
            return True
        if kind == "closing":  # phased item-game thresholds over live candidates
            live = self._live_closings
            idx = int(np.searchsorted(live, item.position))
            if idx >= len(live) or live[idx] != item.position:
                return False
            return self._closer.decide(view, Item(idx + 1, (u, v), item.cost, item.owner,
                                                  item.revealed))
        # extension: register the edge closing a triangle with the matching
        # edge at the matched end ({u, v} is no matching edge: those lie in
        # the matching phase)
        shared, other = (u, v) if self._matched_mask[u] else (v, u)
        mate = int(self._partner[shared])
        closing = (mate, other) if mate < other else (other, mate)
        closing_pos = self._closing_at.get(int(self._market.universe.edge_rank(*closing)), 0)
        if closing_pos <= view.revealed_upto or closing_pos in self.progress.pending_closings:
            return False  # already offered to someone, or registered
        self.progress.pending_closings[closing_pos] = closing
        self.progress.extensions.append(((u, v), closing, closing_pos, view.revealed_upto))
        return True

    # -- fast scanning ----------------------------------------------------------

    def _stage_candidates(self, lo: int, hi: int) -> np.ndarray:
        kind = self._kind(self._phase)
        if kind == "extension" or kind == "closing":
            # built for the whole phase on entering it; the window's slice
            cands = self._ext_cands if kind == "extension" else self._live_closings
            return cands[np.searchsorted(cands, lo, "right"):np.searchsorted(cands, hi, "right")]
        return super()._stage_candidates(lo, hi)

    # Bound in the class body for the same reason as TriangleMaker's.
    decide = StagedScanner.decide
    play_turn = StagedScanner.play_turn


def kclique_maker(plan: CliquePlan) -> KCliqueMaker:
    return KCliqueMaker(plan)


def plan_mimic_breaker(plan: CliquePlan) -> ScheduleStrategy:
    """Generic adversary pricing every position with the plan's phase
    threshold (the extension bar stands in during the closing phase)."""
    levels = [*plan.star_thresholds, plan.matching_threshold,
              plan.extend_threshold, plan.extend_threshold]
    return ScheduleStrategy(np.minimum(1.0, levels), ends=plan.ends)
