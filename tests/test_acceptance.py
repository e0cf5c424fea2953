"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line each.  These are the exit criteria for the whole package; several run
hundreds of full games and take a few minutes together.
"""

import io
import math
import time

import numpy as np
import pytest

import purchase_games as pg
from purchase_games import box_game as bg
from purchase_games import clique_game as cg
from purchase_games import harness
from purchase_games import item_game as ig
from purchase_games import path_game as pth
from purchase_games.engine import (
    BREAKER,
    MAKER,
    EdgeLabels,
    GameRules,
    RandomStrategy,
    generate_market,
    mix_seed,
    play,
)
from purchase_games.oracle import box_minimax, item_b0_dp
from purchase_games.verify import contains_clique, has_path


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# --------------------------------------------------------------------------


def test_acceptance_01_four_over_n():
    t0 = time.time()
    results = {}
    for n, lo, hi in ((10_000, 3.5, 4.5), (100_000, 3.8, 4.2)):
        c = ig.expected_cost(ig.breaker_closed_form(n), ig.single_threshold_maker(n))
        results[n] = (n * c, lo, hi)
    elapsed = time.time() - t0
    ok = all(lo <= v <= hi for v, lo, hi in results.values()) and elapsed < 10.0
    detail = ", ".join(f"n={n}: n*c={v:.4f} in [{lo},{hi}]"
                       for n, (v, lo, hi) in results.items())
    _report(1, ok, f"{detail}, elapsed {elapsed:.2f}s < 10s")


@pytest.mark.slow
def test_acceptance_02_formula_vs_simulation():
    n, trials = 200, 1_000_000
    exact = ig.expected_cost(ig.breaker_closed_form(n), ig.single_threshold_maker(n))
    cfg = harness.TrialConfig(game="item", n=n, b=1, trials=trials,
                              master_seed=20240, maker="single_threshold",
                              breaker="closed_form")
    t0 = time.time()
    agg = harness.run_trials(cfg, jobs=2)
    elapsed = time.time() - t0
    diff = abs(agg.mean_cost_all - exact)
    ok = agg.success_rate == 1.0 and diff <= 4.0 * agg.stderr
    _report(2, ok, f"|MC - exact| = {diff:.3g} <= 4*SE = {4 * agg.stderr:.3g} "
                   f"(z = {diff / agg.stderr:.2f}, {trials} trials, {elapsed:.0f}s)")


def test_acceptance_03_best_response_consistency():
    n = 1000
    br = ig.breaker_best_response(ig.single_threshold_maker(n))
    cf = ig.breaker_closed_form(n)
    worst = float(np.max(np.abs(br.values - cf.values)))
    spots = (
        abs(br.values[n - 1] - 0.0),
        abs(br.values[n - 2] - 0.5),
        abs(br.values[n - 4] - 7.0 / 18.0),
    )
    ok = worst <= 1e-10 and all(s <= 1e-12 for s in spots)
    _report(3, ok, f"max|BR-closed| = {worst:.2e} <= 1e-10; "
                   f"spot errors {[f'{s:.1e}' for s in spots]} <= 1e-12")


def test_acceptance_04_b0_benchmark():
    t0 = time.time()
    dp = item_b0_dp(10_000)
    elapsed = time.time() - t0
    scaled = 10_000 * dp.value
    ok = 1.95 <= scaled <= 2.05 and elapsed < 1.0
    _report(4, ok, f"n*v_1 = {scaled:.4f} in [1.95, 2.05], elapsed {elapsed:.3f}s < 1s")


@pytest.mark.slow
def test_acceptance_05_phased_upper_bound_scaling():
    n, trials = 100_000, 10_000
    details = []
    ok = True
    for b in (10, 100):
        plan = ig.phased_maker_plan(n, b)
        total = 0.0
        successes = 0
        for t in range(trials):
            seed = mix_seed(50_000 + b, t)
            market = generate_market(n, seed)
            out = play(market, GameRules(b=b), ig.PhasedMaker(plan),
                       ig.cheap_grab_breaker(n, b))
            successes += out.success
            total += out.maker_cost
        mean = total / trials
        upper = 50.0 * b * math.log(b) ** 2 / n
        lower = b / (8.0 * n)
        this_ok = successes == trials and lower <= mean <= upper
        ok = ok and this_ok
        details.append(f"b={b}: success {successes}/{trials}, "
                       f"mean {mean:.5f} in [{lower:.2e}, {upper:.4f}]")
    _report(5, ok, "; ".join(details))


@pytest.mark.slow
def test_acceptance_06_triangle_game():
    n, b, trials = 3000, 3, 100
    E = n * (n - 1) // 2
    bound = 30.0 * (b + 1) * n ** (-1.0 / 3.0) * math.log(n)
    t0 = time.time()
    wins = 0
    cost_sum = 0.0
    for t in range(trials):
        seed = mix_seed(60_600, t)
        market = generate_market(E, seed, EdgeLabels(n))
        out = play(market, GameRules(b=b, goal=lambda: cg.CliqueGoal(3)),
                   cg.triangle_maker_unrestricted(n, b),
                   cg.triangle_mimic_breaker(n, b))
        if out.success:
            wins += 1
            cost_sum += out.maker_cost
    elapsed = time.time() - t0
    cond_mean = cost_sum / wins if wins else math.inf
    ok = wins >= 0.9 * trials and cond_mean <= bound
    _report(6, ok, f"success {wins}/{trials} >= 90, conditional mean "
                   f"{cond_mean:.3f} <= {bound:.3f}, elapsed {elapsed:.0f}s")


@pytest.mark.slow
def test_acceptance_07_restricted_k_clique():
    # Plan identities across the whole grid.
    worst = 0.0
    for k in range(3, 11):
        for n in (10**3, 10**4, 10**5, 10**6):
            nest, closing = cg.clique_plan(n, 1, k).identity_residuals()
            worst = max(worst, nest, closing)
    identities_ok = worst <= 1e-12

    # Dry-run plan checks at k = 4, 5 with n = 1e5 (full simulation is out of
    # desk reach there; thresholds above 1 are reported, not asserted).
    dry_ok = True
    dry_notes = []
    for k in (4, 5):
        plan = cg.clique_plan(100_000, 1, k)
        rep = plan.feasibility_report()
        dry_ok = dry_ok and rep["all_thresholds_positive"] and rep["targets_feasible"]
        dry_notes.append(
            f"k={k}: stars<=1 {rep['star_thresholds_below_one']}, "
            f"match<=1 {rep['matching_threshold_below_one']}, "
            f"extend<=1 {rep['extend_threshold_below_one']}")

    # Simulation at k = 3.
    n, b, k, trials = 3000, 1, 3, 100
    E = n * (n - 1) // 2
    plan = cg.clique_plan(n, b, k)
    wins = 0
    for t in range(trials):
        seed = mix_seed(70_700, t)
        market = generate_market(E, seed, EdgeLabels(n))
        out = play(market, GameRules(b=b, phase_count=k,
                                     goal=lambda: cg.CliqueGoal(k)),
                   cg.kclique_maker(plan), cg.plan_mimic_breaker(plan))
        if out.success:
            assert contains_clique(out.maker_items, 3)
            wins += 1
    ok = identities_ok and dry_ok and wins >= 0.8 * trials
    _report(7, ok, f"identities worst {worst:.1e} <= 1e-12; success {wins}/{trials}"
                   f" >= 80 (all verified); dry-run {'; '.join(dry_notes)}")


@pytest.mark.slow
def test_acceptance_08_path_game_desk_scale():
    n, b, trials = 2000, 1, 100
    plan = pth.path_plan(n, b, k_override=1, threshold_scale=20.0)
    E = plan.edge_count
    wins = 0
    ok_traces = True
    for t in range(trials):
        seed = mix_seed(80_800, t)
        market = generate_market(E, seed, EdgeLabels(n))
        maker = pth.path_maker(plan, 0, 1)
        out = play(market, GameRules(b=b, phase_count=plan.phase_count,
                                     goal=lambda: pth.PathGoal(0, 1)),
                   maker, ig.cheap_grab_breaker(E, b), record_trace=True)
        # tree invariants on every purchase, rebuilt from the purchase order
        in_t, in_tp = {0}, {1}
        for p in out.maker_positions:
            u, v = market.label(p)
            phase = int(np.searchsorted(plan.ends, p)) + 1
            if phase <= plan.k:
                ok_traces &= (u in in_t) != (v in in_t)
                in_t |= {u, v}
            elif phase <= 2 * plan.k:
                ok_traces &= (u in in_tp) != (v in in_tp)
                in_tp |= {u, v}
            else:
                ok_traces &= ((u in in_t and v in in_tp)
                              or (v in in_t and u in in_tp))
        # phase compliance in the trace
        maker_ptr = 0
        for ev in out.details["trace"]:
            if ev[0] == "end" and ev[1] == MAKER:
                maker_ptr = ev[2]
            elif ev[0] == "take" and ev[1] == BREAKER:
                gate = int(plan.ends[min(int(np.searchsorted(plan.ends, maker_ptr,
                                                             side='right')),
                                         plan.phase_count - 1)])
                ok_traces &= ev[2] <= gate
        if out.success:
            ok_traces &= has_path(out.maker_items, 0, 1)
            wins += 1
    ok = wins >= 0.8 * trials and ok_traces
    _report(8, ok, f"success {wins}/{trials} >= 80 (paths verified), "
                   f"tree and phase invariants held in every trace: {ok_traces}")


@pytest.mark.slow
def test_acceptance_09_box_exact_threshold():
    guard = 12
    hard_ok = True
    findings = []
    table = []
    for n, b in ((2, 1), (3, 1), (2, 2)):
        for m in range(1, b * n + 3):
            if n * m > guard:
                table.append(f"({n},{b},m={m}): skipped (guard n*m<={guard})")
                continue
            winner = box_minimax(n, m, b, "adversarial", maker_first=True).winner
            predicted = "maker" if m >= b * n + 1 else "breaker"
            table.append(f"({n},{b},m={m}): {winner}")
            if m >= b * n + 1 and winner != "maker":
                hard_ok = False
            if m <= b * n and winner != predicted:
                findings.append(f"({n},{b},m={m}): oracle says {winner}, "
                                f"bn+1 rule predicts {predicted}")
    print("winner table:", "; ".join(table))
    for f in findings:
        print("FINDING (turn-order sensitivity, reported not failed):", f)
    _report(9, hard_ok,
            f"maker wins whenever m >= bn+1 (hard assert); "
            f"{len(findings)} documented disagreement(s) below the threshold "
            f"(maker-first play wins from m >= b(n-1)+1)")


@pytest.mark.slow
def test_acceptance_10_box_random_order_breaker():
    n, eps = 20, 0.5
    b = 1600
    b0 = 100.0 * eps ** -2 * math.log(n)
    m = int((1 - eps) * b * n)
    assert b >= b0
    trials = 30
    breaker_wins = 0
    damage_ok = True
    t0 = time.time()
    for t in range(trials):
        cfg = bg.BoxConfig(n=n, m=m, b=b, ordering="random", eps=eps)
        log = []
        out = bg.play_box(cfg, bg.MinboxMaker(), bg.FocusBreaker(),
                          seed=mix_seed(101_010, t), damage_log=log)
        breaker_wins += not out.success
        damage_ok &= all(mx <= b * i for i, mx in log)
    elapsed = time.time() - t0
    ok = breaker_wins >= 27 and damage_ok
    _report(10, ok, f"breaker wins {breaker_wins}/30 >= 27 at b={b} >= "
                    f"b0={b0:.0f}, m={m}; damage bound b*i held in every "
                    f"trace: {damage_ok} ({elapsed:.0f}s)")


@pytest.mark.slow
def test_acceptance_11_engine_property_suite():
    rng_master = 119_000
    checked = 0
    ok = True

    def check_purchase(market, rules, maker_seed, breaker_seed):
        nonlocal ok, checked
        out = play(market, rules, RandomStrategy(0.35, maker_seed),
                   RandomStrategy(0.35, breaker_seed), record_trace=True)
        # ownership partition
        ok_ = not (set(out.maker_positions) & set(out.breaker_positions))
        # exact cost accounting
        expect = math.fsum(market.costs[p - 1] for p in out.maker_positions)
        ok_ &= out.maker_cost == expect
        # pointer monotonicity, quota, phase compliance from the trace
        ends = pg.engine.phase_ends(market.n, rules.phase_count)
        last_ptr = {MAKER: 0, BREAKER: 0}
        maker_ptr = 0
        for ev in out.details["trace"]:
            if ev[0] == "turn":
                ok_ &= ev[2] >= last_ptr[ev[1]]
            elif ev[0] == "end":
                ok_ &= ev[2] >= last_ptr[ev[1]]
                last_ptr[ev[1]] = ev[2]
                if ev[1] == MAKER:
                    maker_ptr = ev[2]
                else:
                    ok_ &= ev[3] <= rules.b  # quota
            elif ev[0] == "take" and ev[1] == BREAKER and rules.phase_count > 1:
                done = int(np.searchsorted(ends, maker_ptr, side="right"))
                gate = int(ends[min(done, rules.phase_count - 1)])
                ok_ &= ev[2] <= gate
        # information hiding: replay equality with fresh seeded strategies
        replay = play(market, rules, RandomStrategy(0.35, maker_seed),
                      RandomStrategy(0.35, breaker_seed), record_trace=True)
        ok_ &= replay == out
        ok &= ok_
        checked += 1

    games = 0
    t = 0
    while games < 8000:
        seed = mix_seed(rng_master, t)
        t += 1
        kind = t % 3
        if kind == 0:
            n = 10 + (seed % 30)
            market = generate_market(int(n), seed)
            rules = GameRules(b=seed % 3, phase_count=1 + (seed % 4) % int(n))
        elif kind == 1:
            v = 6 + (seed % 5)
            market = generate_market(v * (v - 1) // 2, seed, EdgeLabels(int(v)))
            rules = GameRules(b=seed % 3, phase_count=1 + (seed % 3),
                              goal=lambda: cg.CliqueGoal(3))
        else:
            v = 6 + (seed % 5)
            market = generate_market(v * (v - 1) // 2, seed, EdgeLabels(int(v)))
            rules = GameRules(b=seed % 2, phase_count=1 + (seed % 3),
                              goal=lambda: pth.PathGoal(0, 1))
        check_purchase(market, rules, mix_seed(seed, 1), mix_seed(seed, 2))
        games += 1

    # box games: partition, pointer persistence, determinism
    for t in range(2000):
        seed = mix_seed(rng_master + 7, t)
        cfg = bg.BoxConfig(n=2 + seed % 3, m=2 + (seed >> 8) % 3, b=1 + seed % 2,
                           ordering="random")
        o1 = bg.play_box(cfg, RandomStrategy(0.5, mix_seed(seed, 3)),
                         RandomStrategy(0.5, mix_seed(seed, 4)), seed=seed)
        o2 = bg.play_box(cfg, RandomStrategy(0.5, mix_seed(seed, 3)),
                         RandomStrategy(0.5, mix_seed(seed, 4)), seed=seed)
        ok_ = o1 == o2
        ok_ &= not (set(o1.maker_positions) & set(o1.breaker_positions))
        ok_ &= list(o1.maker_positions) == sorted(o1.maker_positions)
        ok_ &= list(o1.breaker_positions) == sorted(o1.breaker_positions)
        ok &= ok_
        checked += 1

    # parallel determinism on aggregate outputs
    cfg = harness.TrialConfig(game="item", n=150, b=1, trials=3000,
                              master_seed=424_242, maker="single_threshold",
                              breaker="closed_form")
    a1 = harness.run_trials(cfg, jobs=1)
    a8 = harness.run_trials(cfg, jobs=8)
    b1, b8 = io.StringIO(), io.StringIO()
    harness.export(a1, "json", b1)
    harness.export(a8, "json", b8)
    parallel_ok = a1 == a8 and b1.getvalue() == b8.getvalue()
    ok &= parallel_ok

    _report(11, ok, f"{checked} randomized games: partition, monotone "
                    f"pointers, quota, phase compliance, exact costs, replay "
                    f"equality all held; jobs 1 == jobs 8 bitwise: {parallel_ok}")
