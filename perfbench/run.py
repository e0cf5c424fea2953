"""Benchmark: milliseconds per trial of ``harness.run_trials`` on fixed
closed-loop workloads, end to end and split across the library's layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload short-trials --seed 7 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
runs the same calls untraced and then traced, and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every output checked was correct.  See
README.md next to this file for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

from tracer import Tracer, instrument
from workloads import CONFIGS, PIN_SEED, WORKLOADS, Config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS_FILE = BENCH_DIR / "pins.json"
SETUP_SAMPLES = 5     # set-ups per run, each in a fresh interpreter
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no library sources)."""


def load_harness():
    """Import the library from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from purchase_games import harness
    except ImportError as exc:
        raise BenchError(f"cannot import purchase_games from {src}: {exc}") from exc
    if Path(harness.__file__).resolve().parent.parent != src.resolve():
        raise BenchError(f"purchase_games was imported from {harness.__file__}, not {src}")
    return harness


# --------------------------------------------------------------------------
# Small pure helpers (tested in tests/)
# --------------------------------------------------------------------------


def master_seed(seed: int, round_index: int, config_index: int) -> int:
    """Master seed of one timed call: distinct per seed, round and config."""
    return (seed << 32) + (round_index << 8) + config_index


def report_percentile(n: int):
    """The highest of the usual percentiles with at least ten of ``n``
    samples beyond it, or None when n < 20 leaves only the median."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of ``values``."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def geomean(values) -> float:
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def export_bytes(harness, agg) -> bytes:
    buf = io.StringIO()
    harness.export(agg, "json", buf)
    return buf.getvalue().encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gate(digests: dict, pins: dict, configs) -> set:
    """Names of the configs whose warm-up export is missing (the call
    raised) or differs from its pinned digest."""
    return {c.name for c in configs
            if digests.get(c.name) is None or digests[c.name] != pins.get(c.name)}


def trial_config(harness, config: Config, trials: int, seed: int):
    return harness.TrialConfig(trials=trials, master_seed=seed, jobs=config.jobs,
                               **config.params)


# --------------------------------------------------------------------------
# Set-up: the library's import plus one pinned warm-up call per config
# --------------------------------------------------------------------------


def warm_up(harness, configs) -> dict:
    """Run one call of each config at the pinned seed; {name: export
    digest}, with None for a call that raised."""
    out = {}
    for c in configs:
        try:
            agg = harness.run_trials(trial_config(harness, c, c.trials, PIN_SEED),
                                     jobs=c.jobs)
            out[c.name] = digest(export_bytes(harness, agg))
        except Exception:
            traceback.print_exc()
            out[c.name] = None
    return out


def set_up(workload: str):
    """Import the library, then warm up each config of ``workload``.
    Returns (harness, digests, seconds as measured).

    numpy is imported first and untimed.  It is not the library's work, and
    on a shared machine import time drifted by up to a third between sets
    of runs twenty minutes apart, following neither the calibration nor the
    library's calls; numpy is most of it."""
    import numpy  # noqa: F401
    t0 = time.perf_counter()
    harness = load_harness()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        digests = warm_up(harness, [CONFIGS[n] for n in WORKLOADS[workload].configs])
    return harness, digests, time.perf_counter() - t0


def probe_setups(workload: str, count: int) -> list:
    """Set-up times, as measured, of ``count`` fresh interpreters run one
    after another."""
    times = []
    for _ in range(count):
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--setup-probe"],
                cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up probe took over {PROBE_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


# --------------------------------------------------------------------------
# Timed rounds
# --------------------------------------------------------------------------


class Rounds:
    """Per-call timings and exports of a closed loop over configs."""

    def __init__(self, configs):
        self.configs = list(configs)
        self.call_s = {c.name: [] for c in self.configs}   # as measured
        self.scaled_s = {c.name: [] for c in self.configs}  # at calibrated speed
        self.round_s: list = []                              # scaled
        self.first_export: dict = {}
        self.bad: dict = {}          # config name -> reason
        self.attempted = {c.name: 0 for c in self.configs}
        self.warnings = {c.name: 0 for c in self.configs}

    def speed(self) -> float:
        """Median over calls of calibrated / measured time: multiplies a
        measured time into one at the calibration's reference speed."""
        return statistics.median(scaled / raw for name in self.call_s
                                 for scaled, raw in zip(self.scaled_s[name], self.call_s[name]))

    def ms_per_trial(self, name: str) -> list:
        trials = next(c.trials for c in self.configs if c.name == name)
        return [s * 1000.0 / trials for s in self.scaled_s[name]]

    def fail(self, config: Config, reason: str) -> None:
        self.bad.setdefault(config.name, reason)

    def failed_trials(self) -> int:
        return sum(self.attempted[name] for name in self.bad if name in self.attempted)


def run_rounds(harness, rounds: Rounds, seed: int, seconds: float, calibration, *,
               tracer=None, caught=None) -> None:
    """Call run_trials + export for each config, round after round, until
    ``seconds`` have passed (and at least MIN_ROUNDS rounds).  Each call is
    also scaled by ``calibration`` measured just before and after it."""
    deadline = time.perf_counter() + seconds
    r = 0
    cal = calibration.measure()
    while r < MIN_ROUNDS or time.perf_counter() < deadline:
        round_s = 0.0
        for i, c in enumerate(rounds.configs):
            cfg = trial_config(harness, c, c.trials, master_seed(seed, r, i))
            if tracer is not None:
                tracer.set_group(c.name)
            seen = len(caught) if caught is not None else 0
            rounds.attempted[c.name] += c.trials
            t0 = time.perf_counter()
            try:
                agg = harness.run_trials(cfg, jobs=c.jobs)
                data = export_bytes(harness, agg)
            except Exception:
                traceback.print_exc()
                rounds.fail(c, "raised")
                continue
            dt = time.perf_counter() - t0
            cal_after = calibration.measure()
            scaled = calibration.scale(dt, cal, cal_after)
            cal = cal_after
            rounds.call_s[c.name].append(dt)
            rounds.scaled_s[c.name].append(scaled)
            round_s += scaled
            if caught is not None:
                rounds.warnings[c.name] += len(caught) - seen
            if agg.trials != c.trials:
                rounds.fail(c, f"aggregate has {agg.trials} trials, expected {c.trials}")
            if c.always_wins and agg.success_count != c.trials:
                rounds.fail(c, f"Maker lost {c.trials - agg.success_count} guaranteed games")
            if r == 0:
                rounds.first_export[c.name] = data
        rounds.round_s.append(round_s)
        r += 1


def check_replay(harness, rounds: Rounds, seed: int) -> None:
    """Re-run each config's first call at jobs=1: the export must be the
    same bytes (for jobs > 1, this is the serial-versus-parallel check)."""
    for i, c in enumerate(rounds.configs):
        if c.name not in rounds.first_export:
            continue
        twin = c.serial_twin() if c.jobs > 1 else c
        try:
            agg = harness.run_trials(trial_config(harness, twin, c.trials,
                                                  master_seed(seed, 0, i)), jobs=1)
            data = export_bytes(harness, agg)
        except Exception:
            traceback.print_exc()
            rounds.fail(c, "replay at jobs=1 raised")
            continue
        if data != rounds.first_export[c.name]:
            rounds.fail(c, "replay at jobs=1 exported different bytes")


# --------------------------------------------------------------------------
# Structural re-verification of traced games
# --------------------------------------------------------------------------


class Verifier:
    """Keeps what each traced game needs for the independent checks in
    ``purchase_games.verify`` and runs them after timing."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.records: list = []
        self.checked = 0
        self.failed = 0

    def capture(self, outcome, market) -> None:
        exact = None
        if market is not None:
            exact = math.fsum(market.costs[p - 1] for p in outcome.maker_positions)
        self.records.append((self.tracer.group, outcome.success,
                             outcome.maker_items, outcome.maker_cost, exact))

    def run(self, rounds: Rounds) -> None:
        from purchase_games import verify
        by_name = {c.name: c for c in rounds.configs}
        for group, success, items, cost, exact in self.records:
            c = by_name[group]
            p = c.params
            checks = []
            if exact is not None:
                checks.append(exact == cost)
            if success and p["game"] == "clique":
                checks.append(verify.contains_clique(items, p.get("k") or 3))
            if success and p["game"] == "path":
                checks.append(verify.has_path(items, 0, 1))
            if success and p["game"] == "box":
                checks.append(verify.covers_all_boxes(items, p["n"]))
            self.checked += len(checks)
            bad = checks.count(False)
            self.failed += bad
            if bad:
                rounds.fail(c, "structural re-verification failed")


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def end_to_end(rounds: Rounds, setups: list) -> dict:
    """The end-to-end metrics; ``setups`` are set-up times as measured,
    scaled here by the timed calls' median speed factor."""
    medians = [statistics.median(rounds.ms_per_trial(c.name)) for c in rounds.configs]
    return {
        "ms_per_trial": (geomean(medians), "ms"),
        "wall_s": (statistics.median(rounds.round_s), "s"),
        "setup_s": (statistics.median(setups) * rounds.speed(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# (name, span or counter, kind, unit); kinds: "ms" self time per in-process
# trial, "call_ms" self time per trial requested (spans outside the trials),
# "calls" spans per in-process trial, "count" counter per in-process trial.
LAYER_METRICS = [
    ("harness.trial_self_ms", "harness.trial", "ms", "ms/trial"),
    ("harness.build_ms", "harness.build", "ms", "ms/trial"),
    ("harness.build_calls", "harness.build", "calls", "calls/trial"),
    ("harness.aggregate_ms", "harness.run_trials", "call_ms", "ms/trial"),
    ("harness.pool_ms", "harness.pool", "call_ms", "ms/trial"),
    ("harness.export_ms", "harness.export", "call_ms", "ms/trial"),
    ("oracle.item_b0_dp_ms", "oracle.item_b0_dp", "ms", "ms/trial"),
    ("oracle.item_b0_dp_calls", "oracle.item_b0_dp", "calls", "calls/trial"),
    ("engine.market_generate_ms", "engine.market_generate", "ms", "ms/trial"),
    ("engine.perm_ms", "engine.perm", "ms", "ms/trial"),
    ("engine.perm_calls", "engine.perm", "calls", "calls/trial"),
    ("engine.edge_endpoints_ms", "engine.edge_endpoints", "ms", "ms/trial"),
    ("engine.edge_endpoints_calls", "engine.edge_endpoints", "calls", "calls/trial"),
    ("engine.edge_labels_ms", "engine.edge_labels", "ms", "ms/trial"),
    ("engine.edge_labels_calls", "engine.edge_labels", "calls", "calls/trial"),
    ("engine.market_items", "engine.market_items", "count", "items/trial"),
    ("engine.market_bytes_computed", "engine.market_bytes_computed", "count", "bytes/trial"),
    ("engine.play_self_ms", "engine.play", "ms", "ms/trial"),
    ("engine.turns", "engine.turns", "count", "turns/trial"),
    ("engine.seek_ms", "engine.seek", "ms", "ms/trial"),
    ("engine.seek_calls", "engine.seek", "calls", "calls/trial"),
    ("engine.offer_next_calls", "engine.offer_next", "count", "calls/trial"),
    ("engine.schedule_turn_ms", "engine.schedule_turn", "ms", "ms/trial"),
    ("item_game.maker_turn_ms", "item_game.maker_turn", "ms", "ms/trial"),
    ("clique_game.maker_turn_ms", "clique_game.maker_turn", "ms", "ms/trial"),
    ("clique_game.decide_calls", "clique_game.decide", "count", "calls/trial"),
    ("path_game.maker_turn_ms", "path_game.maker_turn", "ms", "ms/trial"),
    ("path_game.decide_calls", "path_game.decide", "count", "calls/trial"),
    ("goal.check_ms", "goal.check", "ms", "ms/trial"),
    ("goal.check_calls", "goal.check", "calls", "calls/trial"),
    ("box_game.play_self_ms", "box_game.play", "ms", "ms/trial"),
    ("box_game.maker_decide_ms", "box_game.maker_decide", "ms", "ms/trial"),
    ("box_game.maker_decide_calls", "box_game.maker_decide", "calls", "calls/trial"),
    ("box_game.breaker_turn_ms", "box_game.breaker_turn", "ms", "ms/trial"),
    ("box_game.random_decide_calls", "box_game.random_decide", "count", "calls/trial"),
]

# Shares of traced self time that show each workload stressing its layer:
# (workload, config or None for all, span names, "min"/"max", threshold).
STRESS_CHECKS = [
    ("short-trials", "item_dp_n1e4", ("oracle.item_b0_dp", "harness.build"), "min", 0.50),
    ("edge-games", None, ("engine.perm", "engine.edge_endpoints", "engine.edge_labels",
                          "engine.market_generate"), "min", 0.50),
    ("box-scan", None, ("box_game.play", "box_game.maker_decide"), "min", 0.70),
    ("box-scan", None, ("harness.trial", "harness.build", "harness.run_trials",
                        "harness.export", "harness.pool", "engine.market_generate",
                        "engine.perm"), "max", 0.05),
]


def layer_metrics(tracer: Tracer, st: dict, traced: Rounds, untraced: Rounds,
                  verifier: Verifier, external_ns: int) -> dict:
    """Per-layer metrics from the span self times ``st``; times are scaled
    to the calibration's reference speed like the end-to-end ones."""
    groups = [c.name for c in traced.configs]
    speed = traced.speed()

    def self_ns(span):
        return sum(st.get((g, span), (0, 0))[0] for g in groups)

    def spans(span):
        return sum(st.get((g, span), (0, 0))[1] for g in groups)

    def counter(name):
        return sum(tracer.counts[(g, name)] for g in groups)

    in_process = max(spans("harness.trial"), 1)
    requested = max(sum(traced.attempted.values()), 1)
    out = {}
    for name, source, kind, unit in LAYER_METRICS:
        if kind == "ms":
            value = self_ns(source) * speed / 1e6 / in_process
        elif kind == "call_ms":
            value = self_ns(source) * speed / 1e6 / requested
        elif kind == "calls":
            value = spans(source) / in_process
        else:
            value = counter(source) / in_process
        out[name] = (value, unit)

    def frac(part, whole):
        return part / whole if whole else 0.0

    offers, seeks = counter("engine.offer_next"), spans("engine.seek")
    out["engine.per_item_frac"] = (frac(offers, offers + seeks), "frac")
    out["clique_game.take_frac"] = (
        frac(counter("clique_game.take"), counter("clique_game.decide")), "frac")
    out["path_game.take_frac"] = (
        frac(counter("path_game.take"), counter("path_game.decide")), "frac")
    out["harness.warnings"] = (sum(traced.warnings.values()) / in_process, "1/trial")

    speedup = 0.0
    for c in untraced.configs:
        if c.jobs > 1:
            serial = statistics.median(untraced.ms_per_trial(f"{c.name}.jobs1"))
            speedup = serial / statistics.median(untraced.ms_per_trial(c.name))
            out["fanout.efficiency"] = (speedup / c.jobs, "frac")
    out["fanout.speedup"] = (speedup, "x")
    out.setdefault("fanout.efficiency", (0.0, "frac"))

    out["verify.checked"] = (float(verifier.checked), "count")
    out["verify.failed"] = (float(verifier.failed), "count")

    ratios = []
    for c in traced.configs:
        pairs = list(zip(traced.scaled_s[c.name], untraced.scaled_s[c.name]))
        if pairs:
            ratios.append(statistics.median(t / u for t, u in pairs))
    out["trace.overhead_frac"] = (geomean(ratios) - 1.0 if ratios else 0.0, "frac")
    total_self = sum(ns for (g, span), (ns, _) in st.items() if g in groups)
    out["trace.coverage_frac"] = (frac(total_self, external_ns), "frac")
    return out


def stress_shares(st: dict, workload: str) -> list:
    """[(description, share, op, threshold, passed)] for this workload,
    from the span self times ``st``."""
    rows = []
    for wl, config, names, op, threshold in STRESS_CHECKS:
        if wl != workload:
            continue
        groups = [config] if config else list(WORKLOADS[workload].configs)
        total = sum(ns for (g, span), (ns, _) in st.items()
                    if g in groups and not span.startswith("bench."))
        part = sum(ns for (g, span), (ns, _) in st.items() if g in groups and span in names)
        share = part / total if total else 0.0
        passed = share >= threshold if op == "min" else share <= threshold
        rows.append((f"{wl}/{config or 'all'}: {'+'.join(names)}", share, op, threshold,
                     passed))
    return rows


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in an exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    return {
        "git_revision": git_revision(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pg_jobs_set": "PG_JOBS" in os.environ,
    }


def describe_rounds(rounds: Rounds) -> list:
    lines = []
    for c in rounds.configs:
        xs = rounds.ms_per_trial(c.name)
        if not xs:
            lines.append(f"ms_per_trial.{c.name}: no successful calls")
            continue
        raw = statistics.median(rounds.call_s[c.name]) * 1000.0 / c.trials
        line = (f"ms_per_trial.{c.name}: median {statistics.median(xs):.4f} ms "
                f"over {len(xs)} calls of {c.trials} trials (jobs={c.jobs})")
        p = report_percentile(len(xs))
        if p is not None:
            line += f", p{p:g} {percentile(xs, p):.4f} ms"
        lines.append(line + f"; as measured, median {raw:.4f} ms")
    return lines


def describe_layers(st: dict, rounds: Rounds) -> list:
    """Per config, the five layers with the most self time in ms per
    in-process trial, at the calibration's reference speed."""
    speed = rounds.speed()
    lines = []
    for c in rounds.configs:
        rows = {span: ns for (g, span), (ns, _) in st.items() if g == c.name}
        trials = st.get((c.name, "harness.trial"), (0, 0))[1] or rounds.attempted[c.name]
        top = sorted(rows.items(), key=lambda kv: -kv[1])[:5]
        lines.append(f"layers.{c.name}: " + ", ".join(
            f"{span} {ns * speed / 1e6 / max(trials, 1):.4g}" for span, ns in top)
            + " ms/trial")
    return lines


def emit(lines: list, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=PIN_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time one set-up in this interpreter and exit")
    return ap.parse_args(argv)


def bench(args) -> int:
    harness, digests, _ = set_up(args.workload)
    workload = WORKLOADS[args.workload]
    from calibrate import Calibration
    cal = Calibration(workload.calibration)
    configs = [CONFIGS[n] for n in workload.configs]
    mismatched = gate(digests, json.loads(PINS_FILE.read_text()), configs)
    lines = [f"env: {json.dumps(environment(), sort_keys=True)}",
             f"workload: {workload.name} ({workload.why}); closed loop, one caller, "
             f"seed {args.seed}, {args.seconds:g} s"]
    if args.trace:
        rounds, metrics = traced_run(harness, cal, args, configs, lines)
    else:
        setups = probe_setups(args.workload, SETUP_SAMPLES)
        rounds = Rounds(configs)
        with warnings.catch_warnings():
            # phased_maker_plan warns on every trial; the traced run counts it.
            warnings.simplefilter("ignore", UserWarning)
            run_rounds(harness, rounds, args.seed, args.seconds, cal)
            check_replay(harness, rounds, args.seed)
        metrics = end_to_end(rounds, setups)
        lines += describe_rounds(rounds)
        lines.append("setup_s samples, as measured: " + ", ".join(f"{s:.4f}" for s in setups)
                     + f"; speed factor {rounds.speed():.4f}")
    for name in mismatched:
        rounds.fail(CONFIGS[name], "pinned export digest mismatch")
    return finish(lines, rounds, metrics)


def traced_run(harness, cal, args, configs, lines):
    """Untraced rounds, then the same rounds traced; the per-layer metrics.
    Configs with jobs > 1 also run at jobs=1, for the fan-out speed-up."""
    reference = configs + [c.serial_twin() for c in configs if c.jobs > 1]
    untraced = Rounds(reference)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        run_rounds(harness, untraced, args.seed, args.seconds / 2, cal)
        check_replay(harness, untraced, args.seed)

    tracer = Tracer()
    verifier = Verifier(tracer)
    traced = Rounds(reference)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        ins = instrument(tracer, capture=verifier.capture)
        try:
            run_rounds(harness, traced, args.seed, args.seconds / 2, cal, tracer=tracer,
                       caught=caught)
        finally:
            ins.close()
    verifier.run(traced)
    external_ns = int(sum(sum(v) for v in traced.call_s.values()) * 1e9)
    st = tracer.self_times()
    metrics = layer_metrics(tracer, st, traced, untraced, verifier, external_ns)
    lines += describe_rounds(untraced)
    lines += describe_layers(st, traced)
    lines.append(f"trace: {len(tracer)} spans, speed factor {traced.speed():.4f}")

    for name, reason in untraced.bad.items():
        traced.bad.setdefault(name, reason)
    traced.attempted = {k: traced.attempted[k] + untraced.attempted[k]
                        for k in traced.attempted}
    for desc, share, op, threshold, passed in stress_shares(st, args.workload):
        bound = ">=" if op == "min" else "<="
        lines.append(f"stress {desc}: {share:.3f} of self time ({bound} {threshold}) "
                     f"{'PASS' if passed else 'FAIL'}")
    return traced, metrics


def finish(lines: list, rounds: Rounds, metrics: dict) -> int:
    attempted = sum(rounds.attempted.values())
    failed = rounds.failed_trials()
    lines.append(f"failed_frac: {failed / max(attempted, 1):.6f} ({failed} of {attempted} trials)")
    for name, reason in sorted(rounds.bad.items()):
        lines.append(f"FAILED {name}: {reason}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name}: {value:.6g} {unit}")
    correct = not rounds.bad
    emit(lines, correct, attempted, failed, metrics)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(set_up(args.workload)[2])
            return 0
        return bench(args)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
