"""Tests of the benchmark's own code: self-time arithmetic, the percentile
rule, the export-digest gate and the tracer's coverage.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import json
import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from calibrate import Calibration  # noqa: E402
from tracer import NO_PARENT, Tracer, instrument  # noqa: E402
from workloads import CONFIGS, PIN_SEED  # noqa: E402

harness = run.load_harness()


def add_span(tracer, name, start, end, parent=NO_PARENT, group="g"):
    """Append a finished synthetic span; returns its index."""
    tracer.set_group(group)
    idx = tracer.open(name)
    tracer.close(idx)
    tracer.start[idx] = start
    tracer.end[idx] = end
    tracer.parent[idx] = parent
    return idx


def test_self_time_subtracts_children_at_every_level():
    t = Tracer()
    root = add_span(t, "root", 0, 100)
    a = add_span(t, "a", 10, 40, root)
    add_span(t, "leaf", 20, 30, a)
    add_span(t, "b", 50, 70, root)
    st = t.self_times()
    assert st[("g", "root")] == (50, 1)
    assert st[("g", "a")] == (20, 1)
    assert st[("g", "leaf")] == (10, 1)
    assert st[("g", "b")] == (20, 1)
    assert sum(ns for ns, _ in st.values()) == 100


def test_self_time_sums_repeated_names_and_clips_overhanging_children():
    t = Tracer()
    root = add_span(t, "root", 0, 50)
    add_span(t, "seek", 0, 10, root)
    add_span(t, "seek", 40, 60, root)   # ends past its parent: only 10 covered
    st = t.self_times()
    assert st[("g", "root")] == (30, 1)
    assert st[("g", "seek")] == (30, 2)


def test_self_time_keeps_groups_apart():
    t = Tracer()
    add_span(t, "root", 0, 10, group="x")
    add_span(t, "root", 10, 40, group="y")
    st = t.self_times()
    assert st[("x", "root")] == (10, 1)
    assert st[("y", "root")] == (30, 1)


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_reported_percentile_has_ten_samples_beyond_it(n, expected):
    assert run.report_percentile(n) == expected
    if expected is not None:
        assert n * (1 - expected / 100) >= 10 - 1e-9


def test_percentile_interpolates():
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75.0) == 4.0
    assert run.percentile([1.0, 2.0], 50.0) == 1.5


def pinned_export(config):
    cfg = run.trial_config(harness, config, config.trials, PIN_SEED)
    return run.export_bytes(harness, harness.run_trials(cfg, jobs=config.jobs))


def test_digest_gate_accepts_pinned_and_rejects_perturbed_export():
    pins = json.loads(run.PINS_FILE.read_text())
    configs = [CONFIGS["item_n200"], CONFIGS["box_n5"]]
    good = {c.name: run.digest(pinned_export(c)) for c in configs}
    assert run.gate(good, pins, configs) == set()

    data = pinned_export(CONFIGS["item_n200"])
    perturbed = data.replace(b'"trials": 500', b'"trials": 501')
    assert perturbed != data
    bad = dict(good, item_n200=run.digest(perturbed))
    assert run.gate(bad, pins, configs) == {"item_n200"}
    assert run.gate(dict(good, box_n5=None), pins, configs) == {"box_n5"}


def test_parallel_export_matches_serial_pin():
    """Pins are made at jobs=1, so this is the jobs=1 versus jobs=2 check."""
    pins = json.loads(run.PINS_FILE.read_text())
    config = CONFIGS["item_n200_jobs2"]
    assert config.jobs == 2
    assert run.digest(pinned_export(config)) == pins[config.name]


def test_benchmark_exits_nonzero_when_export_is_perturbed(monkeypatch, capsys):
    real_export = harness.export

    def perturbed(agg, fmt, destination):
        real_export(agg, fmt, destination)
        destination.write(" ")

    monkeypatch.setattr(harness, "export", perturbed)
    monkeypatch.setattr(run, "probe_setups", lambda *args: [1.0])
    code = run.main(["--workload", "fanout", "--seed", "5", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_traced_run_covers_measured_time_and_restores_the_library():
    """Also checks that the run emits exactly the metrics BENCHMARK.json
    declares, with the same units."""
    config = CONFIGS["box_n5"]
    originals = (harness.run_trials, harness.play, harness.generate_market)
    tracer = Tracer()
    verifier = run.Verifier(tracer)
    traced = run.Rounds([config])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        ins = instrument(tracer, capture=verifier.capture)
        try:
            run.run_rounds(harness, traced, 3, 0.0, Calibration("interpreter"),
                           tracer=tracer, caught=caught)
        finally:
            ins.close()
    assert (harness.run_trials, harness.play, harness.generate_market) == originals
    verifier.run(traced)
    external_ns = int(sum(traced.call_s[config.name]) * 1e9)
    metrics = run.layer_metrics(tracer, tracer.self_times(), traced, traced, verifier,
                                external_ns)
    assert 0.95 <= metrics["trace.coverage_frac"][0] <= 1.0 + 1e-9
    assert metrics["verify.checked"][0] >= run.MIN_ROUNDS * config.trials
    assert metrics["verify.failed"][0] == 0
    assert not traced.bad

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert set(run.end_to_end(traced, [1.0])) == {m["name"] for m in declared["end_to_end"]}
    units = {m["name"]: m["unit"] for m in declared["per_layer"] + declared["end_to_end"]}
    assert all(units[name] == unit for name, (_, unit) in metrics.items())


def test_verifier_flags_a_cost_that_does_not_match_the_positions():
    tracer = Tracer()
    tracer.set_group("box_n5")
    verifier = run.Verifier(tracer)
    rounds = run.Rounds([CONFIGS["box_n5"]])
    verifier.records.append(("box_n5", True, ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0)),
                             0.5, 0.25))
    verifier.run(rounds)
    assert (verifier.checked, verifier.failed) == (2, 1)
    assert "box_n5" in rounds.bad
