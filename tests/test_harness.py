"""Harness and CLI tests: determinism, aggregation, exports, exit codes."""

import io
import json
import subprocess
import sys
import warnings

import pytest

from purchase_games import harness
from purchase_games.cli import cli_main
from purchase_games.harness import TrialAggregate, TrialConfig, confidence_interval, export, run_trials
from purchase_games.item_game import breaker_closed_form, single_threshold_maker


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


@pytest.mark.parametrize("maker, breaker, b", [
    ("single_threshold", "closed_form", 1),
    ("dp", "never", 0),
    ("phased", "cheap_grab", 3),
])
def test_item_trials_never_build_the_permutation(monkeypatch, maker, breaker, b):
    markets = []
    real = harness.generate_market

    def recording(*args, **kwargs):
        markets.append(real(*args, **kwargs))
        return markets[-1]

    monkeypatch.setattr(harness, "generate_market", recording)
    agg = run_trials(_cfg(n=400, b=b, trials=30, maker=maker, breaker=breaker), jobs=1)
    assert agg.success_count == 30
    assert len(markets) == 30
    assert all(m._perm is None for m in markets)


def test_phased_run_warns_once_per_call():
    cfg = _cfg(n=200, b=2, trials=25, maker="phased", breaker="cheap_grab")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        run_trials(cfg, jobs=1)
    assert len([w for w in caught if "cost guarantee degrades" in str(w.message)]) == 1


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
    path = str(tmp_path / "agg.json")
    export(agg, "json", path)
    with open(path) as fh:
        assert json.load(fh)["trials"] == 10
    with pytest.raises(OSError):
        export(agg, "json", str(tmp_path / "missing" / "agg.json"))


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


def test_pg_jobs_env_default(monkeypatch):
    monkeypatch.setenv("PG_JOBS", "2")
    cfg = _cfg(trials=64, jobs=0)
    a_env = run_trials(cfg)          # picks up PG_JOBS=2
    a_one = run_trials(cfg, jobs=1)
    assert a_env == a_one
