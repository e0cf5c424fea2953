"""tools/bench_pairs.py: its summary on synthetic runs whose statistics are
known, and the unpacking of a base revision away from the checkout."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_of_synthetic_pairs():
    base = [{"wall_s": v, "peak_rss_mb": 40.0, "extra": 1.0}
            for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [{"wall_s": v, "peak_rss_mb": r}
              for v, r in zip((0.5, 2.5, 1.0, 2.0, 3.0), (41.0, 40.0, 39.0, 41.0, 42.0))]
    summary = bench_pairs.summarize(base, change)
    assert list(summary) == ["wall_s", "peak_rss_mb"]  # "extra" is not in every run
    wall = summary["wall_s"]
    assert wall["pairs"] == 5
    assert (wall["base_median"], wall["base_q1"], wall["base_q3"]) == (3.0, 2.0, 4.0)
    assert (wall["change_median"], wall["change_q1"], wall["change_q3"]) == (2.0, 1.0, 2.5)
    assert wall["rel_change"] == pytest.approx(2.0 / 3.0 - 1.0)
    assert wall["lower"] == 4  # 2.5 against 2.0 is the one pair not lower
    rss = summary["peak_rss_mb"]
    assert rss["rel_change"] == pytest.approx(41.0 / 40.0 - 1.0)
    assert rss["lower"] == 1  # equal readings do not count as lower
    lines = bench_pairs.format_summary(summary)
    assert lines[0] == ("wall_s: base 3 [2, 4] -> change 2 [1, 2.5] (-33.3%), lower in 4/5")
    with pytest.raises(ValueError):
        bench_pairs.summarize(base, change[:4])


def test_one_pair_has_its_value_as_both_quartiles():
    summary = bench_pairs.summarize([{"x": 2.0}], [{"x": 1.0}])
    assert summary["x"]["base_q1"] == summary["x"]["base_q3"] == 2.0
    assert summary["x"]["lower"] == 1


def _stdout(box_n5: float, item: float) -> str:
    """A run's output, shaped as perfbench prints it."""
    return "\n".join([
        "workload short-trials",
        f"ms_per_trial.item_n200: median {item:.4f} ms over 47 calls of 500 trials (jobs=1),"
        f" p75 0.0057 ms; as measured, median 0.0045 ms",
        f"ms_per_trial.box_n5: median {box_n5:.4f} ms over 9 calls of 300 trials (jobs=1);"
        " as measured, median 0.0467 ms",
        "ms_per_trial.box_n5_adversarial: no successful calls",
        "layers.box_n5: box_game.play 0.05 ms/trial",
        '{"correct": true, "metrics": {"wall_s": {"value": 0.03, "unit": "s"}}}',
    ])


def test_per_config_medians_of_synthetic_runs():
    assert bench_pairs.per_config(_stdout(0.0583, 0.0056)) == {
        "ms_per_trial.item_n200": 0.0056, "ms_per_trial.box_n5": 0.0583}
    base = [{"metrics": {"wall_s": {"value": 1.0}},
             "per_config": bench_pairs.per_config(_stdout(box, 0.005))}
            for box in (0.060, 0.070, 0.065, 0.080)]
    change = [{"metrics": {"wall_s": {"value": 1.0}},
               "per_config": bench_pairs.per_config(_stdout(box, 0.005))}
              for box in (0.050, 0.075, 0.055, 0.060)]
    summary = bench_pairs.summarize([bench_pairs._values(r) for r in base],
                                    [bench_pairs._values(r) for r in change])
    assert list(summary) == ["wall_s", "ms_per_trial.item_n200", "ms_per_trial.box_n5"]
    box = summary["ms_per_trial.box_n5"]
    assert (box["base_median"], box["change_median"]) == (pytest.approx(0.0675),
                                                          pytest.approx(0.0575))
    assert (box["base_q1"], box["base_q3"]) == (pytest.approx(0.06375), pytest.approx(0.0725))
    assert box["lower"] == 3  # 0.075 against 0.070 is the one pair not lower
    assert summary["ms_per_trial.item_n200"]["lower"] == 0
    assert bench_pairs.format_summary(summary)[2].endswith("(-14.8%), lower in 3/4")


def test_unpack_extracts_a_revision_and_leaves_the_checkout_alone(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True,
                              text=True).stdout.strip()

    git("init", "-q")
    (repo / "a.txt").write_text("first\n")
    git("add", "a.txt")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "one")
    (repo / "a.txt").write_text("edited in the checkout\n")
    dest = tmp_path / "base"
    dest.mkdir()
    sha = bench_pairs.unpack("HEAD", dest, repo)
    assert sha == git("rev-parse", "HEAD")
    assert (dest / "a.txt").read_text() == "first\n"
    assert (repo / "a.txt").read_text() == "edited in the checkout\n"
