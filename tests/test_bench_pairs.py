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
