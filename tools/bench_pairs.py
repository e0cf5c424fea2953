"""Run the benchmark on a base revision and on the working tree, in pairs.

The base revision is unpacked with ``git archive`` into a temporary
directory, so the checkout is never written to.  Pair i runs

    python3 perfbench/run.py --workload W --seed S+i --seconds T --trace 0

in both trees, the base first when i is even and the working tree first
when it is odd, and reads the JSON line each run ends with and the
``ms_per_trial.<config>: median ...`` line it prints for each config.  For
every end-to-end metric and every config's median it prints both sides'
medians and quartiles, the relative change of the medians and in how many
pairs the working tree read lower:

    python3 tools/bench_pairs.py --base HEAD --workload short-trials --pairs 10

``--json PATH`` also writes every run and the summary.
"""

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unpack(rev: str, dest: Path, repo: Path = ROOT) -> str:
    """Extract revision ``rev`` of ``repo`` into ``dest``; return its hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=repo,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=repo,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return sha


_PER_CONFIG = re.compile(r"(ms_per_trial\.\S+): median (\S+) ms ")


def per_config(stdout: str) -> dict:
    """Each config's median ms/trial, by its ``ms_per_trial.<config>`` name,
    from the ``ms_per_trial.<config>: median <x> ms over ...`` lines of a
    run's output."""
    return {match[1]: float(match[2])
            for match in map(_PER_CONFIG.match, stdout.splitlines()) if match}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its final JSON line, with
    ``per_config`` (``per_config``) added."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run in {tree} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["per_config"] = per_config(proc.stdout)
    return result


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(base: list, change: list) -> dict:
    """Per metric, over paired runs (``base[i]`` and ``change[i]`` map a
    metric name to its value in pair i): each side's median and quartiles,
    the relative change of the medians and the pairs where the change read
    lower.  Only metrics present in every run are summarized."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of runs on each side")
    names = [name for name in base[0] if all(name in run for run in base + change)]
    summary = {}
    for name in names:
        before = [run[name] for run in base]
        after = [run[name] for run in change]
        row = {"pairs": len(base)}
        for side, values in (("base", before), ("change", after)):
            row[f"{side}_median"] = statistics.median(values)
            row[f"{side}_q1"], row[f"{side}_q3"] = _quartiles(values)
        row["rel_change"] = (row["change_median"] / row["base_median"] - 1.0
                             if row["base_median"] else None)
        row["lower"] = sum(a < b for a, b in zip(after, before))
        summary[name] = row
    return summary


def format_summary(summary: dict) -> list:
    lines = []
    for name, row in summary.items():
        rel = "n/a" if row["rel_change"] is None else f"{row['rel_change']:+.1%}"
        lines.append(
            f"{name}: base {row['base_median']:.6g} [{row['base_q1']:.6g}, {row['base_q3']:.6g}]"
            f" -> change {row['change_median']:.6g} [{row['change_q1']:.6g},"
            f" {row['change_q3']:.6g}] ({rel}), lower in {row['lower']}/{row['pairs']}")
    return lines


def _values(result: dict) -> dict:
    """A run's end-to-end metrics, then its configs' medians."""
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values.update(result.get("per_config", {}))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--json", type=Path, help="write every run and the summary here")
    args = parser.parse_args(argv)
    report = {"command": "python3 perfbench/run.py --workload W --seed S --seconds "
                         f"{args.seconds:g} --trace 0", "workloads": {}}
    correct = True
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        report["base"] = unpack(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, args.seconds)
                    correct &= bool(pair[side].get("correct"))
                pairs.append(pair)
                print(f"{workload} pair {i} seed {seed}: base {_values(pair['base'])}"
                      f" change {_values(pair['change'])}", flush=True)
            summary = summarize([_values(p["base"]) for p in pairs],
                                [_values(p["change"]) for p in pairs])
            report["workloads"][workload] = {"pairs": pairs, "summary": summary}
            print(f"== {workload}: {args.pairs} pairs, seeds {args.seed}.."
                  f"{args.seed + args.pairs - 1}, base {report['base'][:12]}")
            print("\n".join(format_summary(summary)), flush=True)
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    if not correct:
        print("some run did not end correct: true", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
