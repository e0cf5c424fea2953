"""Command-line interface.

Subcommands: ``item``, ``clique``, ``path``, ``box`` run Monte Carlo trials
and emit a JSON or CSV aggregate; ``oracle`` runs the exact solvers;
``schedules`` prints the single-threshold Maker schedule and Breaker's best
response.  Exit codes: 0 success, 1 configuration/usage error, 2 a
``--assert-*`` bound failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import harness, item_game, oracle
from .engine import _opened

__all__ = ["main", "cli_main"]


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: PG_JOBS or 1)")
    p.add_argument("--assert-min-success", type=float, default=None)
    p.add_argument("--assert-max-mean-cost", type=float, default=None)
    p.add_argument("--assert-min-mean-cost", type=float, default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="purchase-games",
                     description="Online purchase-game simulations and exact oracles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("item", help="single-item game trials")
    _add_shared(p)
    p.add_argument("--phases", type=int, default=1)
    p.add_argument("--maker", default="single_threshold")
    p.add_argument("--breaker", default="closed_form")

    p = sub.add_parser("clique", help="triangle / k-clique game trials")
    _add_shared(p)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--maker", default="triangle")
    p.add_argument("--breaker", default="mimic")

    p = sub.add_parser("path", help="terminal-connection game trials")
    _add_shared(p)
    p.add_argument("--k", type=int, default=None, help="override phase parameter")
    p.add_argument("--override-scale", type=float, default=1.0)
    p.add_argument("--maker", default="path")
    p.add_argument("--breaker", default="cheap_grab")

    p = sub.add_parser("box", help="box game trials")
    _add_shared(p)
    p.add_argument("--m", type=int, required=True, help="balls per box")
    p.add_argument("--ordering", choices=["random", "adversarial"], default="random")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--maker", default="minbox")
    p.add_argument("--breaker", default="focus")

    p = sub.add_parser("oracle", help="exact solvers")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    ob = osub.add_parser("box", help="box game minimax winner")
    ob.add_argument("--n", type=int, required=True)
    ob.add_argument("--b", type=int, required=True)
    ob.add_argument("--m", type=int, required=True)
    ob.add_argument("--ordering", choices=["adversarial", "fixed"], default="adversarial")
    ob.add_argument("--sequence", default=None,
                    help="comma-separated box ids for fixed mode")
    ob.add_argument("--breaker-first", action="store_true",
                    help="solve under the Breaker-moves-first convention")
    od = osub.add_parser("item-dp", help="optimal stopping values at b=0")
    od.add_argument("--n", type=int, required=True)
    om = osub.add_parser("item-minimax", help="discretized exact item game value")
    om.add_argument("--n", type=int, required=True)
    om.add_argument("--b", type=int, default=1)
    om.add_argument("--grid", type=int, default=3)

    p = sub.add_parser("schedules", help="print maker/breaker threshold tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--out", default=None)

    return parser


def _emit(text: str, out: Optional[str]) -> None:
    with _opened(sys.stdout if out is None else out, "w") as fh:
        fh.write(text)


def _run_game(args) -> int:
    if not 0 <= args.seed < 2**64:  # the library would reduce it mod 2**64
        raise _CliError(f"--seed must lie in [0, 2**64), got {args.seed}")
    cfg = harness.TrialConfig(
        game=args.command,
        n=args.n,
        b=args.b,
        trials=args.trials,
        master_seed=args.seed,
        maker=args.maker,
        breaker=args.breaker,
        phases=getattr(args, "phases", 1),
        k=getattr(args, "k", None),
        m=getattr(args, "m", None),
        ordering=getattr(args, "ordering", "random"),
        eps=getattr(args, "eps", 0.5),
        override_scale=getattr(args, "override_scale", 1.0),
        jobs=args.jobs or 0,
    )
    agg = harness.run_trials(cfg, jobs=args.jobs)
    harness.export(agg, args.format, sys.stdout if args.out is None else args.out)

    failed = []
    if args.assert_min_success is not None and agg.success_rate < args.assert_min_success:
        failed.append(f"success_rate {agg.success_rate} < {args.assert_min_success}")
    mean = agg.mean_cost_all
    if args.assert_max_mean_cost is not None and (mean is None or mean > args.assert_max_mean_cost):
        failed.append(f"mean_cost_all {mean} > {args.assert_max_mean_cost}")
    if args.assert_min_mean_cost is not None and (mean is None or mean < args.assert_min_mean_cost):
        failed.append(f"mean_cost_all {mean} < {args.assert_min_mean_cost}")
    if failed:
        for f in failed:
            sys.stderr.write(f"assertion failed: {f}\n")
        return 2
    return 0


def _run_oracle(args) -> int:
    if args.oracle_command == "box":
        ordering = None
        if args.ordering == "fixed":
            if args.sequence is None:
                raise _CliError("fixed mode needs --sequence")
            ordering = [int(x) for x in args.sequence.split(",")]
        result = oracle.box_minimax(args.n, args.m, args.b,
                                    ordering_mode=args.ordering, ordering=ordering,
                                    maker_first=not args.breaker_first)
        sys.stdout.write(result.to_json_record() + "\n")
        return 0
    if args.oracle_command == "item-dp":
        dp = oracle.item_b0_dp(args.n)
        record = oracle.oracle_json_record(
            {"oracle": "item-dp", "n": args.n}, value=dp.value)
        sys.stdout.write(record + "\n")
        return 0
    if args.oracle_command == "item-minimax":
        value = oracle.item_discrete_minimax(args.n, args.b, args.grid)
        record = oracle.oracle_json_record(
            {"oracle": "item-minimax", "n": args.n, "b": args.b, "grid": args.grid},
            value=value)
        sys.stdout.write(record + "\n")
        return 0
    raise _CliError(f"unknown oracle command {args.oracle_command!r}")


def _run_schedules(args) -> int:
    maker = item_game.single_threshold_maker(args.n)
    breaker = item_game.breaker_closed_form(args.n)
    lines = ["position maker_threshold breaker_threshold"]
    for i in range(args.n):
        lines.append(f"{i + 1} {maker.values[i]:.17g} {breaker.values[i]:.17g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cli_main(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("item", "clique", "path", "box"):
            return _run_game(args)
        if args.command == "oracle":
            return _run_oracle(args)
        if args.command == "schedules":
            return _run_schedules(args)
        raise _CliError(f"unknown command {args.command!r}")
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write("run with --help for usage\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
