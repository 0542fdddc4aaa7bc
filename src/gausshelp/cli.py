"""Command-line driver.

Subcommands: capacity, threshold, cap-area, simulate, sweep, diagnose.
Exit codes: 0 success, 1 usage error, 2 config error (a config, or a
diagnose request, that no run can honour).
"""

from __future__ import annotations

import argparse
import math
import sys

from .capacity import ChannelParams, capacity_cognizant, capacity_oblivious_feedback, \
    capacity_oblivious_nofeedback
from .codebook import CodebookSizeError
from .converse import check_budget, estimator_slack
from .geometry import achievable_rate_threshold, cap_rate_exponent, cap_ratio_exact
from .harness import (ConfigError, SweepSpec, check_eps, check_products, emit_csv,
                      parse_config, run_cell, run_sweep)
from .scheme import config_from_rates, simulate


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gausshelp",
        description="Gaussian channel with a rate-limited helper: "
                    "capacity evaluators and coding-scheme simulations.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("capacity", help="print the three capacity values for (snr, rh)")
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--rh", type=float, required=True, help="helper rate in bits/use")
    p.add_argument("--limits", action="store_true",
                   help="also print the snr->0 and rh->inf limit values")

    p = sub.add_parser("threshold", help="print the achievable-rate threshold")
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--rh", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("cap-area", help="print the cap-area ratio and rate exponent")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--phi", type=float, required=True, help="cap half-angle in radians")

    for name in ("simulate", "sweep"):
        p = sub.add_parser(name, help=f"run a {name} from a config file, emit CSV")
        p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument("--out", help="CSV output path (default: stdout)")
        p.add_argument("--repro", action="store_true",
                       help="zero the wall_time_s column for byte-identical output")
        if name == "sweep":
            p.add_argument("--workers", type=int,
                           help="CPUs to use: worker processes with one engine thread each, "
                                "or engine threads for a single cell (default: "
                                "GAUSSHELP_WORKERS, else the usable CPUs)")

    p = sub.add_parser("diagnose", help="run a cognizant simulation with correlation auditing")
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--rh", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--rate-fraction", type=float, default=0.7)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=1)
    return parser


def _emit(summaries, args):
    if args.out:
        with open(args.out, "w", newline="") as fh:
            emit_csv(summaries, fh, zero_walltime=args.repro)
    else:
        emit_csv(summaries, sys.stdout, zero_walltime=args.repro)


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "workers", None) is not None and args.workers < 1:
            parser.error(f"argument --workers: must be at least 1, got {args.workers}")
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    try:
        if args.command == "capacity":
            ch = ChannelParams.from_snr(args.snr)
            print(f"cognizant           {capacity_cognizant(ch, args.rh):.6f}")
            print(f"oblivious           {capacity_oblivious_nofeedback(ch, args.rh):.6f}")
            print(f"oblivious_feedback  {capacity_oblivious_feedback(ch, args.rh):.6f}")
            if args.limits:
                # snr -> 0: every capacity tends to rh; rh -> inf: all diverge.
                print(f"limit_snr_to_0      {args.rh:.6f}")
                print("limit_rh_to_inf     inf")
            return 0

        if args.command == "threshold":
            ch = ChannelParams.from_snr(args.snr)
            print(f"threshold_bits      {achievable_rate_threshold(ch, args.rh, args.eps):.6f}")
            return 0

        if args.command == "cap-area":
            ratio, exponent = cap_ratio_exact(args.n, args.phi), cap_rate_exponent(args.phi)
            print(f"cap_ratio           {ratio:.9g}")
            print(f"cap_rate_exponent   {exponent:.9g}")
            return 0

        if args.command in ("simulate", "sweep"):
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 2
            parsed, diagnostics = parse_config(text)
            if isinstance(parsed, SweepSpec):
                if args.command == "simulate":
                    print("config error: simulate needs a single-valued config "
                          "(use the sweep subcommand for grids)", file=sys.stderr)
                    return 2
                summaries = run_sweep(parsed, workers=args.workers)
            else:
                summaries = [run_cell(parsed, diagnostics, getattr(args, "workers", None))]
            _emit(summaries, args)
            return 0

        if args.command == "diagnose":
            if args.trials < 2:
                raise ConfigError(f"diagnose needs --trials of at least 2, got {args.trials}")
            if not 0 < args.rate_fraction < math.inf:
                raise ConfigError("diagnose needs a finite positive --rate-fraction, "
                                  f"got {args.rate_fraction}")
            if not 0 < args.snr < math.inf:
                raise ConfigError(f"diagnose needs a finite positive --snr, got {args.snr}")
            if not 0 <= args.rh < math.inf:
                raise ConfigError(f"diagnose needs a finite nonnegative --rh, got {args.rh}")
            if args.n < 2:
                raise ConfigError(f"diagnose needs --n of at least 2, got {args.n}")
            if args.eps is not None:
                check_eps(args.eps, (args.rh,))
            ch = ChannelParams.from_snr(args.snr)
            capacity = capacity_cognizant(ch, args.rh)
            check_products(args.n, ("--snr", (args.snr,), 1.0, "n*P"),
                           ("--rh", (args.rh,), 1.0, "n*R_h"),
                           ("--rate-fraction", (args.rate_fraction,), capacity,
                            "n*R = n * rate_fraction * capacity"))
            rate = args.rate_fraction * capacity
            cfg = config_from_rates(args.n, rate, args.rh, ch, args.seed,
                                    eps=args.eps, trials=args.trials)
            summary = simulate(cfg, diagnostics=True)
            slack = estimator_slack(summary.corr_profile)
            report = check_budget(summary.corr_profile, ch, cfg.helper_rate, slack)
            print(f"trials              {report.trials}")
            print(f"err_rate            {summary.err_rate:.6g}")
            print(f"corr_sum            {report.corr_sum:.6g}")
            print(f"corr_budget         {report.budget:.6g}")
            print(f"slack_3sigma        {report.slack:.6g}")
            print(f"within_budget       {'yes' if report.within_budget else 'NO'}")
            print(f"mean_abs_rho        {report.mean_abs_rho:.6g}")
            print(f"entropy_proxy_bits  {report.entropy_proxy_bits:.6g}")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CodebookSizeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    return 1


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
