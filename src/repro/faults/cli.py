"""``repro faults`` — run a Monte-Carlo fault campaign from the shell.

Examples::

    repro faults --trials 10000                  # default kinds, seed 2006
    repro faults --trials 100000 --kinds upset   # vulnerability study
    repro faults --executor both                 # batched vs reference gate
    repro faults --target-ci 0.01                # Wilson early stopping
    repro faults --heatmap --json > mc.json      # report + heatmap artifact

The campaign calibrates the rig by real simulation first (a handful of
robust loads), then classifies every sampled strike closed-form; see
``docs/FAULTS.md`` for the model and the estimator.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..reporting import format_table
from .campaign import parse_kinds
from .heatmap import empirical_vulnerability, render_heatmap
from .montecarlo import check_campaign_arguments, run_mc_campaign
from .sampling import DEFAULT_MC_KINDS


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, default=10000, metavar="N",
                        help="trials per fault kind (default 10000)")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--kernel", default="brightness")
    parser.add_argument("--kinds", default=",".join(DEFAULT_MC_KINDS),
                        metavar="K1,K2,...",
                        help=f"fault kinds (default {','.join(DEFAULT_MC_KINDS)})")
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument("--batch", type=int, default=8192, metavar="N",
                        help="trials classified per batch (default 8192)")
    parser.add_argument("--target-ci", type=float, default=None, metavar="W",
                        help="stop a kind early once every Wilson 95%% "
                        "half-width closes below W")
    parser.add_argument("--executor", default="batch",
                        choices=["batch", "reference", "both"],
                        help="'both' runs both and enforces equivalence")
    parser.add_argument("--heatmap", action="store_true",
                        help="print the empirical vulnerability heatmap "
                        "(needs the 'upset' kind)")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable report to stdout")


def run(args: argparse.Namespace) -> int:
    from ..scenarios.rigs import build_rig64

    # Validate before calibrating: calibration runs real simulations.
    kinds = parse_kinds(args.kinds, DEFAULT_MC_KINDS)
    check_campaign_arguments(kinds, args.trials, args.batch, args.max_attempts)
    report = run_mc_campaign(
        build_rig64, kinds=kinds, trials=args.trials, seed=args.seed,
        kernel=args.kernel, max_attempts=args.max_attempts,
        batch_size=args.batch, target_half_width=args.target_ci,
        executor=args.executor,
    )

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        rows: List[List[object]] = []
        for stratum in report.strata():
            estimate = stratum.get("vulnerability", stratum.get("recovery_rate"))
            lo, hi = stratum.get(
                "vulnerability_ci95", stratum.get("recovery_ci95", [0.0, 1.0])
            )
            rows.append(
                [
                    stratum["kind"],
                    stratum["region"],
                    stratum["trials"],
                    f"{estimate:.4f}",
                    f"[{lo:.4f}, {hi:.4f}]",
                    (
                        f"{stratum['analytic_vulnerability']:.4f}"
                        if "analytic_vulnerability" in stratum
                        else "-"
                    ),
                ]
            )
        print(
            format_table(
                f"Monte-Carlo fault campaign: {report.total_trials} trial(s), "
                f"seed {args.seed}"
                + (" (equivalence-checked)" if args.executor == "both" else ""),
                ["kind", "region", "trials", "estimate", "wilson 95% CI", "analytic"],
                rows,
            )
        )
        for entry in report.kind_summary():
            lo, hi = entry["recovery_ci95"]
            stopped = " (stopped early)" if entry["stopped_early"] else ""
            print(
                f"  {entry['kind']:12s} recovery {entry['recovery_rate']:.4f} "
                f"[{lo:.4f}, {hi:.4f}] over {entry['trials']} trial(s), "
                f"p50/p99/p999 recovery "
                f"{entry['p50_ps'] / 1e9:.1f}/{entry['p99_ps'] / 1e9:.1f}/"
                f"{entry['p999_ps'] / 1e9:.1f} ms{stopped}"
            )
    if args.heatmap:
        if "upset" in report.batches:
            strikes, criticals = report.frame_tallies()
            values = empirical_vulnerability(report.space, strikes, criticals)
            title = f"empirical, {report.trials_run['upset']} upset trial(s)"
        else:
            values = None
            title = "per-frame vulnerability (analytic)"
        print()
        print(render_heatmap(report.space, values, title=title))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="Vectorized Monte-Carlo fault campaigns (docs/FAULTS.md).",
    )
    add_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
