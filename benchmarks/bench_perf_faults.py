"""Host-wall-clock perf bench for the Monte-Carlo fault campaigns.

Runs the headline campaign — ≥100,000 trials (25,000 per default kind,
seed 2006) on the calibrated 64-bit rig — through both executors:

* **batch** — vectorized closed-form classification
  (:mod:`repro.faults.montecarlo`);
* **reference** — the per-trial scalar loop that defines the semantics.

Both consume the identical sampled fault load; the bench times them apart,
gates on ``require_equivalent`` (byte-identical ``TrialResult`` streams
and reports), and enforces that the batched path beats the reference by
the ``--check`` speedup floor and that the whole campaign (calibration
simulations included) fits the end-to-end budget.  Writes ``benchmarks/results/BENCH_faults.json``
(recovery rates and vulnerability factors with Wilson 95% intervals)
plus the vulnerability heatmap artifact
``benchmarks/results/fault_heatmap.txt``.

Run directly (report-only)::

    PYTHONPATH=src python benchmarks/bench_perf_faults.py

or with ``--check`` to enforce the floors in CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.errors import CheckError  # noqa: E402
from repro.faults.heatmap import empirical_vulnerability, render_heatmap  # noqa: E402
from repro.faults.montecarlo import calibrate_rig, require_equivalent, run_mc_campaign  # noqa: E402
from repro.faults.sampling import DEFAULT_MC_KINDS  # noqa: E402
from repro.scenarios.rigs import build_rig64  # noqa: E402

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results", "BENCH_faults.json")
HEATMAP_PATH = os.path.join(os.path.dirname(__file__), "results", "fault_heatmap.txt")

#: --check floor: batched speedup over the per-trial reference on the
#: headline campaign (measured far higher on the dev container).
SPEEDUP_FLOOR = 10.0

#: --check floor: headline campaign size (trials across all kinds).
MIN_TOTAL_TRIALS = 100_000

#: --check budget: whole campaign end-to-end (calibration + both
#: executors + equivalence), host seconds.
END_TO_END_BUDGET_S = 120.0


def run(check: bool, trials: int, seed: int) -> int:
    failures = []
    total_requested = trials * len(DEFAULT_MC_KINDS)
    if check and total_requested < MIN_TOTAL_TRIALS:
        failures.append(
            f"headline campaign has {total_requested} trials "
            f"< {MIN_TOTAL_TRIALS} floor"
        )

    wall0 = time.perf_counter()
    t0 = time.perf_counter()
    rig = calibrate_rig(build_rig64, kernel="brightness", max_attempts=3)
    calibration_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batch = run_mc_campaign(
        rig=rig, kinds=DEFAULT_MC_KINDS, trials=trials, seed=seed,
        executor="batch",
    )
    batch_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    reference = run_mc_campaign(
        rig=rig, kinds=DEFAULT_MC_KINDS, trials=trials, seed=seed,
        executor="reference",
    )
    reference_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        require_equivalent(batch, reference)
        equivalent = True
    except CheckError as exc:
        failures.append(str(exc))
        equivalent = False
    equivalence_s = time.perf_counter() - t0
    end_to_end_s = time.perf_counter() - wall0

    speedup = reference_s / batch_s if batch_s else float("inf")
    rate = batch.total_trials / batch_s if batch_s else float("inf")
    print(
        f"headline ({batch.total_trials} trials, {len(DEFAULT_MC_KINDS)} kinds, "
        f"seed {seed}): batch {batch_s:7.3f} s  reference {reference_s:7.3f} s  "
        f"speedup {speedup:6.1f}x  ({rate / 1e6:.2f} M trials/s batched)"
    )
    print(
        f"  calibration {calibration_s:.2f} s "
        f"({5 + rig.model.max_attempts} simulations), "
        f"equivalence check {equivalence_s:.2f} s, "
        f"end-to-end {end_to_end_s:.2f} s"
    )
    for entry in batch.kind_summary():
        lo, hi = entry["recovery_ci95"]
        print(
            f"  {entry['kind']:12s} recovery {entry['recovery_rate']:.4f} "
            f"[{lo:.4f}, {hi:.4f}] over {entry['trials']} trial(s)"
        )
    overall = next(
        s for s in batch.strata() if s["kind"] == "upset" and s["region"] == "all"
    )
    lo, hi = overall["vulnerability_ci95"]
    print(
        f"  vulnerability {overall['vulnerability']:.4f} [{lo:.4f}, {hi:.4f}] "
        f"(analytic {overall['analytic_vulnerability']:.4f})"
    )

    if check and speedup < SPEEDUP_FLOOR:
        failures.append(f"speedup {speedup:.1f}x < {SPEEDUP_FLOOR:.0f}x floor")
    if check and end_to_end_s > END_TO_END_BUDGET_S:
        failures.append(
            f"end-to-end {end_to_end_s:.1f} s > {END_TO_END_BUDGET_S:.0f} s budget"
        )
    if not (lo <= overall["analytic_vulnerability"] <= hi):
        failures.append(
            f"vulnerability CI [{lo:.4f}, {hi:.4f}] excludes the analytic "
            f"fraction {overall['analytic_vulnerability']:.4f}"
        )

    report = {
        "schema": "repro-faults-bench/1",
        "unit": "host seconds per campaign",
        "workload": (
            f"{trials} trials x {len(DEFAULT_MC_KINDS)} kinds, seed {seed}, "
            "64-bit rig"
        ),
        "trials_total": batch.total_trials,
        "host_s_calibration": round(calibration_s, 6),
        "host_s_batch": round(batch_s, 6),
        "host_s_reference": round(reference_s, 6),
        "host_s_end_to_end": round(end_to_end_s, 6),
        "speedup": round(speedup, 2),
        "trials_per_s_batch": round(rate, 1),
        "equivalent": equivalent,
        **batch.to_dict(),
    }

    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    with open(RESULTS_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {RESULTS_PATH}")

    strikes, criticals = batch.frame_tallies()
    heatmap = "\n\n".join(
        [
            render_heatmap(
                rig.space,
                empirical_vulnerability(rig.space, strikes, criticals),
                title=f"empirical, {batch.trials_run['upset']} upset trial(s), "
                f"seed {seed}",
            ),
            render_heatmap(rig.space),
        ]
    )
    with open(HEATMAP_PATH, "w") as handle:
        handle.write(heatmap)
        handle.write("\n")
    print(f"wrote {HEATMAP_PATH}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="enforce the speedup/size/budget floors (default: report-only)",
    )
    parser.add_argument(
        "--trials", type=int, default=25_000, help="trials per fault kind"
    )
    parser.add_argument("--seed", type=int, default=2006)
    args = parser.parse_args()
    return run(check=args.check, trials=args.trials, seed=args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
