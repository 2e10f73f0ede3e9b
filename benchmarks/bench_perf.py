"""Host-wall-clock gate: every fast path must still pay its way.

Each workload runs twice, once on its fast path and once on the reference
path that fast path is pinned to, and the two runs must agree on every
simulated observable:

* **transfer** -- DMA interleaved sequences on the 64-bit system
  (vectorized bursts vs the per-beat bus);
* **reconfig** -- a complete bitstream load on the 64-bit rig (vectorized
  ICAP datapath vs word-by-word), and a robust load plus a scrub after an
  upset (compiled ICAP readback scans vs frame-by-frame readback);
* **engine** -- the ``perf_engine_e2e`` PIO driver loops on both rigs
  (steady-state compiler vs the event-by-event interpreter);
* **serve** -- the 1M-request Poisson headline trace (vectorized scheduler
  vs the scalar per-request interpreter);
* **faults** -- a 100k-trial Monte-Carlo campaign (batched classifier vs
  the per-trial reference executor), gated by ``require_equivalent``.

The first four switch paths with :mod:`repro.engine.fastpath`; the faults
campaign switches executors.  Observable equality and the faults Wilson
interval's coverage of the analytic vulnerability are always enforced.
``--check`` also enforces the ``FLOORS`` speedups, the serve and faults
workload sizes and the faults end-to-end budget.  Prints one line per
``FLOORS`` row and writes one record per row to
``benchmarks/results/BENCH_perf.json``::

    PYTHONPATH=src python benchmarks/bench_perf.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.core import TransferBench, build_system64  # noqa: E402
from repro.engine import fastpath  # noqa: E402
from repro.errors import CheckError  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.faults.montecarlo import calibrate_rig, require_equivalent, run_mc_campaign  # noqa: E402
from repro.faults.sampling import DEFAULT_MC_KINDS  # noqa: E402
from repro.scenarios.perf import checksum, engine_workload_tasks  # noqa: E402
from repro.scenarios.rigs import build_rig32, build_rig64  # noqa: E402
from repro.scenarios.serve import build_serve_inputs  # noqa: E402
from repro.serve.engine import ServeConfig, simulate  # noqa: E402
from repro.serve.report import ServeReport  # noqa: E402

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results", "BENCH_perf.json")

#: Row -> least fast-over-reference host-time speedup ``--check`` accepts.
#: patmatch and lookup2 interleave per-strip/per-block software work with
#: their streaming loops, so their floors sit below the pure image tasks.
FLOORS = {
    "transfer/dma_interleaved_200000": 10.0,
    "transfer/table8_interleaved_8192": 5.0,
    "transfer/table8_interleaved_32768": 5.0,
    "reconfig/complete_load": 10.0,
    "reconfig/robust_scan": 10.0,
    "engine/system32/brightness": 10.0,
    "engine/system32/fade": 10.0,
    "engine/system64/brightness": 10.0,
    "engine/system64/fade": 10.0,
    "engine/system32/patmatch": 1.5,
    "engine/system32/lookup2": 3.0,
    "serve/headline": 10.0,
    "faults/headline": 10.0,
}

SEED = 2006
#: Words per DMA interleaved sequence: the 200k stress length and the
#: Table 8 lengths.
TRANSFER_WORDS = {
    "transfer/dma_interleaved_200000": 200_000,
    "transfer/table8_interleaved_8192": 8192,
    "transfer/table8_interleaved_32768": 32768,
}
ENGINE_SIZE = 96  # engine workload image height and width
SERVE_REQUESTS = 1_000_000
FAULT_TRIALS = 25_000  # per default fault kind
MIN_FAULT_TRIALS = 100_000
#: Calibration, both executors and the equivalence gate, host seconds.
FAULTS_BUDGET_S = 120.0


def timed(thunk):
    """Run ``thunk``; return its result and the host seconds it took."""
    start = time.perf_counter()
    result = thunk()
    return result, time.perf_counter() - start


def same_observables(fast, reference) -> None:
    """Raise :class:`CheckError` naming every observable the paths disagree on."""
    diverged = [key for key in fast if fast[key] != reference[key]]
    if diverged:
        raise CheckError(
            f"observable(s) {', '.join(map(repr, diverged))} diverged "
            "between the fast and reference paths"
        )


class Bench:
    """Host seconds per row and the failed gates, across every workload."""

    def __init__(self) -> None:
        self.timings = {}
        self.failures = []

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def compare(self, workload, fast, reference, gate=same_observables):
        """Run ``workload(fast)`` then ``workload(reference)``.

        Each run returns ``({row: host seconds}, observables)``.  Records
        both timings per row, gates the observables and returns the fast
        run's.
        """
        fast_s, fast_obs = workload(fast)
        reference_s, reference_obs = workload(reference)
        for row in fast_s:
            self.timings[row] = (fast_s[row], reference_s[row])
        try:
            gate(fast_obs, reference_obs)
        except CheckError as exc:
            self.failures.append(f"{', '.join(fast_s)}: {exc}")
        return fast_obs


def transfer_rows(path):
    seconds, observables = {}, {}
    with path():
        for row, words in TRANSFER_WORDS.items():
            transfers = TransferBench(build_system64())
            result, seconds[row] = timed(lambda: transfers.dma_interleaved_sequence(words))
            observables[row] = result.total_ps
    return seconds, observables


def reconfig_rows(path):
    """One load/swap/clear cycle; only the complete load is timed."""
    with path():
        system, manager = build_rig64()  # the rig build stays outside the timer
        load, seconds = timed(lambda: manager.load("brightness"))
        results = [load, manager.load("lookup2", differential=True), manager.clear()]
        icap, memory = system.hwicap, system.config_memory
        return {"reconfig/complete_load": seconds}, {
            "now_ps": system.cpu.now_ps,
            "results": [
                (r.kernel_name, r.kind, r.frame_count, r.word_count, r.elapsed_ps)
                for r in results
            ],
            "frames_written": icap.frames_written,
            "crc_failures": icap.crc_failures,
            "memory_writes": memory.writes,
            "memory_reads": memory.reads,
            "icap_stats": icap.stats.snapshot(),
        }


def robust_scan_rows(path):
    """``load_robust`` plus a ``scrub`` after one upset, both timed."""
    with path():
        system, manager = build_rig64()
        plan = FaultPlan(SEED, upset_flips=3)

        def scans():
            result = manager.load_robust("brightness")
            plan.upset_now(system.config_memory)
            return result, manager.scrub()

        (result, report), seconds = timed(scans)
        icap = system.hwicap
        return {"reconfig/robust_scan": seconds}, {
            "now_ps": system.cpu.now_ps,
            "result": result,
            "report": report,
            "stats": {
                part.stats.name: part.stats.snapshot()
                for part in (system.cpu, system.plb, system.opb, icap)
            },
            "memory_reads": system.config_memory.reads,
            "frames_read_back": icap.frames_read_back,
        }


def engine_rows(path):
    seconds, observables = {}, {}
    with path():
        for label, build in (("system32", build_rig32), ("system64", build_rig64)):
            system, manager = build()
            # Timers wrap exactly each driver loop; the kernel loads between
            # them stay untimed.
            tasks = engine_workload_tasks(system, manager, ENGINE_SIZE, ENGINE_SIZE)
            for task, thunk in tasks:
                result, seconds[f"engine/{label}/{task}"] = timed(thunk)
                observables[f"{label}/{task}"] = (result.elapsed_ps, checksum(result.result))
            parts = [system.cpu, system.plb, system.dock,
                     getattr(system, "opb", None), getattr(system.dock, "fifo", None)]
            observables[f"{label}/now_ps"] = system.cpu.now_ps
            observables[f"{label}/stats"] = {
                part.stats.name: part.stats.snapshot() for part in parts if part is not None
            }
    return seconds, observables


def serve_rows(table, trace, path):
    """The headline fifo/lru simulation; calibration and trace stay untimed."""
    with path():
        outcome, seconds = timed(
            lambda: simulate(trace, table, ServeConfig(queue="fifo", residency="lru"))
        )
    report = ServeReport.from_outcome(outcome).to_dict()
    return {"serve/headline": seconds}, {**outcome.observables(), "report": report}


def faults_rows(rig, executor):
    report, seconds = timed(
        lambda: run_mc_campaign(
            rig=rig, kinds=DEFAULT_MC_KINDS, trials=FAULT_TRIALS, seed=SEED,
            executor=executor,
        )
    )
    return {"faults/headline": seconds}, report


def run(check: bool) -> int:
    bench = Bench()
    for workload in (transfer_rows, reconfig_rows, robust_scan_rows, engine_rows):
        bench.compare(workload, fastpath.forced_on, fastpath.disabled)

    table, trace = build_serve_inputs(SERVE_REQUESTS, SEED, "poisson", 0.7)
    serve = bench.compare(
        partial(serve_rows, table, trace), fastpath.forced_on, fastpath.disabled
    )

    start = time.perf_counter()
    rig = calibrate_rig(build_rig64, kernel="brightness", max_attempts=3)
    batch = bench.compare(
        partial(faults_rows, rig), "batch", "reference", gate=require_equivalent
    )
    faults_s = time.perf_counter() - start
    overall = next(
        s for s in batch.strata() if s["kind"] == "upset" and s["region"] == "all"
    )
    lo, hi = overall["vulnerability_ci95"]
    analytic = overall["analytic_vulnerability"]
    bench.require(
        lo <= analytic <= hi,
        f"faults/headline: vulnerability CI [{lo:.4f}, {hi:.4f}] excludes "
        f"the analytic fraction {analytic:.4f}",
    )

    records = []
    for name, floor in FLOORS.items():
        fast_s, reference_s = bench.timings[name]
        speedup = reference_s / fast_s if fast_s else float("inf")
        records.append({
            "name": name,
            "fast_s": round(fast_s, 6),
            "reference_s": round(reference_s, 6),
            "speedup": round(speedup, 2),
            "floor": floor,
        })
        print(
            f"{name:>33}: fast {fast_s * 1e3:9.2f} ms  "
            f"reference {reference_s * 1e3:9.2f} ms  "
            f"speedup {speedup:6.1f}x  (floor {floor:g}x)"
        )
        if check:
            bench.require(
                speedup >= floor, f"{name}: speedup {speedup:.1f}x < {floor:g}x floor"
            )
    if check:
        bench.require(
            serve["report"]["requests"] >= SERVE_REQUESTS,
            f"serve/headline: {serve['report']['requests']} requests "
            f"< {SERVE_REQUESTS} floor",
        )
        bench.require(
            batch.total_trials >= MIN_FAULT_TRIALS,
            f"faults/headline: {batch.total_trials} trials < {MIN_FAULT_TRIALS} floor",
        )
        bench.require(
            faults_s <= FAULTS_BUDGET_S,
            f"faults/headline: end-to-end {faults_s:.1f} s "
            f"> {FAULTS_BUDGET_S:g} s budget",
        )

    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    with open(RESULTS_PATH, "w") as handle:
        json.dump({"schema": "repro-perf-bench/1", "rows": records}, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {RESULTS_PATH}")

    for failure in bench.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if bench.failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="also enforce the speedup floors, workload sizes and budget",
    )
    return run(check=parser.parse_args().check)


if __name__ == "__main__":
    raise SystemExit(main())
