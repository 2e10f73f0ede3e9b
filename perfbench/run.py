"""The repository benchmark: cold reproduction, warm re-run and app streams.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reproduce_cold --seed 0 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``reproduce_cold`` -- every registered scenario at full parameters,
  in process through :func:`repro.sweep.run_sweep`, from empty result and
  rig caches in a fresh interpreter;
* ``rerun_warm`` -- ``python -m repro sweep run`` invocations against a
  result cache filled once during set-up, so every scenario hits;
* ``stream_apps`` -- the application and transfer scenarios with larger
  inputs, with no result cache, no rig-cache directory and no call-graph
  fingerprinting.

Every repetition runs in a fresh interpreter (``child.py``) with its
caches and reports under a private directory in ``perfbench/.work``; the
rig memo and the call-graph are process-global, so a second in-process
repetition would silently run warm.  Every scenario's outputs are
compared with committed golden digests; a failed scenario, a failed
in-scenario check, a missing scenario or a digest mismatch counts as a
failure.  ``--seed`` selects one of the committed input sets (even: the
paper's seeds, odd: a held-out seed base passed as
``run_sweep(seed_base=...)``).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` the
benchmark runs the workload once untraced and at least twice traced
(``tracer.py``), checks that every per-layer count repeats exactly, and
reports the per-layer metrics.  The exit status is 0 only when the run is
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracer import span_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"
WORK = HERE / ".work"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("reproduce_cold", "rerun_warm", "stream_apps")

#: ``--seed n`` selects ``SEEDS[n % 2]``: (label, ``seed_base``).  Each
#: has committed goldens; ``None`` keeps the paper's seeds.
SEEDS: Tuple[Tuple[str, Optional[int]], ...] = (("paper", None), ("heldout", 20061017))

#: Application and transfer scenarios of the stream_apps workload, with
#: the inputs scaled up from the paper's sizes.
STREAM_SCALE: Dict[str, Dict[str, object]] = {
    "perf_engine_e2e": {"height": 256, "width": 256},
    "table03_patmatch32": {"image_sizes": [[64, 256], [128, 256], [256, 256]]},
    "table04_hash32": {"key_lengths": [4096, 65536, 262144]},
    "table05_image32": {"height": 256, "width": 256},
    "table08_transfers64_dma": {"lengths": [2047, 65536, 262144]},
    "table09_patmatch64": {"image_sizes": [[64, 256], [128, 256], [256, 256]]},
    "table10_hash64": {"key_lengths": [4096, 65536, 262144]},
    "table11_sha1": {"message_sizes": [4096, 65536, 262144]},
    "table12_image64": {"height": 256, "width": 256},
}

#: Host seconds one benchmark invocation may take before its running
#: repetition is killed; an invocation must end within 180 s.
RUN_BUDGET_S = 170.0

#: How often ``rerun_warm`` fills its cache during set-up; ``setup_s`` is
#: the median fill.
CACHE_FILLS = 3

#: Fewest untraced repetitions in a run, so that every median has a middle.
MIN_REPS = 3

#: Per-layer counts (and ratios of counts) that must repeat exactly.
EXACT_UNITS = ("count", "ratio")


class BenchError(Exception):
    """A repetition could not be run or broke a precondition."""


def golden_set(workload: str) -> str:
    """Which golden table a workload's outputs are compared with."""
    return "stream" if workload == "stream_apps" else "sweep"


# -- one repetition ----------------------------------------------------------

def run_child(spec: Dict[str, object], rep_dir: Path, deadline: float,
              reference: bool = False) -> Dict[str, object]:
    """Run ``child.py`` on ``spec`` in a fresh interpreter.

    Returns the child's report plus ``spawned`` (parent clock at spawn)
    and ``rss_mib`` (the child's peak resident memory, from ``wait4``).
    The child is killed at ``deadline`` (parent clock).
    ``reference=True`` runs the program's per-beat reference path.
    """
    rep_dir.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, result=str(rep_dir / "result.json"), spans=str(rep_dir / "spans.npz"))
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_NO_FAST_PATH="1" if reference else "")
    with open(rep_dir / "stderr.txt", "wb") as errors:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=rep_dir, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=errors,
        )
        timer = threading.Timer(max(deadline - spawned, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not Path(spec["result"]).exists():
        tail = (rep_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"child exited with {proc.returncode}:\n{tail}")
    with open(spec["result"], encoding="utf-8") as handle:
        report = json.load(handle)
    report.update(spawned=spawned, rss_mib=usage.ru_maxrss / 1024.0, spans=spec["spans"])
    return report


class Session:
    """One benchmark invocation: workload, inputs and its work directory."""

    def __init__(self, workload: str, seed: int, size: str,
                 expected: Optional[Dict[str, str]], budget_s: float = RUN_BUDGET_S) -> None:
        self.workload = workload
        self.deadline = time.perf_counter() + budget_s
        self.label, self.seed_base = SEEDS[seed % len(SEEDS)]
        self.smoke = size == "tiny"
        #: Golden digest per scenario; ``None`` skips the comparison
        #: (``make_goldens.py``).
        self.expected = expected
        WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        self.reps = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.cache_dir = self.work / "cache"

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _next_dir(self) -> Path:
        self.reps += 1
        return self.work / f"rep{self.reps:03d}"

    def _check(self, report: Dict[str, object]) -> None:
        """Compare every scenario's digest with the goldens."""
        if self.expected is None:
            return
        seen = {o["name"]: o for o in report["outcomes"]}
        for name in sorted(set(self.expected) | set(seen)):
            self.attempted += 1
            outcome = seen.get(name)
            if outcome is None:
                problem = "missing from the outputs"
            elif outcome["status"] != "ok":
                problem = f"failed: {outcome['error']}"
            elif name not in self.expected:
                problem = "has no golden digest"
            elif outcome["digest"] != self.expected[name]:
                problem = "output digest differs from the golden"
            else:
                continue
            self.failed += 1
            self.problems.append(f"{name}: {problem}")

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            raise BenchError(f"{self.workload} precondition: {message}")

    def _cli_argv(self, rep_dir: Path) -> List[str]:
        argv = ["sweep", "run", "--cache-dir", str(self.cache_dir),
                "--out", str(rep_dir / "report.json")]
        if self.seed_base is not None:
            argv += ["--seed-base", str(self.seed_base)]
        if self.smoke:
            argv.append("--smoke")
        return argv

    def setup(self, fills: int) -> List[float]:
        """Workload set-up outside the repetitions.

        For ``rerun_warm`` this fills the result cache with a cold
        ``repro sweep run`` invocation, ``fills`` times from an empty
        cache; returns the CPU seconds of each fill (none for the other
        workloads).
        """
        if self.workload != "rerun_warm":
            return []
        seconds = []
        for _ in range(fills):
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            rep_dir = self._next_dir()
            spec = {"mode": "cli", "argv": self._cli_argv(rep_dir), "trace": False,
                    "preload": False}
            report = run_child(spec, rep_dir, self.deadline)
            self._check(report)
            stats = report["cache_stats"]
            n = len(report["outcomes"])
            self.require(n > 0 and stats.get("hits") == 0 and stats.get("misses") == n,
                         f"the filling run should miss every scenario, got {stats}")
            seconds.append(report["cpu_done"])
        return seconds

    def rep(self, trace: bool, preload: bool = False,
            reference: bool = False) -> Dict[str, object]:
        """One repetition of the timed operation.

        Sets ``wall`` and ``cpu`` (host and CPU seconds of the timed
        operation), ``setup`` (CPU seconds from process start to ready)
        and ``window`` (the timed span on the shared clock) in the report.
        ``preload`` imports the traced modules before the operation.
        """
        rep_dir = self._next_dir()
        preload = preload or trace
        if self.workload == "rerun_warm":
            spec = {"mode": "cli", "argv": self._cli_argv(rep_dir), "trace": trace,
                    "preload": preload}
        else:
            cold = self.workload == "reproduce_cold"
            cache_dir = rep_dir / "cache"
            spec = {
                "mode": "sweep", "trace": trace, "preload": preload,
                "scenarios": None if cold else sorted(STREAM_SCALE),
                "smoke": self.smoke, "seed_base": self.seed_base,
                "cache_dir": str(cache_dir) if cold else None,
                "rig_cache_dir": str(cache_dir / "rigs") if cold else None,
                "overrides": None if cold or self.smoke else STREAM_SCALE,
            }
        report = run_child(spec, rep_dir, self.deadline, reference=reference)
        self._check(report)
        stats = report["cache_stats"]
        n = len(report["outcomes"])
        self.require(n > 0, "the sweep returned no scenario")
        if self.workload == "rerun_warm":
            self.require(report["exit_code"] == 0 or self.failed,
                         f"repro sweep run exited with {report['exit_code']}")
            self.require(stats.get("hits") == n and stats.get("misses") == 0,
                         f"expected {n} cache hits and no miss, got {stats}")
            start, cpu_start = report["spawned"], 0.0
        else:
            start, cpu_start = report["ready"], report["cpu_ready"]
            report["setup"] = report["cpu_ready"]
        if self.workload == "reproduce_cold":
            self.require(stats.get("hits") == 0 and report["rig"]["disk_hits"] == 0,
                         f"expected empty caches, got {stats} and rig {report['rig']}")
        if self.workload == "stream_apps":
            self.require(not stats, f"expected no result cache, got {stats}")
            self.require(preload or not report["depfp_loaded"],
                         "the call-graph fingerprinter was imported")
        report["wall"] = report["done"] - start
        report["cpu"] = report["cpu_done"] - cpu_start
        report["window"] = (start, report["done"])
        return report


# -- metrics -----------------------------------------------------------------

def load_spec() -> Dict[str, object]:
    """``BENCHMARK.json``: the workloads and every metric with its unit."""
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def layer_metrics(report: Dict[str, object], names: List[str]) -> Dict[str, float]:
    """Per-layer metrics ``names`` of one traced repetition."""
    totals = span_totals(report["spans"], tuple(report["window"]))
    own, inclusive, calls = totals["self"], totals["inclusive"], totals["calls"]
    counters = totals["counters"]
    cache, rig, batch = report["cache_stats"], report["rig"], report["batch"]
    bus_s = own.get("bus.request", 0.0) + own.get("bus.request_burst", 0.0)
    bus_beats = counters.get("bus.beats", 0)
    iterations = (batch["probe_iterations"] + batch["extrapolated_iterations"]
                  + batch["reference_iterations"])
    values: Dict[str, float] = {
        "depfp.graph_builds": counters.get("depfp.graph_builds", 0),
        "sweep.cache_hits": cache.get("hits", 0),
        "sweep.cache_misses": cache.get("misses", 0),
        "sweep.overhead.host_s":
            inclusive.get("sweep.run_sweep", 0.0) - inclusive.get("sweep.scenario", 0.0),
        "rigs.memo_hits": rig["memory_hits"] + rig["disk_hits"],
        "rigs.memo_misses": rig["misses"],
        "mc.trials": counters.get("mc.trials", 0),
        "bus.sim_beats": report["sim_beats"],
        "bus.host_ns_per_beat": bus_s * 1e9 / bus_beats if bus_beats else 0.0,
        "engine.extrapolated_frac":
            batch["extrapolated_iterations"] / iterations if iterations else 0.0,
        "kernels.consume_block.host_s": totals["block_seconds"],
        "serve.requests": counters.get("serve.requests", 0),
        # run_sweep's own self time belongs to no layer: it stays in the rest.
        "other.host_s":
            report["wall"] - totals["covered"] + own.get("sweep.run_sweep", 0.0),
    }
    for name in names:
        if name in values or name == "trace.overhead_s":
            continue
        span, kind = name.rsplit(".", 1)
        values[name] = own.get(span, 0.0) if kind == "host_s" else calls.get(span, 0)
    return values


#: Per-layer metrics that must be 0 on every traced ``stream_apps``
#: repetition: the workload never keys the result cache or fingerprints.
STREAM_IDLE = ("sweep.cache_key.calls", "depfp.graph_builds",
               "depfp.package_graph.host_s", "depfp.fingerprint.host_s")


def measure(session: Session, seconds: float, trace: bool,
            spec: Dict[str, object]) -> Dict[str, float]:
    """Run the workload's repetitions and return the metric values.

    With ``trace`` off this also returns ``wall_s``, the median host
    seconds of the timed operation, which is printed but not gated.
    """
    fills = session.setup(1 if trace else CACHE_FILLS)
    started = time.perf_counter()
    if not trace:
        reps: List[Dict[str, object]] = []
        while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
            reps.append(session.rep(trace=False))
        # CPU seconds, not wall seconds: the program runs serially on one
        # thread, so on an idle host the two agree, but only CPU seconds
        # leave out the time other tenants keep the process off the CPU.
        return {
            "cpu_s": statistics.median(r["cpu"] for r in reps),
            "setup_s": statistics.median(fills or [r["setup"] for r in reps]),
            "peak_rss_mb": statistics.median(r["rss_mib"] for r in reps),
            "wall_s": statistics.median(r["wall"] for r in reps),
        }
    names = [m["name"] for m in spec["per_layer"]]
    exact = sorted(m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS)
    untraced = session.rep(trace=False, preload=True)
    traced: List[Dict[str, float]] = []
    walls: List[float] = []
    while len(traced) < 2 or time.perf_counter() - started < seconds:
        report = session.rep(trace=True)
        values = layer_metrics(report, names)
        if session.workload == "stream_apps":
            busy = {name: values[name] for name in STREAM_IDLE if values[name]}
            session.require(not busy, f"the cache key or call-graph layer ran: {busy}")
        traced.append(values)
        walls.append(report["wall"])
    for name in exact:
        seen = {t[name] for t in traced}
        if len(seen) != 1:
            raise BenchError(f"per-layer count {name} did not repeat: {sorted(seen)}")
    values = {name: traced[0][name] if name in exact else
              statistics.median(t[name] for t in traced) for name in traced[0]}
    values["trace.overhead_s"] = statistics.median(walls) - untraced["wall"]
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each scenario's smoke parameters (tests)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    # Compile the package once, untimed, so no repetition pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
                   check=True, stdout=subprocess.DEVNULL)

    spec = load_spec()
    label = SEEDS[args.seed % len(SEEDS)][0]
    with open(GOLDENS / f"{label}.json", encoding="utf-8") as handle:
        goldens = json.load(handle)
    if args.size not in goldens:
        print(f"perfbench: no {args.size} goldens for the {label} seeds", file=sys.stderr)
        return 2
    expected = goldens[args.size][golden_set(args.workload)]
    session = Session(args.workload, args.seed, args.size, expected)
    problems: List[str] = []
    try:
        values = measure(session, args.seconds, bool(args.trace), spec)
    except BenchError as err:
        problems.append(str(err))
        values = {}
    finally:
        session.close()
    problems.extend(session.problems)
    correct = not problems and session.failed == 0
    units = {m["name"]: m["unit"] for m in (*spec["end_to_end"], *spec["per_layer"])}
    units["wall_s"] = "s"
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    fail_frac = session.failed / session.attempted if session.attempted else 1.0
    shown = " ".join(f"{name}={value:.6g} {units[name]}" for name, value in values.items()
                     if not args.trace)
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(f"{args.workload} [{session.label} seeds, {session.reps} runs]: {shown} "
          f"fail_frac={fail_frac:.6g} ratio ({session.failed}/{session.attempted} scenarios)")
    print(json.dumps({
        "correct": correct,
        "attempted": max(session.attempted, 1),
        "failed": session.failed if session.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in reported if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
