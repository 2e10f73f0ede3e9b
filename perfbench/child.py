"""One repetition of a benchmark workload, in a fresh interpreter.

Started by ``run.py`` as ``python perfbench/child.py SPEC.json``.  The
spec names the operation:

* ``"mode": "sweep"`` imports the package, then calls
  :func:`repro.sweep.run_sweep` in process on the named scenarios;
* ``"mode": "cli"`` runs ``python -m repro`` with ``argv`` in this
  process, exactly as the interpreter's ``-m`` switch would.

With ``"preload": true`` the child also imports every module the tracer
wraps before the operation starts, so traced and untraced repetitions of
a traced run import the same code outside the timed operation.

The child writes one JSON result: ``time.perf_counter`` readings taken
after imports and after the operation (the clock is the system-wide
monotonic clock, so the parent compares them with its own readings), the
process's CPU seconds (``time.process_time``) at the same two points, one
output digest per scenario, cache and rig-memo telemetry and, with
``"trace": true``, a span file from :mod:`tracer`.  It only reads the
counters the program keeps; it changes no program code.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import runpy
import sys
import time

#: What ``python -m repro`` imports before it parses arguments.
CLI_IMPORTS = ("repro.cli",)
#: What the in-process sweep needs.
SWEEP_IMPORTS = ("repro.scenarios", "repro.sweep")


def digest(result) -> str:
    """Canonical digest of one scenario's simulated outputs: table rows,
    headline simulated values, stats snapshots and rendered text."""
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sim_beats(outcome) -> int:
    """Bus beats in the merged stats snapshots of every result."""
    total = 0
    for name, group in outcome.merged_stats().items():
        if name.startswith(("plb", "opb")):
            total += int(group.snapshot()["counters"].get("beats", 0))
    return total


def summarize(outcome) -> dict:
    from repro.bitstream.generator import rig_memo_telemetry
    from repro.engine.batch import telemetry

    return {
        "outcomes": [
            {
                "name": o.name,
                "status": o.status,
                "cache": o.cache,
                "digest": digest(o.result) if o.result is not None else None,
                "error": o.error,
            }
            for o in outcome.outcomes
        ],
        "cache_stats": dict(outcome.cache_stats),
        "rig": rig_memo_telemetry().as_dict(),
        "batch": telemetry().as_dict(),
        "sim_beats": sim_beats(outcome),
        "depfp_loaded": "repro.checks.depfp" in sys.modules,
    }


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    modules = CLI_IMPORTS if spec["mode"] == "cli" else SWEEP_IMPORTS
    tracer = None
    if spec["preload"]:
        from tracer import TRACED_MODULES, Tracer

        modules += TRACED_MODULES
        if spec["trace"]:
            tracer = Tracer()
    started = time.perf_counter()
    for module in modules:
        importlib.import_module(module)
    if tracer is not None:
        tracer.span("startup.import", started, time.perf_counter())
        tracer.install()
    ready = time.perf_counter()
    cpu_ready = time.process_time()

    # The outcome is taken from run_batch, which run_sweep (the function
    # the CLI calls) looks up in its module at call time.
    runner = importlib.import_module("repro.sweep.runner")
    captured = []
    run_batch = runner.run_batch

    def capture(*args, **kwargs):
        outcome = run_batch(*args, **kwargs)
        captured.append(outcome)
        return outcome

    runner.run_batch = capture
    exit_code = 0
    try:
        if spec["mode"] == "cli":
            sys.argv = ["repro", *spec["argv"]]
            try:
                runpy.run_module("repro", run_name="__main__", alter_sys=True)
            except SystemExit as stop:
                exit_code = stop.code if isinstance(stop.code, int) else 1
        else:
            from repro.scenarios import all_scenarios, get_scenario
            from repro.sweep import ResultCache

            sweep = sys.modules["repro.sweep"]
            cache = ResultCache(spec["cache_dir"]) if spec["cache_dir"] else None
            names = spec["scenarios"]
            sweep.run_sweep(
                all_scenarios() if names is None else [get_scenario(n) for n in names],
                jobs=1,
                cache=cache,
                smoke=spec["smoke"],
                seed_base=spec["seed_base"],
                rig_cache_dir=spec["rig_cache_dir"],
                overrides=spec["overrides"],
            )
        done = time.perf_counter()
        cpu_done = time.process_time()
    finally:
        runner.run_batch = run_batch
        if tracer is not None:
            tracer.uninstall()

    report = summarize(captured[-1]) if captured else {"outcomes": []}
    report.update(ready=ready, done=done, cpu_ready=cpu_ready, cpu_done=cpu_done,
                  exit_code=exit_code)
    if tracer is not None:
        tracer.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
