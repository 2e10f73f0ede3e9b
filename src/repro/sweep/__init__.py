"""Parallel scenario-sweep orchestrator with content-addressed caching.

Turns the registry of pure scenarios (:mod:`repro.scenarios`) into a
schedulable job grid: fan-out over a process pool, per-result on-disk
caching keyed by scenario source + parameters + package sources, and one
merged machine-readable report.  Orchestration never alters simulated
timing — it only changes how much *host* time a sweep costs.
"""

from .cache import CacheTelemetry, ResultCache, cache_key, canonical_params
from .report import REPORT_SCHEMA, build_report, render_report, write_report
from .results_io import (
    default_cache_dir,
    default_results_dir,
    ensure_dir,
    write_text_result,
)
from .runner import ScenarioOutcome, SweepOutcome, apply_seed_base, run_batch, run_sweep

__all__ = [
    "CacheTelemetry",
    "REPORT_SCHEMA",
    "ResultCache",
    "ScenarioOutcome",
    "SweepOutcome",
    "apply_seed_base",
    "build_report",
    "cache_key",
    "canonical_params",
    "default_cache_dir",
    "default_results_dir",
    "ensure_dir",
    "render_report",
    "run_batch",
    "run_sweep",
    "write_report",
    "write_text_result",
]
