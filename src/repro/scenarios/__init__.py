"""Scenario registry: the paper's evaluation as named, pure functions.

Importing this package registers every table, ablation and figure
scenario.  Each scenario checks the paper's claims for its table,
ablation or figure on the rows it produces, so every run gates them.
Consumers:

* the sweep orchestrator (:mod:`repro.sweep`) — fans the registry out
  over a process pool with content-addressed result caching;
* ``repro sweep list/run`` on the command line;
* ``tests/test_scenarios_registry.py``, which runs every scenario at
  smoke size.
"""

from .registry import (
    Scenario,
    ScenarioError,
    all_scenarios,
    derive_seed,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario,
)
from .result import ScenarioResult, snapshot_groups, system_stats

# Importing the modules below populates the registry.
from . import ablations, dse, faults, figures, perf, serve, tables  # noqa: E402,F401  (registration side effect)

__all__ = [
    "Scenario",
    "ScenarioError",
    "ScenarioResult",
    "all_scenarios",
    "derive_seed",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "scenario",
    "snapshot_groups",
    "system_stats",
]
