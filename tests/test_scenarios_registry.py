"""Scenario registry: registration, parameter resolution, result transport.

The registry is the contract between the scenarios, the sweep
orchestrator and the result cache — these tests pin down the parts the
other two rely on (stable names, deterministic seeds, JSON-safe results)
and run every registered scenario, with its paper claims, at smoke size.
"""

import json

import pytest

from repro.errors import CheckError
from repro.scenarios import (
    ScenarioError,
    ScenarioResult,
    all_scenarios,
    derive_seed,
    get_scenario,
    run_scenario,
)
from repro.scenarios.registry import _REGISTRY, register_scenario
from repro.sweep import run_sweep


@pytest.fixture
def scratch():
    """Register throwaway scenarios and unregister them afterwards."""
    added = []

    def _register(name, fn, **kwargs):
        entry = register_scenario(name, fn, **kwargs)
        added.append(name)
        return entry

    yield _register
    for name in added:
        _REGISTRY.pop(name, None)


def _result(name, rows):
    return ScenarioResult(name=name, title=name, headers=["k", "v"], rows=rows)


# -- registration -------------------------------------------------------------

def test_register_and_get(scratch):
    entry = scratch("scratch_one", lambda: _result("scratch_one", [["a", 1]]))
    assert get_scenario("scratch_one") is entry
    assert entry.title == "scratch_one"  # name is the default title


def test_duplicate_name_rejected(scratch):
    scratch("scratch_dup", lambda: _result("scratch_dup", []))
    with pytest.raises(ScenarioError, match="already registered"):
        register_scenario("scratch_dup", lambda: _result("scratch_dup", []))


def test_unknown_name_lists_known():
    with pytest.raises(ScenarioError, match="unknown scenario"):
        get_scenario("no_such_scenario")


def test_shipped_registry_is_populated():
    names = {entry.name for entry in all_scenarios()}
    # One scenario per paper table, ablation and figure.
    assert {f"table{n:02d}" for n in range(1, 13)} <= {n[:7] for n in names}
    assert "ablation_boot" in names
    assert "fig1_generic_architecture" in names
    assert len(names) >= 27


@pytest.mark.parametrize("name", [entry.name for entry in all_scenarios()])
def test_scenario_holds_its_claims_at_smoke(name):
    # Each scenario checks the paper's claims for its table, ablation or
    # figure at the end of its body; a broken claim fails the outcome.
    (outcome,) = run_sweep([get_scenario(name)], smoke=True).outcomes
    assert outcome.status == "ok", outcome.error


def test_tag_filtering():
    tables = all_scenarios(tags=["table"])
    assert tables and all("table" in s.tags for s in tables)
    assert [s.name for s in tables] == sorted(s.name for s in tables)


# -- parameter resolution -----------------------------------------------------

def test_resolve_params_defaults_smoke_overrides(scratch):
    entry = scratch(
        "scratch_params",
        lambda n, seed: _result("scratch_params", [[n, seed]]),
        params={"n": 10, "seed": 1},
        smoke_params={"n": 2},
    )
    assert entry.resolve_params() == {"n": 10, "seed": 1}
    assert entry.resolve_params(smoke=True) == {"n": 2, "seed": 1}
    assert entry.resolve_params({"seed": 7}, smoke=True) == {"n": 2, "seed": 7}


def test_resolve_params_rejects_unknown_keys(scratch):
    entry = scratch(
        "scratch_unknown", lambda n: _result("scratch_unknown", [[n, n]]), params={"n": 1}
    )
    with pytest.raises(ScenarioError, match="no parameter"):
        entry.resolve_params({"m": 3})


def test_run_scenario_passes_params(scratch):
    scratch(
        "scratch_run",
        lambda n: _result("scratch_run", [["n", n]]),
        params={"n": 4},
        smoke_params={"n": 2},
    )
    assert run_scenario("scratch_run").rows == [["n", 4]]
    assert run_scenario("scratch_run", smoke=True).rows == [["n", 2]]
    assert run_scenario("scratch_run", {"n": 9}).rows == [["n", 9]]


def test_run_rejects_non_result(scratch):
    entry = scratch("scratch_bad", lambda: {"not": "a result"})
    with pytest.raises(ScenarioError, match="expected ScenarioResult"):
        entry.run()


# -- deterministic seeding ----------------------------------------------------

def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(42, "table03_patmatch32:pattern_seed")
    assert a == derive_seed(42, "table03_patmatch32:pattern_seed")
    assert a != derive_seed(43, "table03_patmatch32:pattern_seed")
    assert a != derive_seed(42, "table09_patmatch64:pattern_seed")
    assert 0 <= a < 2**32


# -- source fingerprints ------------------------------------------------------

def test_source_fingerprint_tracks_the_body():
    one = get_scenario("table03_patmatch32")
    other = get_scenario("table04_hash32")
    assert one.source_fingerprint() == one.source_fingerprint()
    assert one.source_fingerprint() != other.source_fingerprint()


# -- result transport ---------------------------------------------------------

def test_result_round_trips_through_json():
    original = ScenarioResult(
        name="rt",
        title="Round trip",
        headers=["k", "v"],
        rows=[["a", 1], ["b", 2.5]],
        headline={"total": 3.5, "flag": True},
        text="art",
        appendix="notes",
    )
    wire = json.dumps(original.to_dict(), sort_keys=True)
    rebuilt = ScenarioResult.from_dict(json.loads(wire))
    assert rebuilt == original
    assert json.dumps(rebuilt.to_dict(), sort_keys=True) == wire


def test_result_schema_mismatch_rejected():
    data = _result("schema", []).to_dict()
    data["schema"] = 999
    with pytest.raises(CheckError, match="schema"):
        ScenarioResult.from_dict(data)


def test_result_canonicalises_numpy_cells():
    import numpy as np

    result = ScenarioResult(
        name="np",
        headers=["v"],
        rows=[[np.int64(7), np.float64(2.5)]],
        headline={"mean": np.float64(1.25)},
    )
    cell_types = {type(cell) for cell in result.rows[0]}
    assert cell_types == {int, float}
    assert type(result.headline["mean"]) is float
    json.dumps(result.to_dict())  # must be plain-JSON serialisable


def test_table_text_appends_appendix():
    result = ScenarioResult(
        name="ap", title="T", headers=["a"], rows=[[1]], appendix="the appendix"
    )
    assert result.table_text().endswith("\n\nthe appendix")


# -- fallback fingerprint determinism ----------------------------------------
#
# Bodies that inspect.getsource cannot see (exec-compiled, REPL-defined)
# fall back to hashing module + qualname + code-object material.  That
# material must be stable across interpreter processes — the old repr(fn)
# fallback leaked memory addresses and broke warm caches between runs.

_DYNAMIC_SNIPPET = r"""
import sys

from repro.scenarios import ScenarioResult
from repro.scenarios.registry import Scenario

code = compile(
    "def dyn(n):\n"
    "    return ScenarioResult(name='dyn', headers=['n'], rows=[[n {op} 1]])\n",
    "<dynamic>",
    "exec",
)
ns = {"ScenarioResult": ScenarioResult}
exec(code, ns)
entry = Scenario(name="dyn", fn=ns["dyn"], title="dyn", params={"n": 1})
sys.stdout.write(entry.source_fingerprint())
"""


def _dynamic_fingerprint(op):
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _DYNAMIC_SNIPPET.replace("{op}", op)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PYTHONHASHSEED": "random"},
    )
    assert proc.returncode == 0, proc.stderr
    fingerprint = proc.stdout.strip()
    assert len(fingerprint) == 64
    return fingerprint


def test_fallback_fingerprint_stable_across_processes():
    assert _dynamic_fingerprint("+") == _dynamic_fingerprint("+")


def test_fallback_fingerprint_tracks_the_body():
    assert _dynamic_fingerprint("+") != _dynamic_fingerprint("-")
