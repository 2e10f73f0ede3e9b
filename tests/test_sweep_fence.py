"""The one cache fence: a SHA-256 over every source file of the package.

Each test copies ``src/repro`` into ``tmp_path``, edits the copy, and asks a
fresh interpreter running the copy for its cache keys, so the keys see the
edit exactly as a later ``repro sweep run`` would.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Prints every registered scenario's result-cache key, the rig-cache entry
#: names of two memo keys, and the key of a scenario registered here, outside
#: the package, whose body line is ``BODY``.
KEYS_SCRIPT = """
import json

import repro.scenarios
from repro.scenarios import all_scenarios
from repro.scenarios.registry import Scenario
from repro.scenarios.result import ScenarioResult
from repro.sweep.cache import cache_key
from repro.sweep.rigcache import RigCache


def outside(n):
    return ScenarioResult(name="outside", headers=["n"], rows=[[BODY]])


keys = {sc.name: cache_key(sc, sc.resolve_params()) for sc in all_scenarios()}
rigs = RigCache("rigs")
keys.update({f"rig:{memo}": rigs.entry_path(memo).name for memo in ("a" * 64, "b" * 64)})
outside_key = cache_key(Scenario(name="outside", fn=outside, title="outside", params={"n": 1}), {"n": 1})
print(json.dumps({"keys": keys, "outside": outside_key}))
"""


def copy_package(tmp_path):
    target = tmp_path / "src"
    shutil.copytree(SRC / "repro", target / "repro", ignore=shutil.ignore_patterns("__pycache__"))
    return target / "repro"


def run(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def keys(tmp_path, body="n"):
    script = tmp_path / "keys.py"
    script.write_text(KEYS_SCRIPT.replace("BODY", body), encoding="utf-8")
    return json.loads(run(tmp_path, str(script)))


def append_line(path, line):
    path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")


@pytest.mark.parametrize("module", ["bus/plb.py", "sweep/report.py"])
def test_one_line_edit_changes_every_key(tmp_path, module):
    package = copy_package(tmp_path)
    before = keys(tmp_path)["keys"]
    append_line(package / module, "# edited")
    after = keys(tmp_path)["keys"]
    assert before.keys() == after.keys() and len(before) > 30
    assert [name for name in before if before[name] == after[name]] == []


def test_version_line_edit_changes_no_key(tmp_path):
    package = copy_package(tmp_path)
    before = keys(tmp_path)
    init = package / "__init__.py"
    text = init.read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.startswith("__version__ =")]
    assert len(lines) == 1
    init.write_text(text.replace(lines[0], '__version__ = "99.0.0"'), encoding="utf-8")
    assert keys(tmp_path) == before


def test_scenario_outside_the_package_keys_on_its_own_body(tmp_path):
    copy_package(tmp_path)
    first = keys(tmp_path, body="n")
    assert keys(tmp_path, body="n")["outside"] == first["outside"]
    edited = keys(tmp_path, body="n * 2")
    assert edited["outside"] != first["outside"]
    assert edited["keys"] == first["keys"]


def test_explain_names_the_sources_component(tmp_path):
    package = copy_package(tmp_path)
    sweep = ["-m", "repro", "sweep", "run", "fig1_generic_architecture", "--smoke",
             "--cache-dir", "cache", "--out", "report.json"]
    run(tmp_path, *sweep)
    append_line(package / "fabric" / "device.py", "# edited")
    out = run(tmp_path, *sweep, "--explain")
    assert "cache-miss attribution:" in out
    assert "sources changed" in out


def test_sweep_runs_no_static_analysis(tmp_path):
    """An in-process sweep over every registered scenario, with both caches,
    imports no ``repro.checks`` module."""
    script = tmp_path / "sweep.py"
    script.write_text(textwrap.dedent("""
        import json
        import sys

        from repro.scenarios import all_scenarios
        from repro.sweep import ResultCache, run_sweep

        outcome = run_sweep(all_scenarios(), cache=ResultCache("cache"), smoke=True,
                            rig_cache_dir="cache/rigs")
        print(json.dumps({
            "ok": outcome.ok,
            "scenarios": len(outcome.outcomes),
            "checks": sorted(m for m in sys.modules if m.startswith("repro.checks")),
        }))
    """), encoding="utf-8")
    copy_package(tmp_path)
    report = json.loads(run(tmp_path, str(script)))
    assert report["ok"] and report["scenarios"] > 30
    assert report["checks"] == []
