"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench -q

A tiny-size pass of each workload runs every scenario with its smoke
parameters against the committed ``tiny`` goldens.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "1",
         "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def copy_benchmark(tmp_path: Path) -> None:
    """The benchmark's files and BENCHMARK.json, as in a bare checkout."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")


@pytest.mark.parametrize("workload", ["reproduce_cold", "rerun_warm", "stream_apps"])
def test_tiny_pass_emits_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_frac=0 ratio" in proc.stdout


def test_tiny_traced_pass_emits_every_per_layer_metric():
    proc = bench("--workload", "stream_apps", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units("per_layer")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # stream_apps bypasses the result cache and the call-graph fingerprinter.
    assert values["sweep.cache_key.calls"] == 0
    assert values["depfp.graph_builds"] == 0
    assert values["kernels.jenkins_hash.host_s"] > 0


def test_a_corrupted_golden_digest_counts_as_a_failure(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    golden = tmp_path / "perfbench" / "goldens" / "paper.json"
    table = json.loads(golden.read_text(encoding="utf-8"))
    table["tiny"]["stream"]["table11_sha1"] = "0" * 64
    golden.write_text(json.dumps(table), encoding="utf-8")
    proc = bench("--workload", "stream_apps", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    result = result_line(proc)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "table11_sha1: output digest differs from the golden" in proc.stderr


def test_refuses_to_run_without_the_program_source(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench("--workload", "stream_apps", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
