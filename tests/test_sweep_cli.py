"""``repro sweep`` CLI: listing, filtered runs, report emission, caching.

Exercises the same entry point CI's sweep job uses (``main`` with argv),
against cheap scenarios and tmp-path cache/report locations.
"""

import json

import pytest

from repro.sweep.cli import main
from repro.sweep.report import REPORT_SCHEMA

CHEAP = ["fig1_generic_architecture", "fig2_bus_macros"]


def _run(tmp_path, *extra):
    out = tmp_path / "BENCH_sweep.json"
    argv = [
        *CHEAP,
        "--jobs", "1",
        "--smoke",
        "--cache-dir", str(tmp_path / "cache"),
        "--out", str(out),
        *extra,
    ]
    return main(argv), out


# -- listing ------------------------------------------------------------------

def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    captured = capsys.readouterr().out
    assert "table03_patmatch32" in captured
    assert "ablation_boot" in captured
    assert "scenario(s)" in captured


def test_list_json_with_tag_filter(capsys):
    assert main(["list", "--tag", "figure", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert {e["name"] for e in entries} >= set(CHEAP)
    assert all("figure" in e["tags"] for e in entries)


def test_list_flag_is_equivalent(capsys):
    assert main(["--list", "--tag", "figure"]) == 0
    assert "fig1_generic_architecture" in capsys.readouterr().out


# -- running ------------------------------------------------------------------

def test_run_writes_schema_tagged_report(tmp_path, capsys):
    code, out = _run(tmp_path, "--json")
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["schema"] == REPORT_SCHEMA
    assert report["ok"] is True
    assert report["smoke"] is True
    assert [s["name"] for s in report["scenarios"]] == CHEAP
    assert all(s["cache"] == "miss" for s in report["scenarios"])
    # --json keeps stdout pure machine-readable (the report itself).
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["schema"] == REPORT_SCHEMA


def test_warm_rerun_hits_the_cache(tmp_path, capsys):
    _run(tmp_path, "--json")
    code, out = _run(tmp_path, "--json")
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["cache"]["hits"] >= 1
    assert all(s["cache"] == "hit" for s in report["scenarios"])
    capsys.readouterr()


def test_no_cache_disables_telemetry(tmp_path, capsys):
    code, out = _run(tmp_path, "--no-cache", "--json")
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["cache"]["enabled"] is False
    assert all(s["cache"] == "off" for s in report["scenarios"])
    capsys.readouterr()


def test_tables_flag_writes_rendered_artifacts(tmp_path, capsys):
    tables_dir = tmp_path / "tables"
    code, _ = _run(tmp_path, "--tables", str(tables_dir))
    assert code == 0
    written = {p.name for p in tables_dir.glob("*.txt")}
    assert written == {f"{name}.txt" for name in CHEAP}
    capsys.readouterr()


def test_empty_selection_is_an_error(tmp_path, capsys):
    assert main(["run", "--tag", "no-such-tag"]) == 2
    assert "no scenarios match" in capsys.readouterr().err


def test_unknown_scenario_name_raises(capsys):
    from repro.scenarios import ScenarioError
    from repro.sweep.cli import build_parser, run

    argv = ["run", "definitely_not_registered"]
    with pytest.raises(ScenarioError, match="unknown scenario"):
        run(build_parser().parse_args(argv))
    # The entry point turns the library error into exit 2 and one line.
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("repro sweep: unknown scenario")


def test_explain_attributes_misses_then_reports_hits(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    argv = [
        "run", "fig1_generic_architecture", "--smoke", "--explain",
        "--cache-dir", str(tmp_path / "cache"), "--out", str(out_path),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "cache-miss attribution:" in cold
    assert "no cached entry" in cold

    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "every scenario hit the cache" in warm


# -- per-scenario overrides (--set) -------------------------------------------

def test_parse_overrides_types_and_grouping():
    from repro.sweep.cli import parse_overrides

    parsed = parse_overrides(
        [
            "mc_campaign:trials=5000",
            "mc_campaign:check_equivalence=true",
            "mc_campaign:kinds=upset,commit",
            "fault_campaign:seed=7",
        ]
    )
    assert parsed == {
        "mc_campaign": {
            "trials": 5000,  # JSON int
            "check_equivalence": True,  # JSON bool
            "kinds": "upset,commit",  # JSON-invalid -> kept as string
        },
        "fault_campaign": {"seed": 7},
    }
    assert parse_overrides(None) is None
    assert parse_overrides([]) is None


@pytest.mark.parametrize(
    "bad", ["mc_campaign:trials", "trials=5", ":trials=5", "name:=5"]
)
def test_parse_overrides_rejects_malformed_entries(bad):
    from repro.sweep.cli import parse_overrides

    with pytest.raises(SystemExit, match="--set"):
        parse_overrides([bad])


def test_parse_overrides_conflicting_duplicate_aborts_naming_both():
    from repro.sweep.cli import parse_overrides

    # Silent last-wins would make the command line lie about what ran;
    # the error must name both conflicting values.
    with pytest.raises(SystemExit, match=r"5000.*9999|9999.*5000"):
        parse_overrides(["mc_campaign:trials=5000", "mc_campaign:trials=9999"])


def test_parse_overrides_identical_duplicate_is_benign():
    from repro.sweep.cli import parse_overrides

    parsed = parse_overrides(["mc_campaign:trials=5000", "mc_campaign:trials=5000"])
    assert parsed == {"mc_campaign": {"trials": 5000}}


def test_set_flag_overrides_scenario_params(tmp_path, capsys):
    from repro.scenarios import ScenarioResult
    from repro.scenarios.registry import _REGISTRY, register_scenario

    register_scenario(
        "scratch_cli_set",
        lambda n: ScenarioResult(
            name="scratch_cli_set", headers=["n"], rows=[[n]],
            headline={"n": n},
        ),
        params={"n": 1},
    )
    try:
        out = tmp_path / "BENCH_sweep.json"
        code = main(
            [
                "scratch_cli_set",
                "--jobs", "1",
                "--set", "scratch_cli_set:n=42",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out),
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        [entry] = report["scenarios"]
        assert entry["headline"]["n"] == 42
        capsys.readouterr()
    finally:
        _REGISTRY.pop("scratch_cli_set", None)
