"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_devices_lists_catalog(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert "XC2VP7" in out
    assert "XC2VP30" in out
    assert "4928" in out  # XC2VP7 slices


def test_info_32(capsys):
    assert main(["info", "--system", "32"]) == 0
    out = capsys.readouterr().out
    assert "system32" in out
    assert "OPB Dock" in out
    assert "1232 slices" in out


def test_info_64(capsys):
    assert main(["info", "--system", "64"]) == 0
    out = capsys.readouterr().out
    assert "PLB Dock" in out


def test_info_dual(capsys):
    assert main(["info", "--system", "dual"]) == 0
    out = capsys.readouterr().out
    assert "Dock B" in out


def test_floorplan_generic(capsys):
    assert main(["floorplan", "--system", "generic"]) == 0
    assert "dynamic" in capsys.readouterr().out


def test_floorplan_system(capsys):
    assert main(["floorplan", "--system", "64"]) == 0
    assert "XC2VP30" in capsys.readouterr().out


def test_transfers_32(capsys):
    assert main(["transfers", "--system", "32", "--words", "256"]) == 0
    out = capsys.readouterr().out
    assert "PIO write" in out
    assert "DMA" not in out  # 32-bit system has no DMA


def test_transfers_64_includes_dma(capsys):
    assert main(["transfers", "--system", "64", "--words", "256"]) == 0
    out = capsys.readouterr().out
    assert "DMA write/read" in out


def test_demo_runs(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "loaded 'brightness'" in out


def test_demo_with_verify(capsys):
    assert main(["demo", "--verify"]) == 0
    assert "readback verify" in capsys.readouterr().out


def test_trace_summary(capsys):
    assert main(["trace", "--words", "16"]) == 0
    out = capsys.readouterr().out
    assert "bus transactions recorded" in out
    assert "opb32:" in out


def test_trace_csv(capsys):
    assert main(["trace", "--words", "8", "--csv", "--head", "3"]) == 0
    out = capsys.readouterr().out
    assert "time_ps,source,kind" in out


def test_unknown_command_errors():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_unknown_system_errors():
    with pytest.raises(SystemExit):
        main(["info", "--system", "128"])


def test_assess_command(capsys):
    assert main([
        "assess", "--words-in", "1000", "--words-out", "1000",
        "--software-us", "5000",
    ]) == 0
    out = capsys.readouterr().out
    assert "max speedup" in out
    assert "candidate" in out


def test_assess_both_methods_on_64(capsys):
    assert main([
        "assess", "--system", "64", "--words-in", "100", "--words-out", "100",
        "--software-us", "100",
    ]) == 0
    out = capsys.readouterr().out
    assert "via pio" in out
    assert "via dma" in out


def test_faults_table_with_equivalence_and_heatmap(capsys):
    assert main(
        [
            "faults",
            "--trials", "64",
            "--executor", "both",
            "--heatmap",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "Monte-Carlo fault campaign" in out
    assert "(equivalence-checked)" in out
    assert "wilson 95% CI" in out
    assert "vulnerability heatmap" in out
    for kind in ("upset", "post-commit", "seu", "commit"):
        assert kind in out


def test_faults_json_report(capsys):
    import json

    assert main(
        ["faults", "--trials", "32", "--kinds", "commit", "--json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "repro-mc-campaign/1"
    assert report["kinds"] == ["commit"]
    assert report["total_trials"] == 32


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kinds", " , "], "no fault kinds"),
        (["--kinds", "bogus"], "unknown fault kind(s) bogus"),
        (["--trials", "0"], "trials must be >= 1"),
        (["--batch", "0"], "batch_size must be >= 1"),
        (["--max-attempts", "0"], "max_attempts must be >= 1"),
        (["--max-attempts", "1", "--kinds", "seu"], "seu trials need max_attempts >= 2"),
    ],
    ids=[
        "empty-kinds", "unknown-kind", "zero-trials", "zero-batch",
        "zero-attempts", "seu-without-retry",
    ],
)
def test_faults_rejects_bad_input_before_calibrating(
    monkeypatch, capsys, argv, message
):
    from repro.faults import montecarlo

    def calibrate_rig(*args, **kwargs):
        raise AssertionError("bad input reached calibration")

    monkeypatch.setattr(montecarlo, "calibrate_rig", calibrate_rig)
    assert main(["faults", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "run", "nosuch"],
        ["sweep", "run", "table02_transfers32", "--set", "table02_transfers32:bogus=1"],
        ["serve", "--requests", "0"],
        ["serve", "--epoch-ms", "0"],
        ["serve", "--target-util", "0"],
        ["dse", "--generations", "0"],
        ["dse", "--population", "1"],
    ],
    ids=[
        "unknown-scenario", "unknown-param", "zero-requests", "zero-epoch",
        "zero-util", "zero-generations", "tiny-population",
    ],
)
def test_library_errors_exit_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro {argv[0]}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
