"""Tests for the vectorized Monte-Carlo campaigns (repro.faults.montecarlo).

Three layers:

* **Semantics** — hand-built tiny :class:`FaultSpace`/:class:`OutcomeModel`
  pairs pin the classification rules exactly, for both executors.
* **Calibration** — the measured constants are validated against live
  simulations at different strike positions and calibration seeds (the
  closed-form charging assumption, tested rather than trusted).
* **Equivalence** — on the real rig the batched executor must reproduce
  the per-trial reference's trial columns exactly, including under early
  stopping, and ``require_equivalent`` names the first divergence.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import CheckError, InvariantError
from repro.faults.campaign import run_trial
from repro.faults.heatmap import (
    RAMP,
    UNSAMPLED,
    empirical_vulnerability,
    render_heatmap,
)
from repro.faults.montecarlo import (
    OUTCOMES,
    CalibratedRig,
    OutcomeModel,
    calibrate_rig,
    classify_batch,
    classify_reference,
    require_equivalent,
    run_mc_campaign,
)
from repro.faults.sampling import (
    DEFAULT_MC_KINDS,
    REGION_ALL,
    REGION_DYNAMIC,
    REGION_STATIC,
    REGION_UNUSED,
    FaultLoad,
    FaultSpace,
)
from repro.scenarios.rigs import build_rig64


@pytest.fixture(scope="module")
def rig():
    return calibrate_rig(build_rig64, kernel="brightness", max_attempts=3)


# -- classification semantics on a synthetic space ----------------------------

def tiny_space():
    essential = np.array(
        [[0b1, 0], [0xFFFFFFFF, 0xFFFFFFFF], [0, 0], [0, 0b100]],
        dtype=np.uint32,
    )
    return FaultSpace(
        total_frames=4,
        words_per_frame=2,
        written_rows=np.array([True, True, False, True]),
        region_class=np.array(
            [REGION_STATIC, REGION_DYNAMIC, REGION_UNUSED, REGION_STATIC],
            dtype=np.int8,
        ),
        essential=essential,
        load_rows=np.array([1], dtype=np.int64),
        payload_indices=np.array([4, 5], dtype=np.int64),
        max_attempts=3,
    )


def tiny_model():
    return OutcomeModel(
        clean_ps=100,
        scan_ps=10,
        scrub_repair_ps=20,
        inload_ps=30,
        seu_retry_ps=40,
        commit_retry_ps=(50, 60),
        fallback_ps=70,
        max_attempts=3,
    )


def both(space, model, load):
    batch = classify_batch(space, model, load, 0, load.trials)
    reference = classify_reference(space, model, load, 0, load.trials)
    for column in (
        "outcome", "recovered", "fallback", "attempts",
        "scrubbed", "faults", "elapsed_ps", "region",
    ):
        assert np.array_equal(getattr(batch, column), getattr(reference, column)), column
    return batch


def test_upset_classification_rules():
    load = FaultLoad(
        kind="upset", trials=5, seed=1,
        rows=np.array([0, 0, 2, 1, 3]),
        words=np.array([0, 0, 0, 1, 1]),
        bits=np.array([0, 1, 5, 31, 2]),
    )
    batch = both(tiny_space(), tiny_model(), load)
    # essential bit -> critical, written-but-clear bit -> latent,
    # unwritten frame -> benign (scan only, nothing scrubbed).
    assert [OUTCOMES[c] for c in batch.outcome] == [
        "critical", "latent", "benign", "critical", "critical",
    ]
    assert batch.scrubbed.tolist() == [1, 1, 0, 1, 1]
    assert batch.elapsed_ps.tolist() == [20, 20, 10, 20, 20]
    assert batch.region.tolist() == [
        REGION_STATIC, REGION_STATIC, REGION_UNUSED,
        REGION_DYNAMIC, REGION_STATIC,
    ]
    assert batch.recovered.all() and not batch.fallback.any()


def test_post_commit_and_seu_classification_rules():
    post = FaultLoad(
        kind="post-commit", trials=2, seed=2,
        rows=np.array([1, 1]), words=np.array([0, 1]), bits=np.array([3, 4]),
    )
    batch = both(tiny_space(), tiny_model(), post)
    assert [OUTCOMES[c] for c in batch.outcome] == ["detected-inload"] * 2
    assert batch.scrubbed.tolist() == [1, 1]
    assert batch.elapsed_ps.tolist() == [30, 30]
    assert batch.attempts.tolist() == [1, 1]

    seu = FaultLoad(
        kind="seu", trials=2, seed=3,
        stream_pos=np.array([0, 1]), bits=np.array([0, 9]),
    )
    batch = both(tiny_space(), tiny_model(), seu)
    assert [OUTCOMES[c] for c in batch.outcome] == ["detected-retry"] * 2
    assert batch.attempts.tolist() == [2, 2]
    assert batch.elapsed_ps.tolist() == [40, 40]
    # Stream positions 0..1 sit in load frame 0 = dense row 1 (dynamic).
    assert batch.region.tolist() == [REGION_DYNAMIC, REGION_DYNAMIC]


def test_commit_classification_rules():
    load = FaultLoad(
        kind="commit", trials=3, seed=4, fail_counts=np.array([1, 2, 3]),
    )
    batch = both(tiny_space(), tiny_model(), load)
    assert [OUTCOMES[c] for c in batch.outcome] == [
        "detected-retry", "detected-retry", "fallback",
    ]
    assert batch.attempts.tolist() == [2, 3, 3]
    assert batch.elapsed_ps.tolist() == [50, 60, 70]
    assert batch.recovered.tolist() == [True, True, False]
    assert batch.fallback.tolist() == [False, False, True]
    assert batch.faults.tolist() == [1, 2, 3]
    assert batch.region.tolist() == [REGION_ALL] * 3


def test_seu_needs_a_retry_budget(rig):
    crippled = CalibratedRig(
        space=rig.space,
        model=dataclasses.replace(rig.model, max_attempts=1, commit_retry_ps=()),
    )
    with pytest.raises(InvariantError, match="max_attempts"):
        run_mc_campaign(rig=crippled, kinds=("seu",), trials=8)


# -- calibration vs live simulation ------------------------------------------

def test_model_is_seed_independent(rig):
    # The calibration plans' RNG seed moves *where* faults strike, not
    # what they cost: recalibrating under a different seed must measure
    # the identical model (the closed-form charging assumption).
    other = calibrate_rig(
        build_rig64, kernel="brightness", max_attempts=3, calibration_seed=42
    )
    assert other.model == rig.model
    assert np.array_equal(other.space.essential, rig.space.essential)


def test_scrub_repair_cost_is_position_independent(rig):
    # Live check at strike positions the calibration never touched.
    for row_pick, word, bit in [(7, 0, 0), (-1, 100, 17)]:
        system, manager = build_rig64()
        manager.load_robust("brightness")
        written = np.flatnonzero(system.config_memory.written_mask())
        system.config_memory.flip_bit(int(written[row_pick]), word, bit)
        report = manager.scrub()
        assert report.frames_repaired == 1
        assert report.elapsed_ps == rig.model.scrub_repair_ps


@pytest.mark.parametrize(
    "kind, constant",
    [
        ("seu", "seu_retry_ps"),
        ("commit", "commit_retry_ps"),
        ("upset", "inload_ps"),
        ("fallback", "fallback_ps"),
        ("upset-scrub", "scrub_repair_ps"),
    ],
)
def test_per_trial_simulator_matches_the_model(rig, kind, constant):
    # The model charges each timeline as a constant.  run_trial simulates
    # it at campaign seeds, i.e. at strike positions the calibration
    # never used, and must land on the same figure every time.
    expected = getattr(rig.model, constant)
    if kind == "commit":
        expected = expected[0]
    for trial in range(2):
        result = run_trial(kind, trial, 2006, build_rig64, "brightness", 3)
        assert result.elapsed_ps == expected, (kind, trial)
        assert result.recovered != (kind == "fallback")
        if kind == "seu":
            assert result.attempts == 2


def test_calibration_rejects_nonpositive_attempts():
    with pytest.raises(InvariantError, match="max_attempts"):
        calibrate_rig(build_rig64, max_attempts=0)


# -- batched vs reference equivalence on the real rig -------------------------

def test_executors_agree_on_the_real_rig(rig):
    batch = run_mc_campaign(
        rig=rig, kinds=DEFAULT_MC_KINDS, trials=1500, seed=2006, batch_size=256
    )
    reference = run_mc_campaign(
        rig=rig, kinds=DEFAULT_MC_KINDS, trials=1500, seed=2006,
        batch_size=256, executor="reference",
    )
    require_equivalent(batch, reference)


def test_executors_stop_early_identically(rig):
    kwargs = dict(
        rig=rig, kinds=("upset", "commit"), trials=6000, seed=2006,
        batch_size=512, target_half_width=0.05,
    )
    batch = run_mc_campaign(executor="batch", **kwargs)
    reference = run_mc_campaign(executor="reference", **kwargs)
    assert batch.stopped_early == reference.stopped_early
    assert batch.trials_run == reference.trials_run
    require_equivalent(batch, reference)
    # The coarse target actually triggers the stop, on whole batches.
    assert batch.stopped_early["upset"]
    assert batch.trials_run["upset"] < 6000
    assert batch.trials_run["upset"] % 512 == 0


def test_require_equivalent_names_kind_trial_and_column(rig):
    report = run_mc_campaign(rig=rig, kinds=("upset", "commit"), trials=64, seed=2006)
    commit = report.batches["commit"]
    attempts = commit.attempts.copy()
    attempts[5] += 1
    tampered = dataclasses.replace(
        report,
        batches={**report.batches, "commit": dataclasses.replace(commit, attempts=attempts)},
    )
    require_equivalent(report, report)
    with pytest.raises(CheckError, match=r"^commit: .* at trial 5, column 'attempts'$"):
        require_equivalent(report, tampered)


def test_unknown_executor_rejected(rig):
    with pytest.raises(InvariantError, match="executor"):
        run_mc_campaign(rig=rig, kinds=("commit",), trials=8, executor="gpu")
    with pytest.raises(InvariantError, match="batch_size"):
        run_mc_campaign(rig=rig, kinds=("commit",), trials=8, batch_size=0)
    with pytest.raises(InvariantError, match="builder or a rig"):
        run_mc_campaign()


# -- estimation ---------------------------------------------------------------

def test_vulnerability_ci_covers_the_analytic_fraction(rig):
    report = run_mc_campaign(rig=rig, kinds=("upset",), trials=2000, seed=2006)
    overall = next(
        s for s in report.strata() if s["kind"] == "upset" and s["region"] == "all"
    )
    lo, hi = overall["vulnerability_ci95"]
    analytic = rig.space.analytic_vulnerability()
    assert lo <= analytic <= hi
    assert overall["analytic_vulnerability"] == analytic
    assert 0.0 < lo < hi < 1.0


def test_kind_summary_rates_and_intervals(rig):
    report = run_mc_campaign(
        rig=rig, kinds=DEFAULT_MC_KINDS, trials=600, seed=2006, batch_size=128
    )
    summary = {entry["kind"]: entry for entry in report.kind_summary()}
    assert set(summary) == set(DEFAULT_MC_KINDS)
    for entry in summary.values():
        lo, hi = entry["recovery_ci95"]
        assert 0.0 <= lo <= entry["recovery_rate"] <= hi <= 1.0
        assert entry["p50_ps"] <= entry["p99_ps"] <= entry["p999_ps"]
    # Upsets and post-commit strikes always recover; commits fall back
    # exactly when all attempts are forced to fail.
    assert summary["upset"]["recovery_rate"] == 1.0
    assert summary["post-commit"]["recovery_rate"] == 1.0
    assert summary["seu"]["mean_attempts"] == 2.0
    assert 0.0 < summary["commit"]["fallback_rate"] < 1.0
    assert summary["commit"]["handled_rate"] == 1.0


def test_frame_tallies_partition_the_upset_trials(rig):
    report = run_mc_campaign(rig=rig, kinds=("upset",), trials=900, seed=2006)
    strikes, criticals = report.frame_tallies()
    assert int(strikes.sum()) == 900
    assert (criticals <= strikes).all()
    assert strikes.shape == (rig.space.total_frames,)


def test_report_is_json_safe_and_schema_tagged(rig):
    report = run_mc_campaign(
        rig=rig, kinds=("upset", "commit"), trials=300, seed=2006, batch_size=128
    )
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["schema"] == "repro-mc-campaign/1"
    assert payload["total_trials"] == 600
    assert payload["analytic"]["total_bits"] == rig.space.total_bits
    assert payload["analytic"]["essential_bits"] == int(
        rig.space.essential_counts().sum()
    )
    assert payload["model"]["clean_ps"] == rig.model.clean_ps
    assert {s["kind"] for s in payload["strata"]} == {"upset", "commit"}


# -- heatmap ------------------------------------------------------------------

def test_analytic_heatmap_renders_layout(rig):
    text = render_heatmap(rig.space)
    assert "per-frame vulnerability (analytic)" in text
    assert "CLB frames" in text and "BRAM content frames" in text
    assert "dynamic region columns" in text
    assert f"'{RAMP[0]}'=0.0" in text
    assert f"frames: {rig.space.total_frames}" in text


def test_empirical_heatmap_marks_unsampled_frames(rig):
    report = run_mc_campaign(rig=rig, kinds=("upset",), trials=64, seed=2006)
    strikes, criticals = report.frame_tallies()
    values = empirical_vulnerability(rig.space, strikes, criticals)
    assert float(values.min()) == -1.0  # 64 strikes cannot touch 1700 frames
    text = render_heatmap(rig.space, values, title="empirical probe")
    assert "empirical probe" in text
    assert UNSAMPLED in text
    assert "unsampled" in text


def test_heatmap_rejects_wrong_shapes(rig):
    with pytest.raises(InvariantError, match="one value per frame"):
        render_heatmap(rig.space, np.zeros(3))
    with pytest.raises(InvariantError, match="frame layout"):
        render_heatmap(tiny_space(), np.zeros(4))
