"""Vectorized Monte-Carlo fault campaigns with confidence intervals.

PR 5's campaign rebuilds and re-simulates one full system per trial —
honest, but ~0.3 s/trial puts 10⁵ trials at a day of host time.  This
module applies the fast-path treatment the datapaths got, with the same
contract: a scalar per-trial *reference executor* defines the
semantics, a batched NumPy executor must reproduce its per-trial
columns (:class:`TrialBatch`) exactly, and both consume one shared, seeded
:class:`~repro.faults.sampling.FaultLoad`.

The batched trick is *calibrated closed-form charging*.  Each trial
kind's recovery timeline depends only on the rig and the fault class,
not on where the strike lands — a property this module does not assume
but **measures**: :func:`calibrate_rig` runs one real simulation per
outcome class (clean robust load, scan-only scrub, scrub-with-repair,
in-load verify catch, CRC retry, k-fold commit retry, software
fallback) on fresh rigs, through the per-trial campaign's loader
(:func:`repro.faults.campaign.armed_robust_load`), and
``tests/test_faults_montecarlo.py`` checks the constants against
:func:`~repro.faults.campaign.run_trial` at other strike positions.  With the
:class:`OutcomeModel` in hand, classifying a trial reduces to array
lookups:

* ``upset`` — gather the strike's bit from the essential map ``E``:
  unwritten frame → *benign* (scan finds nothing, charges the scan),
  essential bit → *critical* (kernel output corrupted until the scrub
  repairs it), else *latent* (stored but unused; scrubbed all the
  same).
* ``post-commit`` — the robust loader's verify scan catches the strike
  in-load: *detected-inload*, one attempt, one frame scrubbed.
* ``seu`` — the packet CRC rejects the corrupted staged stream:
  *detected-retry*, two attempts.
* ``commit`` — ``k`` forced commit failures: ``k < max_attempts`` →
  *detected-retry* in ``k+1`` attempts, else rollback + software
  *fallback*.

Estimation is stratified per ``(kind, region-class)`` with Wilson 95%
intervals from :mod:`repro.analysis.stats`, with optional early
stopping once every stratum's half-width closes below a target — the
stopping rule consumes whole batches and only depends on the shared
fault load, so both executors stop at identical trial counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.stats import percentiles_ps, wilson_half_width, wilson_interval
from ..bitstream.bitlinker import Placement
from ..errors import CheckError, InvariantError
from .campaign import armed_robust_load, plan_seed
from .sampling import (
    DEFAULT_MC_KINDS,
    REGION_ALL,
    REGION_DYNAMIC,
    REGION_LABELS,
    REGION_STATIC,
    REGION_UNUSED,
    FaultLoad,
    FaultSpace,
    build_fault_space,
    sample_fault_load,
)

#: Outcome classes in code order (``TrialBatch.outcome`` holds indices).
OUTCOME_BENIGN = 0
OUTCOME_LATENT = 1
OUTCOME_CRITICAL = 2
OUTCOME_DETECTED_INLOAD = 3
OUTCOME_DETECTED_RETRY = 4
OUTCOME_FALLBACK = 5

OUTCOMES: Tuple[str, ...] = (
    "benign",
    "latent",
    "critical",
    "detected-inload",
    "detected-retry",
    "fallback",
)

#: Default seed used to derive the calibration plans' RNG streams.  The
#: measured constants are seed-independent (pinned by tests); this only
#: names the streams deterministically.
CALIBRATION_SEED = 2006


@dataclass(frozen=True)
class OutcomeModel:
    """Per-rig recovery-timeline constants, measured by real simulation.

    Every figure is a simulated-time picosecond count straight out of
    a real fault simulation; nothing here is estimated or fitted.
    """

    #: Fault-free ``load_robust`` (the campaign baseline).
    clean_ps: int
    #: Standalone scrub pass that finds nothing to repair.
    scan_ps: int
    #: Standalone scrub pass that repairs exactly one frame.
    scrub_repair_ps: int
    #: Robust load whose verify scan catches one post-commit upset.
    inload_ps: int
    #: Robust load whose first feed is CRC-rejected (one retry).
    seu_retry_ps: int
    #: Robust load after ``k`` commit failures, ``k = 1..max_attempts-1``
    #: (index ``k-1``); empty when ``max_attempts == 1``.
    commit_retry_ps: Tuple[int, ...]
    #: Robust load that exhausts attempts and degrades to software.
    fallback_ps: int
    max_attempts: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "clean_ps": self.clean_ps,
            "scan_ps": self.scan_ps,
            "scrub_repair_ps": self.scrub_repair_ps,
            "inload_ps": self.inload_ps,
            "seu_retry_ps": self.seu_retry_ps,
            "commit_retry_ps": list(self.commit_retry_ps),
            "fallback_ps": self.fallback_ps,
            "max_attempts": self.max_attempts,
        }


@dataclass(frozen=True)
class CalibratedRig:
    """A rig's sampling space plus its measured outcome model."""

    space: FaultSpace
    model: OutcomeModel


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantError(f"calibration: {message}")


def calibrate_rig(
    builder: Callable[[], Tuple[object, object]],
    kernel: str = "brightness",
    max_attempts: int = 3,
    calibration_seed: int = CALIBRATION_SEED,
) -> CalibratedRig:
    """Measure one rig's :class:`OutcomeModel` by real simulation.

    Runs ``5 + max_attempts`` fresh-rig simulations (clean, scan,
    repair, in-load catch, CRC retry, each commit-retry depth, and the
    fallback), validating along the way that each simulation took the
    path the model charges for.  Campaign cost is then independent of
    trial count; scenario-level caching amortises even this.
    """
    _expect(max_attempts >= 1, f"max_attempts must be >= 1, got {max_attempts}")

    # Clean robust load: baseline timeline + the golden configuration
    # the sampling space derives essentiality from.
    system, manager = builder()
    clean = manager.load_robust(kernel, max_attempts=max_attempts)
    _expect(not clean.fallback and clean.attempts == 1, "clean load not clean")
    component = manager.component(kernel)
    staged = manager.bitlinker.link([Placement(component, col_offset=0, row_offset=0)])
    space = build_fault_space(
        system.config_memory, manager.region, staged, max_attempts
    )
    scan = manager.scrub()
    _expect(scan.frames_repaired == 0, "clean scrub repaired frames")

    # Scrub with exactly one repaired frame (strike position does not
    # move the figure; the equivalence tests probe several positions).
    system2, manager2 = builder()
    manager2.load_robust(kernel, max_attempts=max_attempts)
    struck_row = int(np.flatnonzero(system2.config_memory.written_mask())[0])
    system2.config_memory.flip_bit(struck_row, 0, 0)
    repair = manager2.scrub()
    _expect(repair.frames_repaired == 1, "repair scrub did not repair 1 frame")

    def armed_load(kind: str, label: str, strikes: int = 1):
        seed = plan_seed(calibration_seed, f"cal:{label}")
        return armed_robust_load(builder, kind, seed, kernel, max_attempts, strikes)[1]

    # Post-commit upset caught by the robust loader's verify scan.
    inload = armed_load("upset", "post-commit")
    _expect(
        not inload.fallback
        and inload.attempts == 1
        and inload.scrubbed_frames == 1,
        "post-commit calibration did not scrub in-load",
    )

    # Staged-stream SEU rejected by the packet CRC, one retry.
    seu_retry_ps = 0
    if max_attempts >= 2:
        seu = armed_load("seu", "seu")
        _expect(
            not seu.fallback and seu.attempts == 2,
            "seu calibration did not retry once",
        )
        seu_retry_ps = seu.elapsed_ps

    # Commit-failure retries at every survivable depth.
    commit_retry: List[int] = []
    for failures in range(1, max_attempts):
        result = armed_load("commit", f"commit:{failures}", failures)
        _expect(
            not result.fallback and result.attempts == failures + 1,
            f"commit calibration ({failures} failures) took "
            f"{result.attempts} attempts",
        )
        commit_retry.append(result.elapsed_ps)

    # Exhausted attempts: rollback + registered software fallback.
    fallback = armed_load("fallback", "fallback")
    _expect(
        fallback.fallback and fallback.attempts == max_attempts,
        "fallback calibration did not degrade to software",
    )

    model = OutcomeModel(
        clean_ps=clean.elapsed_ps,
        scan_ps=scan.elapsed_ps,
        scrub_repair_ps=repair.elapsed_ps,
        inload_ps=inload.elapsed_ps,
        seu_retry_ps=seu_retry_ps,
        commit_retry_ps=tuple(commit_retry),
        fallback_ps=fallback.elapsed_ps,
        max_attempts=max_attempts,
    )
    return CalibratedRig(space=space, model=model)


@dataclass
class TrialBatch:
    """Columnar outcomes of a contiguous trial slice of one kind.

    The batched executor produces these directly; the reference
    executor fills the same columns one trial at a time.  Equality of
    every column *is* the fast-path equivalence claim.
    """

    kind: str
    start: int
    outcome: np.ndarray
    recovered: np.ndarray
    fallback: np.ndarray
    attempts: np.ndarray
    scrubbed: np.ndarray
    faults: np.ndarray
    elapsed_ps: np.ndarray
    region: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.outcome.size)


#: The per-trial columns of a :class:`TrialBatch`, in field order.
TRIAL_COLUMNS: Tuple[str, ...] = (
    "outcome", "recovered", "fallback", "attempts", "scrubbed", "faults",
    "elapsed_ps", "region",
)


def _merge_batches(kind: str, parts: Sequence[TrialBatch]) -> TrialBatch:
    if len(parts) == 1:
        return parts[0]
    return TrialBatch(
        kind=kind,
        start=parts[0].start,
        **{c: np.concatenate([getattr(p, c) for p in parts]) for c in TRIAL_COLUMNS},
    )


def classify_batch(
    space: FaultSpace,
    model: OutcomeModel,
    load: FaultLoad,
    start: int,
    count: int,
) -> TrialBatch:
    """Vectorized outcome classification of ``count`` trials."""
    end = start + count
    outcome = np.empty(count, dtype=np.int8)
    recovered = np.ones(count, dtype=bool)
    fallback = np.zeros(count, dtype=bool)
    attempts = np.ones(count, dtype=np.int64)
    scrubbed = np.zeros(count, dtype=np.int64)
    faults = np.ones(count, dtype=np.int64)
    elapsed = np.empty(count, dtype=np.int64)

    if load.kind in ("upset", "post-commit"):
        rows = load.rows[start:end]
        region = space.region_class[rows].copy()
        if load.kind == "upset":
            written = space.written_rows[rows]
            struck = space.essential[rows, load.words[start:end]].astype(np.int64)
            essential = (struck >> load.bits[start:end]) & 1
            outcome[:] = OUTCOME_BENIGN
            outcome[written] = np.where(
                essential[written] == 1, OUTCOME_CRITICAL, OUTCOME_LATENT
            )
            scrubbed[written] = 1
            elapsed[:] = np.where(written, model.scrub_repair_ps, model.scan_ps)
        else:
            outcome[:] = OUTCOME_DETECTED_INLOAD
            scrubbed[:] = 1
            elapsed[:] = model.inload_ps
    elif load.kind == "seu":
        frame_ordinals = load.stream_pos[start:end] // space.words_per_frame
        region = space.region_class[space.load_rows[frame_ordinals]].copy()
        outcome[:] = OUTCOME_DETECTED_RETRY
        attempts[:] = 2
        elapsed[:] = model.seu_retry_ps
    elif load.kind == "commit":
        region = np.full(count, REGION_ALL, dtype=np.int8)
        k = load.fail_counts[start:end]
        dead = k >= model.max_attempts
        outcome[:] = np.where(dead, OUTCOME_FALLBACK, OUTCOME_DETECTED_RETRY)
        recovered[:] = ~dead
        fallback[:] = dead
        attempts[:] = np.where(dead, model.max_attempts, k + 1)
        faults[:] = k
        retry_table = np.array(
            model.commit_retry_ps + (model.fallback_ps,), dtype=np.int64
        )
        elapsed[:] = retry_table[k - 1]
    else:
        raise InvariantError(f"unknown Monte-Carlo fault kind {load.kind!r}")

    return TrialBatch(
        kind=load.kind,
        start=start,
        outcome=outcome,
        recovered=recovered,
        fallback=fallback,
        attempts=attempts,
        scrubbed=scrubbed,
        faults=faults,
        elapsed_ps=elapsed,
        region=region,
    )


def classify_reference(
    space: FaultSpace,
    model: OutcomeModel,
    load: FaultLoad,
    start: int,
    count: int,
) -> TrialBatch:
    """Per-trial scalar classification — the semantics-defining path.

    Deliberately an honest Python loop over individual trials (scalar
    indexing, branches, int conversions), exactly what a non-vectorized
    campaign would run; the perf bench measures the batched executor
    against this.
    """
    outcome: List[int] = []
    recovered: List[bool] = []
    fallback: List[bool] = []
    attempts: List[int] = []
    scrubbed: List[int] = []
    faults: List[int] = []
    elapsed: List[int] = []
    region: List[int] = []

    for i in range(start, start + count):
        if load.kind == "upset":
            row = int(load.rows[i])
            region.append(int(space.region_class[row]))
            if not bool(space.written_rows[row]):
                outcome.append(OUTCOME_BENIGN)
                recovered.append(True)
                fallback.append(False)
                attempts.append(1)
                scrubbed.append(0)
                faults.append(1)
                elapsed.append(model.scan_ps)
                continue
            word = int(load.words[i])
            bit = int(load.bits[i])
            essential = (int(space.essential[row, word]) >> bit) & 1
            outcome.append(OUTCOME_CRITICAL if essential else OUTCOME_LATENT)
            recovered.append(True)
            fallback.append(False)
            attempts.append(1)
            scrubbed.append(1)
            faults.append(1)
            elapsed.append(model.scrub_repair_ps)
        elif load.kind == "post-commit":
            row = int(load.rows[i])
            region.append(int(space.region_class[row]))
            outcome.append(OUTCOME_DETECTED_INLOAD)
            recovered.append(True)
            fallback.append(False)
            attempts.append(1)
            scrubbed.append(1)
            faults.append(1)
            elapsed.append(model.inload_ps)
        elif load.kind == "seu":
            ordinal = int(load.stream_pos[i]) // space.words_per_frame
            region.append(int(space.region_class[int(space.load_rows[ordinal])]))
            outcome.append(OUTCOME_DETECTED_RETRY)
            recovered.append(True)
            fallback.append(False)
            attempts.append(2)
            scrubbed.append(0)
            faults.append(1)
            elapsed.append(model.seu_retry_ps)
        elif load.kind == "commit":
            k = int(load.fail_counts[i])
            region.append(REGION_ALL)
            if k >= model.max_attempts:
                outcome.append(OUTCOME_FALLBACK)
                recovered.append(False)
                fallback.append(True)
                attempts.append(model.max_attempts)
                elapsed.append(model.fallback_ps)
            else:
                outcome.append(OUTCOME_DETECTED_RETRY)
                recovered.append(True)
                fallback.append(False)
                attempts.append(k + 1)
                elapsed.append(model.commit_retry_ps[k - 1])
            scrubbed.append(0)
            faults.append(k)
        else:
            raise InvariantError(f"unknown Monte-Carlo fault kind {load.kind!r}")

    return TrialBatch(
        kind=load.kind,
        start=start,
        outcome=np.array(outcome, dtype=np.int8),
        recovered=np.array(recovered, dtype=bool),
        fallback=np.array(fallback, dtype=bool),
        attempts=np.array(attempts, dtype=np.int64),
        scrubbed=np.array(scrubbed, dtype=np.int64),
        faults=np.array(faults, dtype=np.int64),
        elapsed_ps=np.array(elapsed, dtype=np.int64),
        region=np.array(region, dtype=np.int8),
    )


#: Executors :func:`run_mc_campaign` accepts; ``both`` runs the batched
#: and the reference executor over the same load and gates on
#: :func:`require_equivalent`.
EXECUTORS: Tuple[str, ...] = ("batch", "reference", "both")

#: Fewest trials a kind runs before early stopping may end it.
EARLY_STOP_MIN_TRIALS = 512


def _monitored_proportions(batch: TrialBatch) -> List[Tuple[int, int]]:
    """(successes, trials) pairs the early-stopping rule watches.

    ``upset`` watches the criticality rate overall and per observed
    region class (the vulnerability factors the campaign exists to
    estimate); every other kind watches its recovery rate.
    """
    n = batch.trials
    if batch.kind == "upset":
        pairs = [(int(np.count_nonzero(batch.outcome == OUTCOME_CRITICAL)), n)]
        for region in (REGION_UNUSED, REGION_STATIC, REGION_DYNAMIC):
            mask = batch.region == region
            count = int(np.count_nonzero(mask))
            if count:
                critical = int(
                    np.count_nonzero(batch.outcome[mask] == OUTCOME_CRITICAL)
                )
                pairs.append((critical, count))
        return pairs
    return [(int(np.count_nonzero(batch.recovered)), n)]


@dataclass
class McReport:
    """Everything one Monte-Carlo campaign measured, per kind."""

    seed: int
    kinds: Tuple[str, ...]
    trials_requested: int
    batch_size: int
    target_half_width: Optional[float]
    space: FaultSpace
    model: OutcomeModel
    loads: Dict[str, FaultLoad] = field(default_factory=dict)
    batches: Dict[str, TrialBatch] = field(default_factory=dict)
    stopped_early: Dict[str, bool] = field(default_factory=dict)

    @property
    def trials_run(self) -> Dict[str, int]:
        return {kind: batch.trials for kind, batch in self.batches.items()}

    @property
    def total_trials(self) -> int:
        return sum(batch.trials for batch in self.batches.values())

    def kind_summary(self) -> List[Dict[str, object]]:
        """Per-kind recovery/fallback rates with Wilson 95% intervals."""
        summary: List[Dict[str, object]] = []
        for kind in self.kinds:
            batch = self.batches[kind]
            n = batch.trials
            recovered = int(np.count_nonzero(batch.recovered))
            fell_back = int(np.count_nonzero(batch.fallback))
            lo, hi = wilson_interval(recovered, n)
            entry: Dict[str, object] = {
                "kind": kind,
                "trials": n,
                "stopped_early": bool(self.stopped_early.get(kind, False)),
                "recovered": recovered,
                "recovery_rate": recovered / n,
                "recovery_ci95": [lo, hi],
                "fallbacks": fell_back,
                "fallback_rate": fell_back / n,
                "fallback_ci95": list(wilson_interval(fell_back, n)),
                "handled_rate": int(np.count_nonzero(batch.recovered | batch.fallback)) / n,
                "mean_attempts": float(batch.attempts.sum() / n),
                "faults_delivered": int(batch.faults.sum()),
                "mean_recovery_ps": int(batch.elapsed_ps.sum()) // n,
            }
            entry.update(percentiles_ps(batch.elapsed_ps))
            summary.append(entry)
        return summary

    def strata(self) -> List[Dict[str, object]]:
        """Per ``(kind, region-class)`` outcome mix with Wilson CIs.

        For ``upset`` strata the estimated proportion is the criticality
        (vulnerability factor) and the analytic essential-bit fraction
        rides along as ground truth; for the rest it is the recovery
        rate.
        """
        rows: List[Dict[str, object]] = []
        for kind in self.kinds:
            batch = self.batches[kind]
            for region in (REGION_UNUSED, REGION_STATIC, REGION_DYNAMIC, REGION_ALL):
                if kind == "upset" and region == REGION_ALL:
                    # The whole-space stratum: upset strikes are sampled
                    # uniformly, so this is the device vulnerability factor.
                    mask = np.ones(batch.trials, dtype=bool)
                else:
                    mask = batch.region == region
                n = int(np.count_nonzero(mask))
                if n == 0:
                    continue
                entry: Dict[str, object] = {
                    "kind": kind,
                    "region": REGION_LABELS[region],
                    "trials": n,
                }
                for code, label in enumerate(OUTCOMES):
                    count = int(np.count_nonzero(batch.outcome[mask] == code))
                    if count:
                        entry[label] = count
                if kind == "upset":
                    critical = int(
                        np.count_nonzero(batch.outcome[mask] == OUTCOME_CRITICAL)
                    )
                    lo, hi = wilson_interval(critical, n)
                    entry["vulnerability"] = critical / n
                    entry["vulnerability_ci95"] = [lo, hi]
                    entry["analytic_vulnerability"] = (
                        self.space.analytic_vulnerability(
                            None if region == REGION_ALL else region
                        )
                    )
                else:
                    recovered = int(np.count_nonzero(batch.recovered[mask]))
                    lo, hi = wilson_interval(recovered, n)
                    entry["recovery_rate"] = recovered / n
                    entry["recovery_ci95"] = [lo, hi]
                rows.append(entry)
        return rows

    def frame_tallies(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-frame ``(strikes, criticals)`` over the ``upset`` trials.

        The empirical side of the vulnerability heatmap; zeros when the
        campaign ran no ``upset`` kind.
        """
        strikes = np.zeros(self.space.total_frames, dtype=np.int64)
        criticals = np.zeros(self.space.total_frames, dtype=np.int64)
        if "upset" in self.batches:
            load = self.loads["upset"]
            batch = self.batches["upset"]
            rows = load.rows[batch.start : batch.start + batch.trials]
            strikes = np.bincount(rows, minlength=self.space.total_frames)
            criticals = np.bincount(
                rows[batch.outcome == OUTCOME_CRITICAL],
                minlength=self.space.total_frames,
            )
        return strikes, criticals

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe report (what ``repro faults --json`` prints)."""
        space = self.space
        analytic = {
            "vulnerability": space.analytic_vulnerability(),
            "by_region": {
                REGION_LABELS[region]: space.analytic_vulnerability(region)
                for region in (REGION_UNUSED, REGION_STATIC, REGION_DYNAMIC)
            },
            "essential_bits": int(space.essential_counts().sum()),
            "total_bits": space.total_bits,
        }
        return {
            "schema": "repro-mc-campaign/1",
            "seed": self.seed,
            "kinds": list(self.kinds),
            "trials_requested": self.trials_requested,
            "trials_run": dict(self.trials_run),
            "total_trials": self.total_trials,
            "batch_size": self.batch_size,
            "target_half_width": self.target_half_width,
            "model": self.model.to_dict(),
            "analytic": analytic,
            "kinds_summary": self.kind_summary(),
            "strata": self.strata(),
        }


def check_campaign_arguments(
    kinds: Sequence[str], trials: int, batch_size: int, max_attempts: int
) -> None:
    """Reject counts no campaign can run, before anything is simulated."""
    for name, value in (
        ("trials", trials),
        ("batch_size", batch_size),
        ("max_attempts", max_attempts),
    ):
        if value < 1:
            raise InvariantError(f"{name} must be >= 1, got {value}")
    if "seu" in kinds and max_attempts < 2:
        raise InvariantError(
            "seu trials need max_attempts >= 2 (the CRC reject consumes one)"
        )


def require_equivalent(batch: McReport, reference: McReport) -> None:
    """The fast-path contract: one fault load, identical trial columns.

    Raises :class:`~repro.errors.CheckError` naming the kind, the first
    divergent trial and its column unless every kind's batched columns
    and the whole report equal the per-trial reference's.
    """
    if batch.kinds != reference.kinds:
        raise CheckError(f"executors ran different kinds: {batch.kinds} vs {reference.kinds}")
    for kind in batch.kinds:
        ours, theirs = batch.batches[kind], reference.batches[kind]
        if (ours.start, ours.trials) != (theirs.start, theirs.trials):
            raise CheckError(
                f"{kind}: batched executor ran trials {ours.start}+{ours.trials}, "
                f"the reference {theirs.start}+{theirs.trials}"
            )
        for column in TRIAL_COLUMNS:
            differ = np.flatnonzero(getattr(ours, column) != getattr(theirs, column))
            if differ.size:
                raise CheckError(
                    f"{kind}: batched executor diverged from the per-trial reference "
                    f"at trial {ours.start + int(differ[0])}, column {column!r}"
                )
    if batch.to_dict() != reference.to_dict():
        raise CheckError(
            "batched report diverged from the per-trial reference report"
        )


def run_mc_campaign(
    builder: Optional[Callable[[], Tuple[object, object]]] = None,
    *,
    rig: Optional[CalibratedRig] = None,
    kinds: Sequence[str] = DEFAULT_MC_KINDS,
    trials: int = 25000,
    seed: int = 2006,
    kernel: str = "brightness",
    max_attempts: int = 3,
    batch_size: int = 8192,
    target_half_width: Optional[float] = None,
    executor: str = "batch",
) -> McReport:
    """Run a stratified Monte-Carlo campaign on one calibrated rig.

    Pass a prebuilt ``rig`` to amortise calibration across campaigns;
    otherwise ``builder`` is calibrated first.  ``executor="both"`` runs
    the batched and the reference executor, returns the batched report
    and raises :class:`~repro.errors.CheckError` from
    :func:`require_equivalent` if they differ.  With a
    ``target_half_width``, each kind stops after the first whole batch
    at which every monitored Wilson interval's half-width (and at least
    :data:`EARLY_STOP_MIN_TRIALS` trials) is reached — a deterministic
    function of the shared fault load, so both executors agree on the
    stopping points.
    """
    if executor not in EXECUTORS:
        raise InvariantError(f"unknown executor {executor!r}; expected {EXECUTORS}")
    if rig is None:
        if builder is None:
            raise InvariantError("run_mc_campaign needs a builder or a rig")
        rig = calibrate_rig(builder, kernel=kernel, max_attempts=max_attempts)
    check_campaign_arguments(kinds, trials, batch_size, rig.model.max_attempts)
    if executor == "both":
        same = dict(
            rig=rig, kinds=kinds, trials=trials, seed=seed,
            batch_size=batch_size, target_half_width=target_half_width,
        )
        report = run_mc_campaign(executor="batch", **same)
        require_equivalent(report, run_mc_campaign(executor="reference", **same))
        return report
    space, model = rig.space, rig.model
    classify = classify_batch if executor == "batch" else classify_reference
    report = McReport(
        seed=seed,
        kinds=tuple(kinds),
        trials_requested=trials,
        batch_size=batch_size,
        target_half_width=target_half_width,
        space=space,
        model=model,
    )
    for kind in report.kinds:
        load = sample_fault_load(space, kind, trials, seed)
        parts: List[TrialBatch] = []
        done = 0
        stopped = False
        while done < trials:
            count = min(batch_size, trials - done)
            parts.append(classify(space, model, load, done, count))
            done += count
            if target_half_width is not None and done >= EARLY_STOP_MIN_TRIALS:
                merged = _merge_batches(kind, parts)
                if all(
                    wilson_half_width(successes, n) <= target_half_width
                    for successes, n in _monitored_proportions(merged)
                ):
                    stopped = done < trials
                    parts = [merged]
                    break
        report.loads[kind] = load
        report.batches[kind] = _merge_batches(kind, parts)
        report.stopped_early[kind] = stopped
    return report
