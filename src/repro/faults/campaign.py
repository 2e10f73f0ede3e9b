"""Seeded fault campaigns: strike, recover, measure.

A campaign runs a set of *trial kinds* — one per injector family — each a
fresh system built by a caller-supplied ``builder`` (kept as a parameter
so this module does not depend on the scenario rigs), with a seeded
:class:`~repro.faults.plan.FaultPlan` armed and the robust loader (or
scrubber, or DMA retry) asked to survive it.  Every random choice derives
from the campaign seed, so a report reproduces bit-for-bit from
``(seed, kinds, trials)``.

Four kinds (:data:`ROBUST_PLANS`) are one armed ``load_robust`` each, run
by :func:`armed_robust_load`; the Monte-Carlo calibration
(:func:`repro.faults.montecarlo.calibrate_rig`) measures its outcome
model through the same function and table, so both layers simulate the
same timelines.  ``upset-scrub`` (a scrub pass between loads) and
``dma`` (a chain retry) are the two special cases.

Reported per trial: whether the fault was *recovered* (the hardware load
or transfer ultimately succeeded), whether the loader *degraded* to the
registered software fallback, attempts/scrubbed-frame counts, the number
of faults actually delivered, and the simulated recovery time against a
clean-load baseline (the overhead of being robust).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from ..errors import CheckError, InvariantError, TransferError
from .plan import FaultPlan, armed, derive_rng_seed

#: Trial kinds in reporting order.
DEFAULT_KINDS: Tuple[str, ...] = (
    "seu",
    "commit",
    "upset",
    "upset-scrub",
    "dma",
    "fallback",
)

#: The robust-load kinds and the ``FaultPlan`` schedule each one strikes:
#: ``seu`` corrupts a staged feed (the ICAP CRC rejects it and the loader
#: retries), ``commit`` forces a commit failure on a clean stream,
#: ``upset`` lands a configuration-memory upset right after the commit
#: (the in-load readback scan scrubs it), and ``fallback`` corrupts every
#: attempt's feed, so the loader rolls back and degrades to software.
ROBUST_PLANS: Dict[str, str] = {
    "seu": "seu_feeds",
    "commit": "commit_faults",
    "upset": "post_commit_upsets",
    "fallback": "seu_feeds",
}


def parse_kinds(text: str, allowed: Sequence[str]) -> Tuple[str, ...]:
    """The comma-separated kinds of ``text``, each one of ``allowed``.

    Raises :class:`~repro.errors.CheckError` on an empty list or an
    unknown kind, so a bad request fails before any rig is built.
    """
    kinds = tuple(kind.strip() for kind in text.split(",") if kind.strip())
    if not kinds:
        raise CheckError(f"no fault kinds in {text!r}")
    unknown = [kind for kind in kinds if kind not in allowed]
    if unknown:
        raise CheckError(
            f"unknown fault kind(s) {', '.join(unknown)}; "
            f"expected any of {', '.join(allowed)}"
        )
    return kinds


@dataclass
class TrialResult:
    """One fault trial: what struck and how the system coped."""

    kind: str
    trial: int
    seed: int
    recovered: bool
    fallback: bool
    attempts: int
    scrubbed_frames: int
    faults_delivered: int
    elapsed_ps: int
    detail: str = ""
    #: Monte-Carlo outcome class (``repro.faults.montecarlo.OUTCOMES``);
    #: empty for a :func:`run_trial` simulation, whose timeline the
    #: calibrated model charges as a constant instead.
    outcome: str = ""


@dataclass
class CampaignReport:
    """All trials of one campaign plus the clean-load baseline."""

    trials: List[TrialResult] = field(default_factory=list)
    #: Simulated time of one fault-free ``load_robust`` on the same rig.
    clean_load_ps: int = 0

    @property
    def recovery_rate(self) -> float:
        """Fraction of trials whose hardware path ultimately succeeded."""
        if not self.trials:
            return 0.0
        return sum(1 for t in self.trials if t.recovered) / len(self.trials)

    @property
    def handled_rate(self) -> float:
        """Fraction recovered *or* gracefully degraded (nothing crashed)."""
        if not self.trials:
            return 0.0
        return sum(1 for t in self.trials if t.recovered or t.fallback) / len(self.trials)

    @property
    def fallback_rate(self) -> float:
        if not self.trials:
            return 0.0
        return sum(1 for t in self.trials if t.fallback) / len(self.trials)

    @property
    def mean_attempts(self) -> float:
        if not self.trials:
            return 0.0
        return sum(t.attempts for t in self.trials) / len(self.trials)

    @property
    def total_faults(self) -> int:
        return sum(t.faults_delivered for t in self.trials)

    def overhead_ratio(self, trial: TrialResult) -> float:
        """Recovery time relative to the clean load (1.0 = no overhead)."""
        if not self.clean_load_ps:
            return 0.0
        return trial.elapsed_ps / self.clean_load_ps


def plan_seed(seed: int, label: str) -> int:
    """The ``FaultPlan`` seed a campaign (or calibration) derives per label."""
    return derive_rng_seed(seed, label) & 0x7FFFFFFF


def _detail(plan: FaultPlan) -> str:
    return "; ".join(f"{kind}@{site}: {note}" for kind, site, note in plan.summary())


def armed_robust_load(
    builder: Callable[[], Tuple[object, object]],
    kind: str,
    seed: int,
    kernel: str,
    max_attempts: int,
    strikes: int = 1,
) -> Tuple[FaultPlan, object]:
    """One ``load_robust`` of ``kernel`` on a fresh rig, under ``kind``'s plan.

    The plan (see :data:`ROBUST_PLANS`) strikes the first ``strikes``
    attempts; ``fallback`` strikes every attempt, after registering the
    software implementation the loader degrades to.  Returns the plan
    (what was delivered) with the loader's result.
    """
    system, manager = builder()
    if kind == "fallback":
        manager.register_software(kernel, f"sw:{kernel}")
        strikes = max_attempts
    plan = FaultPlan(seed, **{ROBUST_PLANS[kind]: range(strikes)})
    with armed(system, plan):
        result = manager.load_robust(kernel, max_attempts=max_attempts)
    return plan, result


def run_trial(
    kind: str,
    trial: int,
    seed: int,
    builder: Callable[[], Tuple[object, object]],
    kernel: str,
    max_attempts: int,
) -> TrialResult:
    """One seeded fault trial on a fresh system; see :data:`DEFAULT_KINDS`."""
    if kind not in DEFAULT_KINDS:
        raise InvariantError(
            f"unknown fault-trial kind {kind!r}; expected one of {DEFAULT_KINDS}"
        )
    trial_seed = plan_seed(seed, f"{kind}:{trial}")

    if kind in ROBUST_PLANS:
        plan, result = armed_robust_load(
            builder, kind, trial_seed, kernel, max_attempts
        )
        return TrialResult(
            kind, trial, trial_seed,
            recovered=not result.fallback, fallback=result.fallback,
            attempts=result.attempts, scrubbed_frames=result.scrubbed_frames,
            faults_delivered=plan.faults_delivered,
            elapsed_ps=result.elapsed_ps, detail=_detail(plan),
        )

    system, manager = builder()
    if kind == "upset-scrub":
        # Upset strikes *between* loads; the periodic scrub pass repairs it.
        result = manager.load_robust(kernel, max_attempts=max_attempts)
        plan = FaultPlan(trial_seed, upset_flips=1)
        plan.upset_now(system.config_memory)
        report = manager.scrub()
        return TrialResult(
            kind, trial, trial_seed,
            recovered=report.frames_repaired >= 1, fallback=False,
            attempts=result.attempts, scrubbed_frames=report.frames_repaired,
            faults_delivered=plan.faults_delivered,
            elapsed_ps=report.elapsed_ps, detail=_detail(plan),
        )

    # dma: a descriptor aborts mid-chain; software retries the chain.
    from ..dock.dma import Descriptor

    plan = FaultPlan(trial_seed, dma_descriptors={0})
    descriptor = Descriptor(
        src=system.ext_mem_base,
        dst=system.ext_mem_base + 0x1000,
        word_count=64,
        size_bytes=8 if system.bus_width >= 64 else 4,
    )
    engine = system.dock.dma
    start_ps = system.cpu.now_ps
    recovered = False
    with armed(system, plan):
        try:
            done = engine.run_chain(start_ps, [descriptor])
        except TransferError:
            done = engine.run_chain(start_ps, [descriptor])
            recovered = True
    return TrialResult(
        kind, trial, trial_seed,
        recovered=recovered, fallback=False,
        attempts=2 if recovered else 1, scrubbed_frames=0,
        faults_delivered=plan.faults_delivered,
        elapsed_ps=done - start_ps, detail=_detail(plan),
    )


def run_campaign(
    builder: Callable[[], Tuple[object, object]],
    kinds: Sequence[str] = DEFAULT_KINDS,
    trials: int = 3,
    seed: int = 2006,
    kernel: str = "brightness",
    max_attempts: int = 3,
) -> CampaignReport:
    """Run ``trials`` seeded trials of each kind on fresh systems."""
    report = CampaignReport()
    _, clean_manager = builder()
    clean = clean_manager.load_robust(kernel, max_attempts=max_attempts)
    report.clean_load_ps = clean.elapsed_ps
    for kind in kinds:
        for trial in range(trials):
            report.trials.append(
                run_trial(kind, trial, seed, builder, kernel, max_attempts)
            )
    return report
