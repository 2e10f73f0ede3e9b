"""Seeded fault injection and fault campaigns for the reconfiguration stack."""

from .campaign import CampaignReport, TrialResult, run_campaign
from .montecarlo import (
    OUTCOMES,
    CalibratedRig,
    McReport,
    OutcomeModel,
    TrialBatch,
    calibrate_rig,
    classify_batch,
    classify_reference,
    run_mc_campaign,
)
from .plan import FaultPlan, InjectedFault, arm, armed, disarm, payload_word_indices
from .sampling import (
    DEFAULT_MC_KINDS,
    REGION_LABELS,
    FaultLoad,
    FaultSpace,
    build_fault_space,
    essential_bit_map,
    sample_fault_load,
    sample_fault_loads,
)

__all__ = [
    "CalibratedRig",
    "CampaignReport",
    "DEFAULT_MC_KINDS",
    "FaultLoad",
    "FaultPlan",
    "FaultSpace",
    "InjectedFault",
    "McReport",
    "OUTCOMES",
    "OutcomeModel",
    "REGION_LABELS",
    "TrialBatch",
    "TrialResult",
    "arm",
    "armed",
    "build_fault_space",
    "calibrate_rig",
    "classify_batch",
    "classify_reference",
    "disarm",
    "essential_bit_map",
    "payload_word_indices",
    "run_campaign",
    "run_mc_campaign",
    "sample_fault_load",
    "sample_fault_loads",
]
