"""System rigs shared by the table and ablation scenarios.

Each rig is a freshly built system plus a :class:`~repro.core.reconfig.ReconfigManager`
with the paper's five (or six) kernels registered.  Scenarios build their
rigs from scratch on every run — no module-level state — so results are
independent of execution order and of which process ran them.
"""

from __future__ import annotations

from typing import Tuple

from ..core import build_system32, build_system64
from ..core.apps import PIO_PHASES
from ..core.reconfig import ReconfigManager
from ..engine.batch import declare_phases
from ..errors import ResourceError
from ..kernels import (
    BlendKernel,
    BrightnessKernel,
    FadeKernel,
    JenkinsHashKernel,
    PatternMatchKernel,
    Sha1Kernel,
)
from ..workloads import binary_pattern

#: Image-task constants shared by the table scenarios (paper values).
BRIGHTNESS_CONSTANT = 48
FADE_FACTOR = 0.5

#: Workload seed for the 4x4 binary pattern (the paper's publication year).
PATTERN_SEED = 2006


def register_all(system, pattern) -> ReconfigManager:
    """Register the paper's kernel set on a freshly built system.

    Also declares the PIO driver loops as batchable phases: the kernels
    registered here are exactly the ones whose bulk data paths have been
    verified word-for-word equivalent to the interleaved reference loops,
    so the steady-state compiler (:mod:`repro.engine.batch`) may compress
    them.  Scenarios that bypass this helper run fully interpreted.
    """
    declare_phases(system, *PIO_PHASES)
    manager = ReconfigManager(system)
    manager.register(PatternMatchKernel(pattern))
    manager.register(JenkinsHashKernel())
    manager.register(BrightnessKernel(BRIGHTNESS_CONSTANT))
    manager.register(BlendKernel())
    manager.register(FadeKernel(FADE_FACTOR))
    try:
        manager.register(Sha1Kernel())
    except ResourceError:
        pass  # does not fit the 32-bit region — the paper's point
    return manager


def build_rig32(pattern_seed: int = PATTERN_SEED) -> Tuple[object, ReconfigManager]:
    """The 32-bit system with all fitting kernels registered."""
    system = build_system32()
    return system, register_all(system, binary_pattern(seed=pattern_seed))


def build_rig64(pattern_seed: int = PATTERN_SEED) -> Tuple[object, ReconfigManager]:
    """The 64-bit system with the full kernel set registered."""
    system = build_system64()
    return system, register_all(system, binary_pattern(seed=pattern_seed))
