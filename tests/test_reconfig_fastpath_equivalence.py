"""Reconfiguration-datapath fast-path equivalence contract.

The vectorized reconfiguration datapath (NumPy packet codec, bulk ICAP
ingest, array-backed configuration memory, bulk BitLinker assembly) must
be *indistinguishable* from the word-by-word reference path: byte-identical
serialised bitstreams, identical configuration-memory contents and access
counters after load/swap/clear cycles, identical simulated timing in every
:class:`ReconfigResult`, and identical failure behaviour on corrupt
streams.  ``repro.engine.fastpath`` flips between the two worlds; these
tests run the same workload in both and diff everything observable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitstream.bitlinker import Placement
from repro.bitstream.bitstream import Bitstream
from repro.engine import batch, fastpath
from repro.errors import ReconfigurationError
from repro.faults import FaultPlan, armed
from repro.scenarios.perf import run_reconfig_cycles
from repro.scenarios.rigs import build_rig32, build_rig64

KERNEL = "brightness"
ALTERNATE = "lookup2"


def _both(scenario):
    """Run ``scenario() -> value`` with the fast path forced on and off."""
    with fastpath.forced_on():
        fast = scenario()
    with fastpath.disabled():
        slow = scenario()
    return fast, slow


# -- serialisation ----------------------------------------------------------
def test_serialized_clear_stream_byte_identical():
    def stream():
        _, manager = build_rig64()
        return manager.bitlinker.clear_bitstream().to_words()

    fast, slow = _both(stream)
    assert fast.dtype == slow.dtype
    assert fast.tobytes() == slow.tobytes()


def test_decode_agrees_with_reference_path():
    with fastpath.disabled():
        _, manager = build_rig64()
        words = manager.bitlinker.clear_bitstream().to_words()

    fast, slow = _both(lambda: Bitstream.from_words(words.copy()))
    assert fast.device_name == slow.device_name
    assert fast.frame_count == slow.frame_count
    for (fast_addr, fast_data), (slow_addr, slow_data) in zip(fast.frames, slow.frames):
        assert fast_addr == slow_addr
        assert np.array_equal(fast_data, slow_data)


# -- full reconfiguration cycles --------------------------------------------
def _cycle_observables():
    system, manager = build_rig64()
    loads, differentials, clears = run_reconfig_cycles(
        manager, cycles=2, kernel=KERNEL, alternate=ALTERNATE
    )
    memory = system.config_memory
    return {
        "now_ps": system.cpu.now_ps,
        "results": [
            (
                result.kernel_name,
                result.kind,
                result.frame_count,
                result.word_count,
                result.elapsed_ps,
                result.verify_ps,
                result.frames_verified,
            )
            for result in loads + differentials + clears
        ],
        "frames_written": system.hwicap.frames_written,
        "crc_failures": system.hwicap.crc_failures,
        "memory_writes": memory.writes,
        "memory_reads": memory.reads,
        "icap_stats": system.hwicap.stats.snapshot(),
        "memory": dict(memory.snapshot()),
    }


def test_reconfig_cycles_identical_in_every_observable():
    fast, slow = _both(_cycle_observables)

    fast_memory = fast.pop("memory")
    slow_memory = slow.pop("memory")
    assert fast == slow  # timing, results, counters, stats

    assert set(fast_memory) == set(slow_memory)
    for address, fast_data in fast_memory.items():
        assert np.array_equal(fast_data, slow_memory[address]), address


def test_verified_load_identical():
    def observables():
        system, manager = build_rig64()
        result = manager.load(KERNEL, verify=True, verify_samples=4)
        return (
            system.cpu.now_ps,
            result.elapsed_ps,
            result.verify_ps,
            result.frames_verified,
        )

    fast, slow = _both(observables)
    assert fast == slow


# -- failure behaviour -------------------------------------------------------
def _load_corrupted(mutate):
    """Feed a corrupted clear stream through the ICAP; return the error."""
    system, manager = build_rig64()
    words = manager.bitlinker.clear_bitstream().to_words().copy()
    mutate(words)
    with pytest.raises(ReconfigurationError) as excinfo:
        system.hwicap.load_words(words)
    return str(excinfo.value), system.hwicap.crc_failures, system.hwicap.frames_written


def test_crc_failure_identical():
    def flip_payload_word(words):
        # Word 12 sits inside the first frame's FDRI payload (after the
        # dummy/sync words, the RCRC/IDCODE/WCFG preamble and the frame's
        # FAR/FDRI headers), so the packet structure stays intact and only
        # the checksum breaks.
        words[12] ^= np.uint32(0x00010000)

    fast, slow = _both(lambda: _load_corrupted(flip_payload_word))
    assert fast == slow
    message, crc_failures, frames_written = fast
    assert "bad bitstream" in message and "CRC" in message
    assert crc_failures == 1
    assert frames_written == 0


# -- robust loading ----------------------------------------------------------
def test_clean_robust_load_identical():
    def observables():
        system, manager = build_rig64()
        result = manager.load_robust(KERNEL, verify_samples=4)
        return (
            system.cpu.now_ps,
            result.elapsed_ps,
            result.verify_ps,
            result.frames_verified,
            result.attempts,
            result.scrubbed_frames,
            result.fallback,
            system.hwicap.stats.snapshot(),
        )

    fast, slow = _both(observables)
    assert fast == slow


def test_faulted_robust_load_identical():
    def observables():
        system, manager = build_rig64()
        plan = FaultPlan(909, seu_feeds={0}, post_commit_upsets={0})
        with armed(system, plan):
            result = manager.load_robust(KERNEL)
        memory = system.config_memory
        return {
            "now_ps": system.cpu.now_ps,
            "attempts": result.attempts,
            "scrubbed": result.scrubbed_frames,
            "rolled_back": result.rolled_back,
            "faults": plan.summary(),
            "crc_failures": system.hwicap.crc_failures,
            "icap_stats": system.hwicap.stats.snapshot(),
            "memory_bytes": {
                address: data.tobytes() for address, data in memory.snapshot().items()
            },
        }

    fast, slow = _both(observables)
    assert fast == slow


def test_unarmed_hooks_do_not_change_observables():
    # The no-plan-armed contract: loading with hooks present but unarmed is
    # byte-identical to the pre-fault-subsystem behaviour in both worlds —
    # the equivalence suite above pins fast == slow, this pins armed-None.
    def observables():
        system, manager = build_rig64()
        assert system.fault_plan is None
        result = manager.load(KERNEL, verify=True, verify_samples=4)
        return (system.cpu.now_ps, result.elapsed_ps, result.frames_verified)

    fast, slow = _both(observables)
    assert fast == slow


# -- compiled readback scans ---------------------------------------------------
def _readback_observables(system, outcome):
    """Everything a readback scan can touch, plus the scan's own result.

    The statistics groups are the ones ``run_steady`` watches and charges.
    """
    groups = [system.cpu, system.plb, getattr(system, "opb", None),
              getattr(system, "bridge", None), system.hwicap, system.dock,
              getattr(system.dock, "dma", None)]
    return {
        "outcome": outcome,
        "now_ps": system.cpu.now_ps,
        "stats": {g.stats.name: g.stats.snapshot() for g in groups if g is not None},
        "memory_reads": system.config_memory.reads,
        "frames_read_back": system.hwicap.frames_read_back,
        "far": system.hwicap._far,
    }


def _both_compiled(scenario):
    """``_both`` that also reports the phases the fast side compiled."""
    before = batch.telemetry().compiled_phases
    with fastpath.forced_on():
        fast = scenario()
    compiled = batch.telemetry().compiled_phases - before
    with fastpath.disabled():
        slow = scenario()
    return fast, slow, compiled


@pytest.mark.parametrize("build", [build_rig32, build_rig64], ids=["system32", "system64"])
def test_robust_load_readback_scan_identical(build):
    def observables():
        system, manager = build()
        # Seed 904 upsets one frame deep in the bitstream, well past the
        # probe window, so the compiled scan's bulk compare must find it.
        plan = FaultPlan(904, post_commit_upsets={0})
        with armed(system, plan):
            result = manager.load_robust(KERNEL)
        placement = Placement(manager.component(KERNEL), col_offset=0, row_offset=0)
        frames = [address for address, _ in manager.bitlinker.link([placement]).frames]
        detail = plan.injected[-1].detail
        upset = [i for i, address in enumerate(frames) if detail.startswith(f"{address} ")]
        return upset, _readback_observables(system, result)

    (fast_upset, fast), (slow_upset, slow), compiled = _both_compiled(observables)
    assert fast_upset == slow_upset and fast_upset[0] >= batch.MAX_PROBES
    assert fast["outcome"].scrubbed_frames == 1
    assert fast == slow
    assert compiled >= 1  # the full scan; the one-frame recheck interprets


@pytest.mark.parametrize("build", [build_rig32, build_rig64], ids=["system32", "system64"])
def test_scrub_after_upset_identical(build):
    def observables():
        system, manager = build()
        manager.load_robust(KERNEL)
        FaultPlan(7, upset_flips=3).upset_now(system.config_memory)
        report = manager.scrub()
        return _readback_observables(system, report)

    fast, slow, compiled = _both_compiled(observables)
    assert fast["outcome"].frames_repaired >= 1
    assert fast == slow
    assert compiled >= 2  # the load's scan and the scrub's
