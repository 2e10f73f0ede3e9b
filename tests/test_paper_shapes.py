"""Paper claims that need data no single scenario emits.

Every other qualitative claim of the paper (who wins, by roughly what
factor) is checked at the end of its scenario body in
``repro.scenarios`` and gated by the registry test in
``tests/test_scenarios_registry.py``.  The four below compare quantities
that no scenario's rows carry: the PIO interleaved time next to Table 8,
the 32-bit software time next to Table 9, Table 5's data-preparation
cost, and the static inventories of two different tables.  The three
Table 11 checks also hold inside ``table11_sha1``; here they run on the
kernel and drivers directly, without the scenario's parameters.
"""

import pytest

from repro.core import TransferBench
from repro.core.apps import HwBlendPio, HwSha1
from repro.errors import ResourceError
from repro.kernels import Sha1Kernel
from repro.sw import SwPatternMatch, SwSha1
from repro.workloads import binary_image, grayscale_image, random_key

IMG = (16, 40)
GRAY = (32, 32)


def test_table8_interleaved_uses_block_interleaving(system64):
    bench = TransferBench(system64)
    result = bench.dma_interleaved_sequence(4096)  # > FIFO depth of 2047
    assert result.per_transfer_ns < bench.pio_interleaved_sequence(1024).per_transfer_ns


def test_table9_software_benefits_more_from_memory(system32, system64, pattern):
    image = binary_image(*IMG, seed=52)
    sw32 = SwPatternMatch(pattern).run(system32, image).elapsed_ps
    sw64 = SwPatternMatch(pattern).run(system64, image).elapsed_ps
    assert sw32 / sw64 > 2.5  # more than the 1.5x clock alone


def test_table11_sha1_does_not_fit_32bit(manager32):
    with pytest.raises(ResourceError):
        manager32.register(Sha1Kernel())


def test_table11_sha1_considerable_gain_on_64bit(system64, manager64):
    manager64.load("sha1")
    message = random_key(2048, seed=55)
    hw = HwSha1().run(system64, message)
    sw = SwSha1().run(system64, message)
    assert hw.result == sw.result
    assert sw.elapsed_ps / hw.elapsed_ps > 2


def test_table11_sw_overhead_shrinks_with_size(system64):
    per_byte = []
    for n in (64, 512, 8192):
        result = SwSha1().run(system64, random_key(n, seed=56))
        per_byte.append(result.elapsed_ps / n)
    assert per_byte[0] > per_byte[1] > per_byte[2]


def test_table5_image_speedups(system32, manager32):
    # The two-source tasks pay for combining their inputs on the CPU,
    # even on the 32-bit PIO path.
    manager32.load("blend")
    a = grayscale_image(*GRAY, seed=57)
    b = grayscale_image(*GRAY, seed=58)
    hw = HwBlendPio().run(system32, a, b)
    assert hw.breakdown["data_preparation_ps"] > 0


def test_table1_table6_resource_inventories(system32, system64):
    # The second design's permanent circuits are larger and more complex.
    assert system64.static_resources().slices > system32.static_resources().slices
