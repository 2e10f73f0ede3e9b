"""Command-line interface.

``python -m repro <command>`` gives quick access to the library without
writing a script::

    python -m repro devices                 # the device catalog
    python -m repro info --system 64        # system summary + resource table
    python -m repro floorplan --system 32   # figures 3/4 (and 1 with 'generic')
    python -m repro transfers --system 64   # tables 2/7/8 in seconds
    python -m repro demo                    # reconfigure + accelerate a task
    python -m repro trace --words 64        # bus-level transaction trace
    python -m repro check                   # DRC + self-lint (docs/CHECKS.md)
    python -m repro sweep run --jobs 4      # parallel scenario sweep (docs/SWEEP.md)
    python -m repro serve --requests 100000 # multi-tenant scheduler (docs/SERVE.md)
    python -m repro faults --trials 100000  # Monte-Carlo campaign (docs/FAULTS.md)
    python -m repro dse --smoke             # design-space exploration (docs/DSE.md)

``demo`` and ``transfers`` run the cheap system DRC before simulating
(disable with ``--no-drc``); a configuration that fails design rules dies
in milliseconds instead of mid-benchmark.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .checks import cli as checks_cli
from .dse import cli as dse_cli
from .faults import cli as faults_cli
from .serve import cli as serve_cli
from .sweep import cli as sweep_cli
from .core import (
    TransferBench,
    build_system32,
    build_system64,
    build_system64_dual,
)
from .core.floorplan import render_generic_architecture, render_system_floorplan
from .core.reconfig import ReconfigManager
from .engine.trace import TraceRecorder
from .errors import run_command
from .fabric.device import DEVICES
from .reporting import format_table


def _build(which: str):
    if which == "32":
        return build_system32()
    if which == "64":
        return build_system64()
    if which == "dual":
        system, _ = build_system64_dual()
        return system
    raise SystemExit(f"unknown system {which!r} (use 32, 64 or dual)")


def _predrc(system, args: argparse.Namespace) -> None:
    """Run the system DRC before a simulation command (``--no-drc`` skips).

    Error diagnostics abort with exit status 2; warnings are printed to
    stderr and the run continues.
    """
    if getattr(args, "no_drc", False):
        return
    from .checks import check_system

    report = check_system(system)
    for diag in report.sorted():
        print(diag.render(), file=sys.stderr)
    if report.has_errors:
        raise SystemExit(2)


def cmd_devices(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(DEVICES):
        device = DEVICES[name]
        rows.append(
            [
                name,
                f"-{device.speed_grade}",
                f"{device.clb_cols}x{device.clb_rows}",
                device.slice_count,
                device.bram_count,
                device.cpu_count,
                device.total_frames,
            ]
        )
    print(
        format_table(
            "Device catalog (Virtex-II Pro model)",
            ["part", "grade", "CLB grid", "slices", "BRAM", "CPUs", "frames"],
            rows,
        )
    )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    system = _build(args.system)
    print(system)
    print(f"dynamic area: {system.region_summary()}")
    print()
    rows = [
        [entry.name, entry.resources.slices, entry.resources.bram_blocks, entry.bus, entry.note]
        for entry in system.modules
    ]
    static = system.static_resources()
    rows.append(["-- static total --", static.slices, static.bram_blocks, "", ""])
    print(
        format_table(
            f"Resource usage ({system.name})",
            ["module", "slices", "BRAM", "bus", "note"],
            rows,
        )
    )
    return 0


def cmd_floorplan(args: argparse.Namespace) -> int:
    if args.system == "generic":
        print(render_generic_architecture())
        return 0
    print(render_system_floorplan(_build(args.system)))
    return 0


def cmd_transfers(args: argparse.Namespace) -> int:
    system = _build(args.system)
    _predrc(system, args)
    bench = TransferBench(system)
    n = args.words
    rows = [
        ["PIO write", bench.pio_write_sequence(n).per_transfer_ns, 32],
        ["PIO read", bench.pio_read_sequence(n).per_transfer_ns, 32],
        ["PIO write/read", bench.pio_interleaved_sequence(n).per_transfer_ns, 32],
    ]
    if system.bus_width == 64:
        rows.append(["DMA write", bench.dma_write_sequence(n).per_transfer_ns, 64])
        rows.append(["DMA read", bench.dma_read_sequence(n).per_transfer_ns, 64])
        rows.append(
            ["DMA write/read", bench.dma_interleaved_sequence(n).per_transfer_ns, 64]
        )
    print(
        format_table(
            f"Transfer times on {system.name} ({n} transfers per sequence)",
            ["method", "ns per transfer", "bits/transfer"],
            rows,
        )
    )
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from .core.apps import HwBrightnessPio
    from .kernels import BrightnessKernel
    from .sw import SwBrightness
    from .workloads import grayscale_image

    system = _build(args.system)
    _predrc(system, args)
    manager = ReconfigManager(system)
    manager.register(BrightnessKernel(40))
    result = manager.load("brightness", verify=args.verify)
    print(
        f"loaded 'brightness': {result.frame_count} frames, "
        f"{result.byte_size} bytes, {result.elapsed_ms:.2f} ms"
        + (f" (incl. {result.verify_ps / 1e9:.2f} ms readback verify)" if args.verify else "")
    )
    image = grayscale_image(64, 64, seed=1)
    hw = HwBrightnessPio().run(system, image)
    sw = SwBrightness(40).run(system, image)
    if not np.array_equal(hw.result, sw.result):
        from .errors import CheckError

        raise CheckError("demo: hardware result diverges from the software reference")
    print(f"software {sw.elapsed_us:9.1f} us | hardware {hw.elapsed_us:9.1f} us | "
          f"speedup {sw.elapsed_ps / hw.elapsed_ps:.2f}x")
    return 0


def cmd_assess(args: argparse.Namespace) -> int:
    """The paper's 'first assessment': can hardware win, given the I/O?"""
    from .analysis import Method, TaskProfile, assess, measure_transfer_costs

    system = _build(args.system)
    costs = measure_transfer_costs(system)
    profile = TaskProfile(
        name=args.name,
        words_in=args.words_in,
        words_out=args.words_out,
        prep_cycles=args.prep_cycles,
    )
    methods = [Method.PIO] + ([Method.DMA] if costs.supports_dma else [])
    software_ps = round(args.software_us * 1e6)
    for method in methods:
        result = assess(system, profile, software_ps, method=method, costs=costs)
        print(result)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    system = _build(args.system)
    recorder = TraceRecorder()
    system.plb.tracer = recorder
    system.opb.tracer = recorder
    bench = TransferBench(system)
    bench.pio_interleaved_sequence(args.words)
    print(f"{len(recorder)} bus transactions recorded")
    for key, count in sorted(recorder.summary().items()):
        print(f"  {key:20s} {count}")
    if args.csv:
        print()
        print("\n".join(recorder.to_csv().splitlines()[: args.head + 1]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Silva & Ferreira (IPPS 2006): "
        "dynamic reconfiguration of platform FPGAs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the device catalog").set_defaults(func=cmd_devices)

    p_info = sub.add_parser("info", help="system summary and resource table")
    p_info.add_argument("--system", default="32", choices=["32", "64", "dual"])
    p_info.set_defaults(func=cmd_info)

    p_floor = sub.add_parser("floorplan", help="render an architecture figure")
    p_floor.add_argument("--system", default="32", choices=["generic", "32", "64", "dual"])
    p_floor.set_defaults(func=cmd_floorplan)

    p_tr = sub.add_parser("transfers", help="measure raw transfer times")
    p_tr.add_argument("--system", default="32", choices=["32", "64", "dual"])
    p_tr.add_argument("--words", type=int, default=2048)
    p_tr.add_argument("--no-drc", action="store_true", help="skip the pre-run system DRC")
    p_tr.set_defaults(func=cmd_transfers)

    p_demo = sub.add_parser("demo", help="reconfigure and accelerate a task")
    p_demo.add_argument("--system", default="32", choices=["32", "64", "dual"])
    p_demo.add_argument("--verify", action="store_true", help="readback-verify the load")
    p_demo.add_argument("--no-drc", action="store_true", help="skip the pre-run system DRC")
    p_demo.set_defaults(func=cmd_demo)

    p_check = sub.add_parser(
        "check", help="static analysis: system/bitstream DRC + codebase self-lint"
    )
    checks_cli.add_arguments(p_check)
    p_check.set_defaults(func=checks_cli.run)

    p_sweep = sub.add_parser(
        "sweep", help="parallel scenario sweep with result caching (docs/SWEEP.md)"
    )
    sweep_cli.add_arguments(p_sweep)
    p_sweep.set_defaults(func=sweep_cli.run)

    p_serve = sub.add_parser(
        "serve", help="multi-tenant reconfiguration scheduler (docs/SERVE.md)"
    )
    serve_cli.add_arguments(p_serve)
    p_serve.set_defaults(func=serve_cli.run)

    p_faults = sub.add_parser(
        "faults", help="Monte-Carlo fault campaign with Wilson CIs (docs/FAULTS.md)"
    )
    faults_cli.add_arguments(p_faults)
    p_faults.set_defaults(func=faults_cli.run)

    p_dse = sub.add_parser(
        "dse", help="design-space exploration with Pareto fronts (docs/DSE.md)"
    )
    dse_cli.add_arguments(p_dse)
    p_dse.set_defaults(func=dse_cli.run)

    p_assess = sub.add_parser(
        "assess", help="lower-bound feasibility check for a hardware candidate"
    )
    p_assess.add_argument("--system", default="32", choices=["32", "64", "dual"])
    p_assess.add_argument("--name", default="candidate")
    p_assess.add_argument("--words-in", type=int, required=True,
                          help="32-bit words sent to the dynamic area")
    p_assess.add_argument("--words-out", type=int, required=True,
                          help="32-bit words read back")
    p_assess.add_argument("--prep-cycles", type=int, default=0,
                          help="unavoidable CPU preparation (cycles)")
    p_assess.add_argument("--software-us", type=float, required=True,
                          help="measured software time (us)")
    p_assess.set_defaults(func=cmd_assess)

    p_trace = sub.add_parser("trace", help="record a bus-transaction trace")
    p_trace.add_argument("--system", default="32", choices=["32", "64", "dual"])
    p_trace.add_argument("--words", type=int, default=32)
    p_trace.add_argument("--csv", action="store_true", help="print the trace head as CSV")
    p_trace.add_argument("--head", type=int, default=10)
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run_command(f"repro {args.command}", args.func, args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
