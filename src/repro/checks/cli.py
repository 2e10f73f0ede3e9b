"""Command-line front end for :mod:`repro.checks`.

Reached two ways with identical flags::

    python -m repro.checks [...]        # standalone
    python -m repro check [...]         # subcommand of the main CLI

Default behaviour runs **all three layers**: the simulator-discipline
self-lint over the installed ``repro`` package, the system/bitstream DRC
over the example systems (32, 64, dual), and the cache-soundness scan
(CKEY rules over every registered scenario's call-graph closure plus the
rig builder).  Exit status is non-zero iff any
error-severity diagnostic was produced, so CI can gate on it directly.

``--deps NAME`` prints one scenario's dependency closure (repeatable;
``all`` = every scenario, ``rig`` = the static rig builder) and runs only
the cache-soundness scan.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import run_command
from .diagnostics import CheckReport, all_rules
from .drc_system import check_system
from .lint import lint_package, lint_paths, package_root

#: Example systems the DRC sweep covers.
_SYSTEMS = ("32", "64", "dual")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared flag set on ``parser``."""
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead of text"
    )
    parser.add_argument(
        "--lint-only", action="store_true", help="run only the codebase self-lint"
    )
    parser.add_argument(
        "--drc-only", action="store_true", help="run only the system/bitstream DRC"
    )
    parser.add_argument(
        "--deps",
        action="append",
        default=None,
        metavar="SCENARIO",
        help="print the dependency closure for SCENARIO and run only the "
        "cache-soundness scan ('all' = every registered "
        "scenario, 'rig' = the static rig builder; repeatable)",
    )
    parser.add_argument(
        "--system",
        default="all",
        choices=["all", *_SYSTEMS],
        help="which example system(s) the DRC sweep builds (default: all)",
    )
    parser.add_argument(
        "--path",
        action="append",
        default=None,
        metavar="FILE_OR_DIR",
        help="lint these paths instead of the installed repro package "
        "(repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print every registered rule and exit"
    )


def _build_example(which: str):
    from ..core import build_system32, build_system64, build_system64_dual

    if which == "32":
        return build_system32()
    if which == "64":
        return build_system64()
    system, _slot = build_system64_dual()
    return system


def _run_deps(args: argparse.Namespace) -> int:
    """The ``--deps`` mode: cache-soundness scan only, with closure output."""
    from . import depfp

    report = CheckReport()
    names = None if "all" in args.deps else list(args.deps)
    closures = depfp.check_dependencies(report=report, names=names)
    if args.json:
        payload = json.loads(report.to_json())
        payload["closures"] = [fp.as_dict() for fp in closures]
        print(json.dumps(payload, indent=2))
    else:
        print(depfp.closure_table(closures))
        print(report.format_text())
    return 1 if report.has_errors else 0


def run(args: argparse.Namespace) -> int:
    """Execute the checks described by parsed ``args``; returns exit status."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  [{rule.severity.value}]  {rule.title}")
            print(f"         {rule.rationale}")
        return 0

    if getattr(args, "deps", None):
        return _run_deps(args)

    report = CheckReport()
    ran: List[str] = []

    if not args.drc_only:
        if args.path:
            root = package_root().parent
            lint_paths([Path(p) for p in args.path], display_root=root, report=report)
            ran.append(f"lint({', '.join(args.path)})")
        else:
            lint_package(report=report)
            ran.append("self-lint(repro)")

    if not args.lint_only:
        systems = _SYSTEMS if args.system == "all" else (args.system,)
        for which in systems:
            check_system(_build_example(which), report=report)
            ran.append(f"drc(system{which})")

    if not args.lint_only and not args.drc_only and not args.path:
        # Cache-soundness pass: CKEY rules over every registered scenario's
        # dependency closure plus the rig builder.
        from . import depfp

        depfp.check_dependencies(report=report)
        ran.append("depfp(scenarios+rig)")

    if args.json:
        print(report.to_json())
    else:
        print(f"checks run: {', '.join(ran)}")
        print(report.format_text())
    return 1 if report.has_errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.checks",
        description="Static analysis for the repro library: system/bitstream "
        "DRC + simulator-discipline lint + cache-soundness scan.",
    )
    add_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    return run_command(parser.prog, run, parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
