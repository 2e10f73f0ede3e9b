"""Regenerate the golden output digests in ``perfbench/goldens``.

    python3 perfbench/make_goldens.py

For every committed input set (``run.SEEDS``) and size (``full``, and
``tiny`` on the paper's seeds for the benchmark's own tests), runs the
sweep scenario set and the stream_apps scenario set once on the program's
per-beat reference path (``REPRO_NO_FAST_PATH=1``) and once on the fast path, and writes the
digests only if both agree on every scenario.  Takes several minutes.
"""

from __future__ import annotations

import json
import sys
from typing import Dict

from run import GOLDENS, SEEDS, Session

#: A workload that produces each golden set.
SETS = {"sweep": "reproduce_cold", "stream": "stream_apps"}


def digests(workload: str, seed: int, size: str, reference: bool) -> Dict[str, str]:
    session = Session(workload, seed, size, expected=None, budget_s=3600.0)
    try:
        report = session.rep(trace=False, reference=reference)
    finally:
        session.close()
    failed = [o["name"] for o in report["outcomes"] if o["status"] != "ok"]
    if failed:
        raise SystemExit(f"{workload}: scenarios failed: {failed}")
    return {o["name"]: o["digest"] for o in report["outcomes"]}


def main() -> int:
    GOLDENS.mkdir(exist_ok=True)
    for seed, (label, _) in enumerate(SEEDS):
        table: Dict[str, Dict[str, Dict[str, str]]] = {}
        # The tests' tiny (smoke) inputs run on the paper's seeds only: with
        # the held-out seed base, serve_fragmentation's smoke trace (6000
        # requests) never fragments enough to trigger its compaction check.
        for size in ("full", "tiny") if seed == 0 else ("full",):
            table[size] = {}
            for name, workload in SETS.items():
                reference = digests(workload, seed, size, reference=True)
                fast = digests(workload, seed, size, reference=False)
                differ = sorted(k for k in set(reference) | set(fast)
                                if reference.get(k) != fast.get(k))
                if differ:
                    raise SystemExit(f"{label}/{size}/{name}: fast path differs on {differ}")
                table[size][name] = dict(sorted(reference.items()))
                print(f"{label}/{size}/{name}: {len(reference)} scenarios agree", flush=True)
        path = GOLDENS / f"{label}.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
