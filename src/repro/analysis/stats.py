"""Shared statistical estimators: order-statistic percentiles and
Wilson score intervals.

Two consumers need the same math: the serve scheduler's latency report
(p50/p99/p99.9 by deterministic integer indexing) and the Monte-Carlo
fault campaigns (recovery-rate and vulnerability-factor estimates with
95% confidence intervals, plus recovery-time percentiles).  Keeping the
estimators here means a rate printed by ``repro serve`` and a rate in
``repro faults --json`` are computed by the same audited code.

Everything is deterministic: percentiles are exact order statistics
(no interpolation, so integer picosecond inputs yield integer outputs)
and the Wilson interval is a closed-form function of ``(successes,
trials, z)`` — byte-identical across runs, processes and platforms.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from ..errors import InvariantError

#: Latency/recovery-time quantiles every report carries.
QUANTILES = (0.5, 0.99, 0.999)

#: z-score of the two-sided 95% interval (the DAVOS-style default).
Z_95 = 1.959963984540054


def quantile_ps(sorted_values_ps: np.ndarray, q: float) -> int:
    """Deterministic integer quantile: the ``ceil(q*n)``-th order statistic.

    ``sorted_values_ps`` must already be sorted ascending; passing the
    raw array would silently return the wrong order statistic.
    """
    n = int(sorted_values_ps.size)
    if n == 0:
        raise InvariantError("quantile of an empty array")
    index = min(n - 1, max(0, math.ceil(q * n) - 1))
    return int(sorted_values_ps[index])


def percentiles_ps(values_ps: np.ndarray) -> Dict[str, int]:
    """The standard p50/p99/p999 trio over an (unsorted) sample.

    One sort, three order statistics — the shape both the serve report
    and the fault-campaign report serialise.
    """
    ordered = np.sort(np.asarray(values_ps))
    return {
        "p50_ps": quantile_ps(ordered, 0.5),
        "p99_ps": quantile_ps(ordered, 0.99),
        "p999_ps": quantile_ps(ordered, 0.999),
    }


def wilson_interval(successes: int, trials: int, z: float = Z_95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Unlike the normal (Wald) approximation, the Wilson interval stays
    inside [0, 1] and remains meaningful at the boundaries — a campaign
    whose every trial recovered reports a lower bound strictly below 1
    that tightens with the trial count, instead of a zero-width interval
    pretending at certainty.  Returns ``(lo, hi)``; ``trials == 0``
    yields the vacuous ``(0.0, 1.0)``.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise InvariantError(
            f"wilson_interval: invalid counts ({successes}/{trials})"
        )
    if trials == 0:
        return 0.0, 1.0
    n = float(trials)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2.0 * n)) / denom
    spread = (z / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return max(0.0, centre - spread), min(1.0, centre + spread)


def wilson_half_width(successes: int, trials: int, z: float = Z_95) -> float:
    """Half the Wilson interval's width — the early-stopping criterion."""
    lo, hi = wilson_interval(successes, trials, z)
    return (hi - lo) / 2.0
