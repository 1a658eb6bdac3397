"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between order statistics."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(
    values: Sequence[float], beyond: int = TAIL_SAMPLES_BEYOND
) -> Dict[str, float]:
    """The highest percentile that still has ``beyond`` samples above it.

    That is the ``beyond + 1``-th largest sample, reported with the
    percentile it sits at (the share of samples at or below it) and the
    sample count.  With ``beyond`` samples or fewer no percentile
    qualifies, so the maximum is reported at percentile 100.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n}
    return {
        "value": ordered[n - beyond - 1],
        "percentile": 100.0 * (n - beyond) / n,
        "samples": n,
    }

