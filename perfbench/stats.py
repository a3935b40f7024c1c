"""The benchmark's own arithmetic on latency samples."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: a percentile is reported only with at least this many samples above it
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` quantile, or None when too few samples back it.

    The value is the sample of rank ``ceil(q * n)``; it is reported only
    when at least :data:`MIN_BEYOND` samples rank above it, so p90 needs
    100 samples and p50 needs 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    ordered = sorted(samples)
    # the epsilon keeps a whole-number product from rounding up a rank
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def min_samples(q: float) -> int:
    """The fewest samples for which :func:`percentile` reports ``q``."""
    n = 1
    while percentile(range(n), q) is None:
        n += 1
    return n
