"""Summary statistics and metric derivations shared by the benchmark files."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

# percentiles reported above the median, highest first; one is reported only
# when at least MIN_TAIL samples lie beyond it
HIGH_PERCENTILES = (99.0, 90.0)
MIN_TAIL = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values: Sequence[float]) -> dict:
    """Median, sample count and the highest percentile with a full tail.

    `high` is (p, value) for the highest p in HIGH_PERCENTILES that has at
    least MIN_TAIL samples beyond it, or None when no p qualifies.
    """
    if not values:
        raise ValueError("summary of no samples")
    high = None
    for p in HIGH_PERCENTILES:
        if len(values) * (100.0 - p) >= MIN_TAIL * 100.0:
            high = (p, percentile(values, p))
            break
    return {"median": statistics.median(values), "n": len(values),
            "high": high}


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: dict, children: Sequence[dict]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    clipped = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
               for c in children]
    covered = union_length([(s, e) for s, e in clipped if e > s])
    return (span["end"] - span["start"]) - covered


def time_to_target(setup_s: float, log_rows: Sequence[dict],
                   target: float) -> Optional[tuple[int, float]]:
    """(iterations, seconds) to the first iterate at or below target.

    The seconds are the set-up time plus the solver's cumulative time at that
    iterate; None when the target is never reached.
    """
    for row in log_rows:
        if row["rel_err_l2"] <= target:
            return row["iter"], setup_s + row["seconds"]
    return None


def failed_share(failed: int, attempted: int) -> float:
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"bad counts: {failed} failed of {attempted}")
    return failed / attempted
