"""Summary arithmetic of the benchmark: median, tail percentile and
failure accounting. Kept free of hetquant imports so it tests alone."""

from __future__ import annotations

import statistics

# Candidate tail percentiles, highest last. A percentile is reported only
# when at least this many samples lie beyond it.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` of ``count``
    samples beyond it, or None when even the median has too few."""
    best = None
    for p in TAIL_LADDER:
        # count * (100 - p) / 100 >= MIN_BEYOND, in integers of 0.1 percent.
        if count * (1000 - round(p * 10)) >= MIN_BEYOND * 1000:
            best = p
    return best


def nearest_rank(values, p: float) -> float:
    """The p-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    # rank = ceil(p / 100 * n), in integers of 0.1 percent.
    rank = max(1, -(-round(p * 10) * len(ordered) // 1000))
    return float(ordered[rank - 1])


def timing_summary(values) -> dict:
    """Median, tail percentile (when the sample count allows one) and count."""
    values = list(values)
    out = {"median": median(values), "count": len(values)}
    p = tail_percentile(len(values))
    if p is not None and p > 50.0:
        out[f"p{p:g}"] = nearest_rank(values, p)
    return out


class Tally:
    """Operations attempted and failed. An operation fails when it raises,
    exits non-zero, or gives an output that does not check out."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason or "failed")
        return ok

    @property
    def error_rate(self) -> float:
        if self.attempted == 0:
            raise ValueError("error rate of no operations")
        return self.failed / self.attempted
