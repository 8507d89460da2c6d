"""Heteroskedasticity scores composed from the variance-histogram pipeline.

A series is scored by estimating local variances with a sliding window,
histogramming them (by default on a noise-aware ln-variance scale; see
``estimate_pdf``), and measuring how close that histogram is to a uniform
reference over the same support. Scores live in [0, 1]; higher means the
local variance is spread more evenly, i.e. the series is more
heteroskedastic. A perfectly uniform variance histogram scores 1; a
single-bin histogram scores 1/sqrt(B) under the Bhattacharyya variant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distribution import BINNINGS, ProbabilityDistribution, estimate_pdf
from .divergence import _coefficient, affinity_from_coefficient, distance_from_coefficient
from .errors import ConfigurationError, ParameterError
from .local_variance import LocalVarianceSeries, local_variance
from .series import TimeSeries, integer

__all__ = [
    "MeasureConfig",
    "MeasureReport",
    "measure",
    "measure_from_distribution",
    "METRIC_ORDER",
]

# The scores score_distribution returns, in order.
METRIC_ORDER = ("H_B", "H_H", "bhattacharyya_distance")

# Score variants, named for the first two METRIC_ORDER scores in order.
VARIANTS = ("bhattacharyya", "hellinger")

# Below this many variance estimates per bin budget, the histogram is too
# sparse for a stable score and the report flags it.
_SPARSE_FACTOR = 10


@dataclass(frozen=True)
class MeasureConfig:
    """Analysis parameters: window w, bin count B, score variant, and the
    histogram's binning (``"log"``, the default, or the paper's
    ``"linear"``)."""

    window: int = 128
    bins: int = 64
    variant: str = "bhattacharyya"
    binning: str = "log"

    def __post_init__(self) -> None:
        for name in ("window", "bins"):
            object.__setattr__(self, name, integer(getattr(self, name), name, 2))
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"variant must be one of {VARIANTS}")
        if self.binning not in BINNINGS:
            raise ConfigurationError(f"binning must be one of {BINNINGS}")


@dataclass(frozen=True)
class MeasureReport:
    """Score plus the distribution and bookkeeping behind it; ``scores`` holds
    all three ``score_distribution`` values, ``score`` the variant's one."""

    score: float
    scores: tuple[float, float, float]
    variant: str
    config: MeasureConfig
    n_variances: int
    distribution: ProbabilityDistribution
    sparse_histogram: bool


def score_distribution(p: ProbabilityDistribution) -> tuple[float, float, float]:
    """H_B, H_H and the Bhattacharyya distance of ``p`` against its uniform
    reference, all from one Bhattacharyya coefficient. The reference's
    masses are all 1 / B, so they are not built."""
    coefficient = _coefficient(p.masses, 1.0 / p.bins)
    return (
        coefficient,
        affinity_from_coefficient(coefficient),
        distance_from_coefficient(coefficient),
    )


def measure_from_distribution(
    p: ProbabilityDistribution, variant: str = "bhattacharyya"
) -> float:
    """Score a readymade variance distribution against its uniform reference."""
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}")
    return score_distribution(p)[VARIANTS.index(variant)]


def measure(series: TimeSeries, config: MeasureConfig = MeasureConfig()) -> MeasureReport:
    """Run the full pipeline on ``series`` and report the score.

    Requires at least window + 1 samples so the histogram sees two or more
    variance estimates.
    """
    n = len(series)
    if n < config.window + 1:
        raise ParameterError(f"series length ({n}) must be at least window + 1 ({config.window + 1})")
    return _report(local_variance(series, config.window), config)


def _report(variances: LocalVarianceSeries, config: MeasureConfig) -> MeasureReport:
    """Histogram ``variances`` and score them under ``config``."""
    dist = estimate_pdf(variances, config.bins, config.binning)
    scores = score_distribution(dist)
    n_variances = len(variances)
    return MeasureReport(
        score=scores[VARIANTS.index(config.variant)],
        scores=scores,
        variant=config.variant,
        config=config,
        n_variances=n_variances,
        distribution=dist,
        sparse_histogram=n_variances < _SPARSE_FACTOR * config.bins,
    )
