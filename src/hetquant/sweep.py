"""Grid sweeps of the heteroskedasticity score over k, window, and seed.

Each grid is a set, stored as a sorted tuple of distinct ints. Each
(k, seed) cell generates one series, whose random stream depends only on
(seed, k), and scores it at all its windows, which share the variance
kernel's passes. Each window's ``scores`` give its H_B, H_H and
Bhattacharyya distance rows, as ``measure`` (or ``analyze``) scores the
same series at that window. The rows are then sorted by (k, window, seed,
metric) and aggregated per (window, metric), so reports are
byte-identical at any number of workers and whatever the order or
repeats of a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from typing import NamedTuple

import numpy as np

from .distribution import estimate_pdf  # not called here; kept for perfbench/spans.py, which hooks this name
from .errors import ConfigurationError, CorrelationUndefinedError, ParameterError
from .local_variance import _local_variances
from .local_variance import local_variance  # not called here; kept for perfbench/spans.py, which hooks this name
from .measure import METRIC_ORDER, MeasureConfig, _report
from .series import SegmentedGeneratorConfig, config_from, csv_bytes, generate_segmented, integer, ordered_map

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SummaryRow",
    "SweepReport",
    "run_sweep",
    "spearman",
]


def spearman(xs, ys) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise CorrelationUndefinedError(
            f"inputs must be equal-length vectors, got {xs.shape} and {ys.shape}"
        )
    if xs.size < 2:
        raise CorrelationUndefinedError("need at least two observations")
    rho = _rank_correlation(_average_ranks(xs), _average_ranks(ys))
    if rho is None:
        raise CorrelationUndefinedError("zero rank variance makes correlation undefined")
    return rho


def _average_ranks(values) -> np.ndarray:
    """1-based ranks along the last axis, ties sharing their mean rank, as
    ``scipy.stats.rankdata``; a row holding NaN ranks as all NaN."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, axis=-1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=-1)
    run_starts = np.ones(values.shape, dtype=bool)
    run_starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    starts = np.flatnonzero(run_starts)
    counts = np.diff(starts, append=values.size)
    run_ranks = starts % values.shape[-1] + 1 + (counts - 1) / 2
    ranks = np.empty_like(values)
    np.put_along_axis(
        ranks, order, np.repeat(run_ranks, counts).reshape(values.shape), axis=-1
    )
    ranks[np.isnan(values).any(axis=-1)] = np.nan
    return ranks


def _rank_correlation(rx: np.ndarray, ry: np.ndarray) -> float | None:
    """Pearson correlation of two rank vectors; None if either is constant."""
    if np.ptp(rx) == 0 or np.ptp(ry) == 0:
        return None
    return float(np.corrcoef(rx, ry)[0, 1])


@dataclass(frozen=True)
class SweepConfig:
    """Sweep grids, each stored as a sorted tuple of distinct ints, plus the settings
    of all cells, named as the fields of ``SegmentedGeneratorConfig`` and ``MeasureConfig``."""

    sigma_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
    windows: tuple[int, ...] = (32, 64, 128, 256)
    bins: int = MeasureConfig.bins
    total_samples: int = 65536
    seeds: tuple[int, ...] = tuple(range(1, 21))
    sigma_min: float = SegmentedGeneratorConfig.sigma_min
    sigma_max: float = SegmentedGeneratorConfig.sigma_max
    spacing: str = SegmentedGeneratorConfig.spacing
    shuffle_segments: bool = SegmentedGeneratorConfig.shuffle_segments
    binning: str = MeasureConfig.binning

    def __post_init__(self) -> None:
        # Only sigma_counts is bounded here; the configs built below bound
        # the windows, bins, seeds and total_samples.
        for name, minimum in (("sigma_counts", 1), ("windows", None), ("seeds", None)):
            values = sorted({integer(v, name, minimum) for v in getattr(self, name)})
            object.__setattr__(self, name, tuple(values))
        for name in ("bins", "total_samples"):
            object.__setattr__(self, name, integer(getattr(self, name), name, None))
        if not self.sigma_counts or not self.windows or not self.seeds:
            raise ConfigurationError("sigma_counts, windows, and seeds must be nonempty")
        # Delegate histogram-parameter validation (window, bins, binning).
        for window in self.windows:
            self._measure_config(window)
        if max(self.windows) + 1 > self.total_samples:
            raise ConfigurationError(
                "largest window leaves fewer than two variance estimates"
            )
        # Delegate generator-parameter validation (sigma range, spacing,
        # seeds, and k against total_samples).
        for seed in self.seeds:
            self._generator_config(max(self.sigma_counts), seed)

    def _generator_config(self, k: int, seed: int) -> SegmentedGeneratorConfig:
        """Generator settings of the (k, seed) cell."""
        return config_from(SegmentedGeneratorConfig, self, num_sigmas=k, seed=seed)

    def _measure_config(self, window: int) -> MeasureConfig:
        """Histogram settings with which every cell scores its series at ``window``."""
        return MeasureConfig(window=window, bins=self.bins, binning=self.binning)


class SweepRow(NamedTuple):
    k: int
    window: int
    seed: int
    metric: str
    score: float


class SummaryRow(NamedTuple):
    window: int
    metric: str
    spearman: float
    mean_scores: tuple[float, ...]


def _cell_rows(config: SweepConfig, cell: tuple[int, int]) -> list[SweepRow]:
    """Score the series of one (seed, k) cell under every window of the sweep,
    as ``measure`` scores it, from the kernel's shared passes."""
    seed, k = cell
    series = generate_segmented(config._generator_config(k, seed))
    # SweepConfig has proved max(windows) + 1 <= total_samples. map, unlike a
    # for loop, keeps no window's variances while the next pass runs.
    reports = map(
        lambda variances: _report(variances, config._measure_config(variances.window)),
        _local_variances(series, config.windows),
    )
    return [
        SweepRow(k, report.config.window, seed, metric, score)
        for report in reports
        for metric, score in zip(METRIC_ORDER, report.scores)
    ]


def run_sweep(config: SweepConfig, workers: int = 1) -> "SweepReport":
    """Execute every (k, window, seed) cell and assemble a canonical report.

    ``workers`` > 1 distributes cells over a process pool of at most one
    worker per (k, seed) cell; the result is byte-identical to the
    sequential run.
    """
    workers = integer(workers, "workers", 1, ParameterError)
    cells = [(seed, k) for seed in config.seeds for k in config.sigma_counts]
    per_cell = ordered_map(partial(_cell_rows, config), cells, workers)
    rows = sorted(chain.from_iterable(per_cell))
    return SweepReport(rows=tuple(rows), config=config)


@dataclass(frozen=True)
class SweepReport:
    """All sweep rows plus per-(window, metric) aggregates."""

    rows: tuple[SweepRow, ...]
    config: SweepConfig

    @cached_property
    def _scores_by_cell(self) -> dict[tuple[int, str, int], dict[int, float]]:
        """(window, metric, seed) -> {k: score}; a later duplicate row wins."""
        index: dict[tuple[int, str, int], dict[int, float]] = {}
        for row in self.rows:
            index.setdefault((row.window, row.metric, row.seed), {})[row.k] = row.score
        return index

    def scores(self, window: int, metric: str, seed: int) -> list[float]:
        """Scores for one seed and window, ordered by ascending k; a k
        with no row in the report raises ``ParameterError``."""
        picked = self._scores_by_cell.get((window, metric, seed), {})
        missing = set(self.config.sigma_counts) - picked.keys()
        if missing:
            raise ParameterError(
                f"report has no {metric} score for k={min(missing)}, window={window}, seed={seed}"
            )
        return [picked[k] for k in self.config.sigma_counts]

    def summary_rows(self) -> list[SummaryRow]:
        """Aggregate each (window, metric): mean per-seed Spearman against
        log2(k) (NaN for a seed whose ranks are constant), plus the
        across-seed mean score per k."""
        log_k_ranks = _average_ranks(np.log2(self.config.sigma_counts))
        out: list[SummaryRow] = []
        for window in self.config.windows:
            for metric in METRIC_ORDER:
                per_seed = np.array(
                    [self.scores(window, metric, seed) for seed in self.config.seeds]
                )
                rhos = []
                for score_ranks in _average_ranks(per_seed):
                    rho = _rank_correlation(log_k_ranks, score_ranks)
                    rhos.append(math.nan if rho is None else rho)
                out.append(
                    SummaryRow(
                        window=window,
                        metric=metric,
                        spearman=float(np.mean(rhos)),
                        mean_scores=tuple(float(m) for m in per_seed.mean(axis=0)),
                    )
                )
        return out

    def report_csv_bytes(self) -> bytes:
        return csv_bytes("k,window,seed,metric,score", *zip(*self.rows))

    def summary_csv_bytes(self) -> bytes:
        header = "window,metric,spearman" + "".join(
            f",mean_score_k{k}" for k in self.config.sigma_counts
        )
        rows = [(r.window, r.metric, r.spearman, *r.mean_scores) for r in self.summary_rows()]
        return csv_bytes(header, *zip(*rows))
