"""Grid sweeps of the heteroskedasticity score over k, window, and seed.

Every (k, window, seed) cell generates a fresh segmented series, runs the
variance-histogram pipeline once, binned as ``measure`` bins it, and
records three scores derived from the single Bhattacharyya evaluation: H_B (the coefficient itself), H_H (its
Hellinger-variant transform), and the Bhattacharyya distance. A cell's
random stream depends only on (seed, k), never on the window, so every
window analyzes the same series. Rows are ordered canonically by
(k, window, seed, metric), which makes reports byte-identical at any
parallelism level.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .distribution import estimate_pdf
from .errors import ConfigurationError, CorrelationUndefinedError, ParameterError
from .local_variance import local_variance
from .measure import METRIC_ORDER, MeasureConfig, score_distribution
from .series import SegmentedGeneratorConfig, format_float, generate_segmented

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SummaryRow",
    "SweepReport",
    "run_sweep",
    "spearman",
    "METRIC_ORDER",
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
    """Sweep grid plus the generator and histogram settings shared by all
    cells; ``binning`` is as in ``MeasureConfig``."""

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
        object.__setattr__(self, "sigma_counts", tuple(int(k) for k in self.sigma_counts))
        object.__setattr__(self, "windows", tuple(int(w) for w in self.windows))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.sigma_counts or not self.windows or not self.seeds:
            raise ConfigurationError("sigma_counts, windows, and seeds must be nonempty")
        if min(self.sigma_counts) < 1:
            raise ConfigurationError("sigma counts must be positive")
        if max(self.sigma_counts) > self.total_samples:
            raise ConfigurationError("largest sigma count exceeds total_samples")
        # Delegate histogram-parameter validation (window, bins, binning).
        for window in self.windows:
            MeasureConfig(window=window, bins=self.bins, binning=self.binning)
        if max(self.windows) + 1 > self.total_samples:
            raise ConfigurationError(
                "largest window leaves fewer than two variance estimates"
            )
        # Delegate generator-parameter validation (sigma range, spacing, seeds).
        for seed in self.seeds:
            self._generator_config(max(self.sigma_counts), seed)

    def _generator_config(self, k: int, seed: int) -> SegmentedGeneratorConfig:
        """Generator settings of the (k, seed) cell."""
        return SegmentedGeneratorConfig(
            total_samples=self.total_samples,
            num_sigmas=k,
            sigma_min=self.sigma_min,
            sigma_max=self.sigma_max,
            spacing=self.spacing,
            shuffle_segments=self.shuffle_segments,
            seed=seed,
        )


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


def _cell_rows(config: SweepConfig, seed: int, k: int) -> list[SweepRow]:
    """Score one generated series under every window of the sweep."""
    series = generate_segmented(config._generator_config(k, seed))
    rows = []
    for window in config.windows:
        dist = estimate_pdf(local_variance(series, window), config.bins, config.binning)
        for metric, score in zip(METRIC_ORDER, score_distribution(dist)):
            rows.append(SweepRow(k, window, seed, metric, score))
    return rows


def run_sweep(config: SweepConfig, workers: int = 1) -> "SweepReport":
    """Execute every (k, window, seed) cell and assemble a canonical report.

    ``workers`` > 1 distributes cells over a process pool; the result is
    byte-identical to the sequential run because each cell derives its own
    random stream and rows are sorted afterwards.
    """
    if workers < 1:
        raise ParameterError("workers must be at least 1")
    tasks = [(seed, k) for seed in config.seeds for k in config.sigma_counts]
    rows: list[SweepRow] = []
    if workers == 1:
        for seed, k in tasks:
            rows.extend(_cell_rows(config, seed, k))
    else:
        seeds = [t[0] for t in tasks]
        ks = [t[1] for t in tasks]
        chunksize = max(1, len(tasks) // (workers * 4))
        # Imported here so that only pooled runs pay for loading multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for cell in pool.map(partial(_cell_rows, config), seeds, ks, chunksize=chunksize):
                rows.extend(cell)
    rows.sort(key=lambda r: (r.k, r.window, r.seed, r.metric))
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
        """Scores for one seed and window, ordered by ascending k."""
        picked = self._scores_by_cell.get((window, metric, seed), {})
        return [picked[k] for k in sorted(self.config.sigma_counts)]

    def summary_rows(self) -> list[SummaryRow]:
        """Aggregate each (window, metric): mean per-seed Spearman against
        log2(k) (NaN for a seed whose ranks are constant), plus the
        across-seed mean score per k."""
        log_k_ranks = _average_ranks(np.log2(sorted(self.config.sigma_counts)))
        out: list[SummaryRow] = []
        for window in sorted(self.config.windows):
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
        out = io.StringIO()
        out.write("k,window,seed,metric,score\n")
        for row in self.rows:
            out.write(
                f"{row.k},{row.window},{row.seed},{row.metric},{format_float(row.score)}\n"
            )
        return out.getvalue().encode("utf-8")

    def summary_csv_bytes(self) -> bytes:
        ks = sorted(self.config.sigma_counts)
        out = io.StringIO()
        out.write("window,metric,spearman")
        for k in ks:
            out.write(f",mean_score_k{k}")
        out.write("\n")
        for row in self.summary_rows():
            out.write(f"{row.window},{row.metric},{format_float(row.spearman)}")
            for mean in row.mean_scores:
                out.write(f",{format_float(mean)}")
            out.write("\n")
        return out.getvalue().encode("utf-8")
