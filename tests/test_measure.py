"""The composed score: closed-form extremes, transform consistency, pipeline."""

import itertools
import math

import numpy as np
import pytest

from hetquant import (
    METRIC_ORDER,
    ConfigurationError,
    MeasureConfig,
    ParameterError,
    ProbabilityDistribution,
    SegmentedGeneratorConfig,
    TimeSeries,
    bhattacharyya_coefficient,
    bhattacharyya_distance,
    estimate_pdf,
    generate_segmented,
    hellinger_affinity,
    local_variance,
    measure,
    measure_from_distribution,
    uniform_reference,
)


def uniform_dist(bins: int) -> ProbabilityDistribution:
    edges = np.linspace(0.0, 1.0, bins + 1)
    return ProbabilityDistribution(edges, np.full(bins, 1.0 / bins))


def one_hot_dist(bins: int, hot: int = 0) -> ProbabilityDistribution:
    masses = np.zeros(bins)
    masses[hot] = 1.0
    return ProbabilityDistribution(np.linspace(0.0, 1.0, bins + 1), masses)


def random_dist(rng: np.random.Generator, bins: int) -> ProbabilityDistribution:
    raw = rng.random(bins)
    return ProbabilityDistribution(np.linspace(0.0, 1.0, bins + 1), raw / raw.sum())


class TestClosedForms:
    def test_uniform_distribution_scores_one(self):
        for bins in (2, 16, 64):
            score = measure_from_distribution(uniform_dist(bins))
            assert score == pytest.approx(1.0, abs=1e-12)
            assert measure_from_distribution(uniform_dist(bins), "hellinger") == (
                pytest.approx(1.0, abs=1e-12)
            )

    def test_one_hot_distribution_scores_inverse_root(self):
        score = measure_from_distribution(one_hot_dist(64))
        assert score == pytest.approx(0.125, abs=1e-12)
        for bins in (4, 9, 25):
            assert measure_from_distribution(one_hot_dist(bins, hot=bins // 2)) == (
                pytest.approx(bins**-0.5, abs=1e-12)
            )

    def test_variant_validation(self):
        with pytest.raises(ParameterError):
            measure_from_distribution(uniform_dist(4), "euclidean")


class TestTransformConsistency:
    def test_hellinger_is_the_stated_transform(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p = random_dist(rng, int(rng.integers(2, 65)))
            h_b = measure_from_distribution(p, "bhattacharyya")
            h_h = measure_from_distribution(p, "hellinger")
            assert h_h == pytest.approx(1.0 - math.sqrt(1.0 - h_b), abs=1e-12)

    def test_both_variants_rank_series_identically(self):
        series_batch = [
            generate_segmented(
                SegmentedGeneratorConfig(total_samples=2048, num_sigmas=k, seed=s)
            )
            for k, s in [(1, 1), (4, 2), (16, 3), (64, 4), (8, 5), (2, 6)]
        ]
        config_b = MeasureConfig(window=32, variant="bhattacharyya")
        config_h = MeasureConfig(window=32, variant="hellinger")
        scores_b = [measure(s, config_b).score for s in series_batch]
        scores_h = [measure(s, config_h).score for s in series_batch]
        assert np.argsort(scores_b).tolist() == np.argsort(scores_h).tolist()


class TestPipeline:
    def test_report_bookkeeping(self):
        series = generate_segmented(
            SegmentedGeneratorConfig(total_samples=1000, num_sigmas=4, seed=1)
        )
        config = MeasureConfig(window=64, bins=16)
        report = measure(series, config)
        assert report.n_variances == 1000 - 64 + 1
        assert report.config == config
        assert report.variant == "bhattacharyya"
        assert report.distribution.bins == 16
        assert 0.0 <= report.score <= 1.0

    @pytest.mark.parametrize("binning", ["log", "linear"])
    def test_scores_are_the_three_metrics_of_the_distribution(self, binning):
        # The scores take the reference's masses as the one value 1 / B, not
        # as a built uniform_reference; the bits must be the same.
        assert METRIC_ORDER == ("H_B", "H_H", "bhattacharyya_distance")
        grid = itertools.product((1, 2), (1, 4, 7, 64), (8, 32, 128), (2, 7, 16, 64, 300))
        for seed, k, window, bins in grid:
            series = generate_segmented(
                SegmentedGeneratorConfig(total_samples=1000, num_sigmas=k, seed=seed)
            )
            report = measure(series, MeasureConfig(window=window, bins=bins, binning=binning))
            p = report.distribution
            q = uniform_reference(p)
            expected = (
                bhattacharyya_coefficient(p, q),
                hellinger_affinity(p, q),
                bhattacharyya_distance(p, q),
            )
            assert np.array(report.scores).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("variant, index", [("bhattacharyya", 0), ("hellinger", 1)])
    def test_score_is_the_variants_entry_of_scores(self, variant, index):
        series = generate_segmented(
            SegmentedGeneratorConfig(total_samples=1000, num_sigmas=4, seed=3)
        )
        report = measure(series, MeasureConfig(window=32, bins=16, variant=variant))
        assert report.score == report.scores[index]
        assert report.score == measure_from_distribution(report.distribution, variant)

    def test_sparse_histogram_flag_threshold(self):
        config = MeasureConfig(window=2, bins=64)
        rng = np.random.default_rng(3)
        dense = measure(TimeSeries(rng.normal(0, 1, 641)), config)
        assert dense.n_variances == 640
        assert not dense.sparse_histogram
        sparse = measure(TimeSeries(rng.normal(0, 1, 640)), config)
        assert sparse.n_variances == 639
        assert sparse.sparse_histogram

    def test_series_shorter_than_window_plus_one_is_rejected(self):
        rng = np.random.default_rng(5)
        config = MeasureConfig(window=128)
        with pytest.raises(ParameterError):
            measure(TimeSeries(rng.normal(0, 1, 128)), config)
        report = measure(TimeSeries(rng.normal(0, 1, 129)), config)
        assert report.n_variances == 2

    def test_constant_series_scores_the_minimum(self):
        report = measure(TimeSeries(np.full(500, 7.0)), MeasureConfig(window=8, bins=64))
        assert report.score == pytest.approx(0.125, abs=1e-12)

    def test_determinism(self):
        series = generate_segmented(
            SegmentedGeneratorConfig(total_samples=2000, num_sigmas=8, seed=11)
        )
        config = MeasureConfig(window=32)
        assert measure(series, config).score == measure(series, config).score

    def test_offset_invariance(self):
        config = MeasureConfig(window=32, bins=32)
        for seed in range(3):
            samples = np.random.default_rng(seed).normal(0, 2, 3000)
            base = measure(TimeSeries(samples), config).score
            shifted = measure(TimeSeries(samples + 1e6), config).score
            assert abs(shifted - base) <= 1e-9

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MeasureConfig(window=1)
        with pytest.raises(ConfigurationError):
            MeasureConfig(bins=1)
        with pytest.raises(ConfigurationError):
            MeasureConfig(variant="manhattan")


class TestBinning:
    def test_log_is_the_default(self):
        assert MeasureConfig().binning == "log"
        with pytest.raises(ConfigurationError):
            MeasureConfig(binning="sqrt")

    def test_linear_binning_is_the_plain_pipeline(self):
        for k, seed in [(1, 1), (4, 2), (32, 3)]:
            series = generate_segmented(
                SegmentedGeneratorConfig(total_samples=4096, num_sigmas=k, seed=seed)
            )
            report = measure(series, MeasureConfig(window=32, bins=16, binning="linear"))
            plain = estimate_pdf(local_variance(series, 32), 16)
            assert report.score == measure_from_distribution(plain)
            assert np.array_equal(report.distribution.edges, plain.edges)


class TestVarianceCountOrdering:
    def test_many_regimes_outscore_one_regime(self):
        """Across 20 seeds, a 64-regime series scores above a 1-regime series
        (65536 samples, window 128, 64 bins)."""
        config = MeasureConfig(window=128, bins=64)
        wins = 0
        for seed in range(1, 21):
            one = generate_segmented(
                SegmentedGeneratorConfig(total_samples=65536, num_sigmas=1, seed=seed)
            )
            many = generate_segmented(
                SegmentedGeneratorConfig(total_samples=65536, num_sigmas=64, seed=seed)
            )
            if measure(many, config).score > measure(one, config).score:
                wins += 1
        assert wins == 20, f"only {wins}/20 seeds ranked k=64 above k=1"
