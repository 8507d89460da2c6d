"""Sweep harness: cardinality, determinism, aggregates, rank correlation."""

import concurrent.futures
import hashlib
import importlib
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata, spearmanr

from hetquant import (
    METRIC_ORDER,
    ConfigurationError,
    CorrelationUndefinedError,
    MeasureConfig,
    ParameterError,
    SegmentedGeneratorConfig,
    SweepConfig,
    SweepReport,
    format_float,
    generate_segmented,
    measure,
    run_sweep,
    spearman,
)
from hetquant import series as series_module
from hetquant.sweep import _average_ranks, _cell_rows

# The committed output of tools/behaviour.py.
MANIFEST = Path(__file__).resolve().parents[1] / "BEHAVIOUR.json"

SMALL = SweepConfig(
    sigma_counts=(1, 4, 16),
    windows=(16, 32),
    bins=16,
    total_samples=2048,
    seeds=(1, 2, 3),
)


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_inverse(self):
        assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        assert spearman([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            xs = rng.integers(0, 10, n).astype(float)
            ys = rng.integers(0, 10, n).astype(float)
            if np.ptp(xs) == 0 or np.ptp(ys) == 0:
                continue
            expected = spearmanr(xs, ys).statistic
            assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(CorrelationUndefinedError):
            spearman([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(CorrelationUndefinedError):
            spearman([1], [2])

    def test_zero_rank_variance(self):
        with pytest.raises(CorrelationUndefinedError):
            spearman([1, 2, 3], [5, 5, 5])

    def test_nan_propagates(self):
        assert math.isnan(spearman([1, 2, 3], [1, math.nan, 3]))
        ranks = _average_ranks([[3.0, math.nan, 1.0], [3.0, 2.0, 2.0]])
        assert np.isnan(ranks[0]).all()
        assert ranks[1].tolist() == [3.0, 1.5, 1.5]


# Few distinct values, so ties are common; NaN is pinned by test_nan_propagates.
_RANKED_VALUES = st.sampled_from([-math.inf, -1.0, 0.0, 0.5, 2.0, math.inf])


class TestAverageRanks:
    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.one_of(
                st.tuples(st.integers(1, 12)),
                st.tuples(st.integers(1, 5), st.integers(1, 12)),
            ),
            elements=_RANKED_VALUES,
        )
    )
    def test_matches_scipy_rankdata(self, values):
        """Vectors (one element included) and matrices ranked along axis 1."""
        expected = rankdata(values, axis=-1)
        np.testing.assert_array_equal(_average_ranks(values), expected)


class TestSweepRows:
    def test_single_cell_yields_three_rows(self):
        config = SweepConfig(
            sigma_counts=(4,), windows=(16,), bins=8, total_samples=512, seeds=(1,)
        )
        report = run_sweep(config)
        assert len(report.rows) == 3
        assert sorted(row.metric for row in report.rows) == [
            "H_B",
            "H_H",
            "bhattacharyya_distance",
        ]

    def test_row_completeness(self):
        report = run_sweep(SMALL)
        assert len(report.rows) == 3 * 2 * 3 * 3
        combos = {(r.k, r.window, r.seed, r.metric) for r in report.rows}
        assert len(combos) == len(report.rows)

    def test_rows_are_canonically_ordered(self):
        report = run_sweep(SMALL)
        keys = [(r.k, r.window, r.seed, r.metric) for r in report.rows]
        assert keys == sorted(keys)

    def test_internal_consistency_per_cell(self):
        report = run_sweep(SMALL)
        cells = {}
        for row in report.rows:
            cells.setdefault((row.k, row.window, row.seed), {})[row.metric] = row.score
        for key, scores in cells.items():
            h_b, h_h = scores["H_B"], scores["H_H"]
            distance = scores["bhattacharyya_distance"]
            assert h_h == pytest.approx(1.0 - math.sqrt(1.0 - h_b), abs=1e-12), key
            assert distance == pytest.approx(-math.log(h_b), abs=1e-12), key

    @pytest.mark.parametrize(
        "binning, generator, windows",
        [
            pytest.param("log", {}, (16, 32), id="log"),
            pytest.param("linear", {}, (16, 32), id="linear"),
            pytest.param(
                "log",
                {"sigma_min": 0.5, "sigma_max": 3.0, "spacing": "logarithmic", "shuffle_segments": True},
                (16, 32),
                id="log-generator-fields",
            ),
            # Windows whose set bits differ share one pass of the kernel.
            pytest.param("log", {}, (3, 5, 100, 128), id="log-odd-windows"),
        ],
    )
    def test_cells_equal_measure(self, binning, generator, windows):
        config = SweepConfig(
            sigma_counts=(1, 4, 16),
            windows=windows,
            bins=16,
            total_samples=2048,
            seeds=(1, 2),
            binning=binning,
            **generator,
        )
        report = run_sweep(config)
        assert {row.metric for row in report.rows} == set(METRIC_ORDER)
        for row in report.rows:
            series = generate_segmented(
                SegmentedGeneratorConfig(
                    total_samples=2048, num_sigmas=row.k, seed=row.seed, **generator
                )
            )
            measure_config = MeasureConfig(window=row.window, bins=16, binning=binning)
            expected = measure(series, measure_config).scores[METRIC_ORDER.index(row.metric)]
            assert row.score == expected, row
            if row.metric != "bhattacharyya_distance":
                variant = "bhattacharyya" if row.metric == "H_B" else "hellinger"
                scored = measure(series, replace(measure_config, variant=variant)).score
                assert row.score == scored, row

    def test_distance_ranks_mirror_the_coefficient(self):
        report = run_sweep(SMALL)
        for window in SMALL.windows:
            for seed in SMALL.seeds:
                h_b = report.scores(window, "H_B", seed)
                distance = report.scores(window, "bhattacharyya_distance", seed)
                assert np.argsort(h_b).tolist() == np.argsort(distance)[::-1].tolist()


class TestDefaultGrid:
    """The default grid, whose scores are the paper's result: its bytes, and
    the kernel's work and memory in one of its cells."""

    @pytest.mark.parametrize("binning", ["log", "linear"])
    def test_report_and_summary_have_the_manifest_digests(self, binning):
        [files] = [
            entry["files"]
            for entry in json.loads(MANIFEST.read_text())["invocations"]
            if entry["argv"][:3] == ["sweep", "--binning", binning]
        ]
        report = run_sweep(SweepConfig(binning=binning))
        assert {
            f"sweep-{binning}.csv": hashlib.sha256(report.report_csv_bytes()).hexdigest(),
            f"summary-{binning}.csv": hashlib.sha256(report.summary_csv_bytes()).hexdigest(),
        } == files

    def test_a_cell_is_one_kernel_pass(self, monkeypatch):
        # The package's local_variance function hides the module of that name.
        module = importlib.import_module("hetquant.local_variance")
        passes = []

        def spy(samples, windows):
            passes.append(list(windows))
            return one_pass(samples, windows)

        one_pass = module._one_pass
        monkeypatch.setattr(module, "_one_pass", spy)
        _cell_rows(SweepConfig(), (1, 8))
        assert passes == [[32, 64, 128, 256]]

    def test_a_cell_peaks_under_3_5_mib(self):
        """2.95 MiB measured: the series, the four windows' variances and a
        block of scratch each."""
        config = SweepConfig()
        _cell_rows(config, (1, 8))
        tracemalloc.start()
        try:
            _cell_rows(config, (1, 8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20

    def test_a_cell_keeps_no_variances_of_one_pass_through_the_next(self):
        """At 2**18 samples each kernel pass takes two of the four windows.
        25.3 bytes per sample measured: the series, one pass's two results
        and the scoring's scratch; keeping the first pass's last result
        through the second would add 8."""
        n = 1 << 18
        config = SweepConfig(sigma_counts=(1,), windows=(2, 3, 4, 5), total_samples=n, seeds=(1,))
        _cell_rows(config, (1, 1))
        tracemalloc.start()
        try:
            _cell_rows(config, (1, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 29 * n


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self):
        first = run_sweep(SMALL).report_csv_bytes()
        second = run_sweep(SMALL).report_csv_bytes()
        assert first == second

    def test_parallel_run_matches_sequential(self):
        sequential = run_sweep(SMALL, workers=1)
        parallel = run_sweep(SMALL, workers=3)
        assert sequential.report_csv_bytes() == parallel.report_csv_bytes()
        assert sequential.summary_csv_bytes() == parallel.summary_csv_bytes()


class _InProcessPool:
    """Stands in for a process pool: maps in this process, starts nothing."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestPoolSize:
    """A sweep asks for no more workers than it has (k, seed) cells."""

    @pytest.fixture
    def requested(self, monkeypatch):
        """Worker counts asked of ``series.process_pool``; any other route
        to a process pool fails the test before it starts a process."""
        requested = []

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started outside series.process_pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

        def record(workers):
            requested.append(workers)
            return _InProcessPool()

        monkeypatch.setattr(series_module, "process_pool", record)
        return requested

    def test_one_cell_starts_no_pool(self, requested):
        config = SweepConfig(sigma_counts=(4,), windows=(16,), bins=8, total_samples=512, seeds=(1,))
        report = run_sweep(config, workers=64)
        assert requested == []
        assert report.report_csv_bytes() == run_sweep(config).report_csv_bytes()

    def test_two_cells_ask_for_two_workers(self, requested):
        config = SweepConfig(sigma_counts=(1, 4), windows=(16,), bins=8, total_samples=512, seeds=(1,))
        report = run_sweep(config, workers=64)
        assert requested == [2]
        assert report.report_csv_bytes() == run_sweep(config).report_csv_bytes()


class TestSummary:
    def test_summary_shape_and_header(self):
        report = run_sweep(SMALL)
        text = report.summary_csv_bytes().decode()
        lines = text.strip().split("\n")
        assert lines[0] == "window,metric,spearman,mean_score_k1,mean_score_k4,mean_score_k16"
        assert len(lines) == 1 + 2 * 3

    def test_summary_means_match_rows(self):
        report = run_sweep(SMALL)
        summary = {(s.window, s.metric): s for s in report.summary_rows()}
        for window in SMALL.windows:
            per_seed = np.array(
                [report.scores(window, "H_B", seed) for seed in SMALL.seeds]
            )
            np.testing.assert_allclose(
                summary[(window, "H_B")].mean_scores, per_seed.mean(axis=0), atol=1e-15
            )

    def test_summary_spearman_is_mean_of_per_seed_values(self):
        report = run_sweep(SMALL)
        log_k = np.log2(sorted(SMALL.sigma_counts))
        for window in SMALL.windows:
            rhos = [
                spearman(log_k, report.scores(window, "H_B", seed))
                for seed in SMALL.seeds
            ]
            summary = {(s.window, s.metric): s for s in report.summary_rows()}
            assert summary[(window, "H_B")].spearman == pytest.approx(
                float(np.mean(rhos)), abs=1e-12
            )
            assert -1.0 <= summary[(window, "H_B")].spearman <= 1.0

    def test_summary_spearman_is_nan_for_constant_ranks(self):
        config = SweepConfig(sigma_counts=(4,), windows=(8,), seeds=(1, 2), total_samples=512)
        for row in run_sweep(config).summary_rows():
            assert math.isnan(row.spearman)
            assert np.all(np.isfinite(row.mean_scores))


class TestCsvBytes:
    """Both report encodings equal a field-by-field ``format_float`` oracle."""

    @staticmethod
    def report_oracle(report):
        lines = ["k,window,seed,metric,score"]
        for r in report.rows:
            lines.append(f"{r.k},{r.window},{r.seed},{r.metric},{format_float(r.score)}")
        return ("\n".join(lines) + "\n").encode()

    @staticmethod
    def summary_oracle(report):
        ks = sorted(report.config.sigma_counts)
        lines = ["window,metric,spearman" + "".join(f",mean_score_k{k}" for k in ks)]
        for r in report.summary_rows():
            fields = [str(r.window), r.metric, format_float(r.spearman)]
            lines.append(",".join(fields + [format_float(m) for m in r.mean_scores]))
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize(
        "config",
        [
            SweepConfig(
                sigma_counts=(4, 1, 4, 2), windows=(16, 8), bins=8, total_samples=512,
                seeds=(3, 1, 3),
            ),
            SweepConfig(sigma_counts=(1,), windows=(8,), bins=8, total_samples=256, seeds=(1, 2)),
        ],
        ids=["unsorted-duplicates", "one-k-nan-spearman"],
    )
    def test_report_and_summary_match_oracle(self, config):
        report = run_sweep(config)
        assert report.report_csv_bytes() == self.report_oracle(report)
        assert report.summary_csv_bytes() == self.summary_oracle(report)

    def test_empty_report_is_its_header_line(self):
        report = SweepReport(rows=(), config=SMALL)
        assert report.report_csv_bytes() == b"k,window,seed,metric,score\n"
        assert report.report_csv_bytes() == self.report_oracle(report)


class TestMissingCells:
    """A report without a score for some (window, metric, seed, k) cannot
    be summarized; the error names the first such cell."""

    def test_empty_report(self):
        report = SweepReport(rows=(), config=SweepConfig())
        message = "report has no H_B score for k=1, window=32, seed=1"
        with pytest.raises(ParameterError, match=message):
            report.summary_rows()
        with pytest.raises(ParameterError, match=message):
            report.summary_csv_bytes()

    def test_one_dropped_row(self):
        full = run_sweep(SMALL)
        rows = tuple(r for r in full.rows if (r.k, r.window, r.seed, r.metric) != (4, 32, 2, "H_H"))
        assert len(rows) == len(full.rows) - 1
        with pytest.raises(ParameterError, match="no H_H score for k=4, window=32, seed=2"):
            SweepReport(rows=rows, config=SMALL).summary_csv_bytes()


class TestGridsAreSets:
    """Each grid is stored sorted and without repeats, so neither changes
    what a sweep scores or writes."""

    def test_grids_are_stored_sorted_and_distinct(self):
        config = SweepConfig(sigma_counts=(4, 1, 2, 2), windows=(64, 32, 64), seeds=(3, 1, 3))
        assert config.sigma_counts == (1, 2, 4)
        assert config.windows == (32, 64)
        assert config.seeds == (1, 3)

    def test_repeated_grid_scores_each_cell_once(self):
        config = SweepConfig(
            sigma_counts=(1, 2, 2), windows=(8, 8), seeds=(1,), bins=4, total_samples=64
        )
        report = run_sweep(config)
        assert len(report.rows) == 2 * 1 * 1 * 3
        lines = report.summary_csv_bytes().decode().splitlines()
        assert lines[0] == "window,metric,spearman,mean_score_k1,mean_score_k2"
        assert len(lines) == 1 + 1 * 3

    def test_seed_order_does_not_change_output(self):
        shuffled = run_sweep(replace(SMALL, seeds=(3, 1, 2, 7, 5)))
        ordered = run_sweep(replace(SMALL, seeds=(1, 2, 3, 5, 7)))
        assert shuffled.report_csv_bytes() == ordered.report_csv_bytes()
        assert shuffled.summary_csv_bytes() == ordered.summary_csv_bytes()


class TestValidation:
    def test_empty_lists_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(sigma_counts=())
        with pytest.raises(ConfigurationError):
            SweepConfig(windows=())
        with pytest.raises(ConfigurationError):
            SweepConfig(seeds=())

    def test_oversized_sigma_count_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(sigma_counts=(1, 4096), total_samples=1024)

    def test_oversized_sigma_count_is_the_generator_error(self):
        message = r"^num_sigmas \(4096\) exceeds total_samples \(1024\)$"
        with pytest.raises(ConfigurationError, match=message):
            SweepConfig(sigma_counts=(1, 4096), total_samples=1024)

    def test_window_must_leave_two_estimates(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(windows=(1024,), total_samples=1024)

    def test_generator_parameters_are_validated(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(sigma_min=0.0)
        with pytest.raises(ConfigurationError):
            SweepConfig(spacing="geometric")

    def test_binning_validated(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(binning="sqrt")

    def test_workers_must_be_positive(self):
        with pytest.raises(ParameterError):
            run_sweep(SMALL, workers=0)
