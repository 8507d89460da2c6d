"""Histogram construction, the uniform reference, and distribution CSV I/O."""

import io
import warnings

import numpy as np
import pytest

from hetquant import (
    IngestionError,
    LocalVarianceSeries,
    ParameterError,
    ProbabilityDistribution,
    TimeSeries,
    distribution_csv_bytes,
    estimate_pdf,
    local_variance,
    read_distribution_csv,
    uniform_reference,
    write_distribution_csv,
)
from hetquant import series as series_module


class TestEstimatePdf:
    def test_hand_binned_example(self):
        dist = estimate_pdf(np.array([0.5, 1.5, 2.5, 3.5]), bins=4)
        np.testing.assert_allclose(
            dist.edges, [0.0, 0.875, 1.75, 2.625, 3.5], atol=1e-15
        )
        np.testing.assert_allclose(dist.masses, [0.25, 0.25, 0.25, 0.25], atol=1e-15)

    def test_equal_values_land_in_final_bin(self):
        dist = estimate_pdf(np.full(10, 3.0), bins=64)
        assert dist.masses[-1] == 1.0
        assert np.all(dist.masses[:-1] == 0.0)
        assert dist.edges[-1] == 3.0

    def test_all_zero_input_uses_unit_support(self):
        dist = estimate_pdf(np.zeros(5), bins=8)
        np.testing.assert_allclose(dist.edges, np.linspace(0.0, 1.0, 9), atol=1e-15)
        assert dist.masses[0] == 1.0

    def test_masses_always_normalize(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 500))
            bins = int(rng.integers(1, 80))
            values = rng.random(n) * rng.choice([1e-6, 1.0, 1e6])
            dist = estimate_pdf(values, bins)
            assert abs(dist.masses.sum() - 1.0) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        values = rng.random(300)
        original = estimate_pdf(values, 32)
        shuffled = estimate_pdf(rng.permutation(values), 32)
        assert np.array_equal(original.masses, shuffled.masses)
        assert np.array_equal(original.edges, shuffled.edges)

    def test_support_covers_every_value(self):
        rng = np.random.default_rng(21)
        values = rng.random(100) * 7
        dist = estimate_pdf(values, 16)
        assert dist.edges[0] <= values.min()
        assert values.max() <= dist.edges[-1]

    def test_single_bin(self):
        dist = estimate_pdf(np.array([0.2, 0.9]), bins=1)
        assert dist.masses.tolist() == [1.0]

    def test_rejects_empty_negative_and_bad_bins(self):
        with pytest.raises(ParameterError):
            estimate_pdf(np.array([]), 4)
        with pytest.raises(ParameterError):
            estimate_pdf(np.array([0.5, -0.1]), 4)
        with pytest.raises(ParameterError):
            estimate_pdf(np.array([0.5]), 0)

    @pytest.mark.parametrize("top, bins", [(4.4e-323, 16), (5e-324, 4)])
    def test_rejects_a_top_too_small_for_distinct_linear_edges(self, top, bins):
        message = f"^the largest variance, {top!r}, is too small to split into {bins} linear bins$"
        with pytest.raises(ParameterError, match=message):
            estimate_pdf(np.array([top, 0.0]), bins)


class TestLogBinning:
    def test_plain_call_stays_linear(self):
        variances = LocalVarianceSeries(np.array([0.5, 1.5, 2.5, 3.5]), window=8)
        plain = estimate_pdf(variances, 4)
        linear = estimate_pdf(variances, 4, "linear")
        assert np.array_equal(plain.edges, linear.edges)
        assert np.array_equal(plain.masses, linear.masses)

    def test_counts_match_binning_the_log_of_each_value(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            window = int(rng.integers(2, 300))
            bins = int(rng.integers(1, 200))
            values = rng.lognormal(0.0, float(rng.uniform(0.01, 5.0)), 2000)
            dist = estimate_pdf(LocalVarianceSeries(values, window), bins, "log")
            idx = np.searchsorted(dist.edges, np.log(values), side="right") - 1
            expected = np.bincount(np.minimum(idx, bins - 1), minlength=bins)
            assert np.array_equal(dist.masses, expected / values.size)

    def test_span_is_observed_range_or_noise_width(self):
        width = np.sqrt(2.0 / 31)
        narrow = estimate_pdf(LocalVarianceSeries(np.array([1.0, 1.1]), 32), 8, "log")
        np.testing.assert_allclose(narrow.edges[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(np.diff(narrow.edges), width, rtol=1e-12)
        wide = estimate_pdf(LocalVarianceSeries(np.array([1e-3, 1e3]), 32), 8, "log")
        np.testing.assert_allclose(wide.edges[[0, -1]], np.log([1e-3, 1e3]), rtol=1e-12)
        assert wide.masses[0] == wide.masses[-1] == 0.5

    def test_residue_below_zero_floor_does_not_stretch_span(self):
        rng = np.random.default_rng(1)
        samples = np.concatenate(
            (rng.normal(0, 1, 1000), np.full(500, 7.0), rng.normal(0, 2, 1000))
        )
        window = 100
        variances = local_variance(TimeSeries(samples), window=window)
        values = variances.variances
        signal = values[values > variances.zero_floor]
        assert signal.size < np.count_nonzero(values), "no residue to test against"
        dist = estimate_pdf(variances, 64, "log")
        np.testing.assert_allclose(dist.edges[0], np.log(signal.min()), rtol=1e-14)
        span = max(np.log(signal.max() / signal.min()), 64 * np.sqrt(2.0 / (window - 1)))
        np.testing.assert_allclose(dist.edges[-1] - dist.edges[0], span, rtol=1e-12)
        assert dist.masses[0] >= (values.size - signal.size) / values.size

    def test_edges_finite_at_window_two_with_many_bins(self):
        rng = np.random.default_rng(5)
        variances = local_variance(TimeSeries(rng.normal(0, 1, 8192)), window=2)
        dist = estimate_pdf(variances, 4096, "log")
        assert np.all(np.isfinite(dist.edges))
        assert np.all(np.diff(dist.edges) > 0)
        np.testing.assert_allclose(dist.edges[-1] - dist.edges[0], 4096 * np.sqrt(2.0), rtol=1e-12)
        assert abs(dist.masses.sum() - 1.0) <= 1e-12

    def test_all_zero_input_is_one_hot(self):
        dist = estimate_pdf(LocalVarianceSeries(np.zeros(5), window=8), 16, "log")
        assert dist.masses[0] == 1.0
        assert np.all(np.isfinite(dist.edges))

    def test_rejects_plain_values_and_unknown_binning(self):
        with pytest.raises(ParameterError, match="LocalVarianceSeries"):
            estimate_pdf(np.array([1.0, 2.0]), 4, "log")
        with pytest.raises(ParameterError, match="binning"):
            estimate_pdf(np.array([1.0, 2.0]), 4, "sqrt")


class TestUniformReference:
    def test_shares_edges_and_splits_mass_evenly(self):
        dist = estimate_pdf(np.array([1.0, 2.0, 5.0]), bins=4)
        ref = uniform_reference(dist)
        assert np.array_equal(ref.edges, dist.edges)
        np.testing.assert_allclose(ref.masses, [0.25] * 4, atol=1e-15)

    def test_single_bin_reference(self):
        dist = estimate_pdf(np.array([2.0]), bins=1)
        ref = uniform_reference(dist)
        assert ref.masses.tolist() == [1.0]

    def test_idempotent(self):
        dist = estimate_pdf(np.linspace(0, 1, 50), bins=8)
        once = uniform_reference(dist)
        twice = uniform_reference(once)
        assert np.array_equal(once.masses, twice.masses)


class TestProbabilityDistribution:
    def test_rejects_non_increasing_edges(self):
        with pytest.raises(ParameterError):
            ProbabilityDistribution(np.array([0.0, 1.0, 1.0]), np.array([0.5, 0.5]))

    def test_accepts_finite_edges_whose_difference_overflows(self):
        dist = ProbabilityDistribution(np.array([-1.7e308, 1.7e308]), np.array([1.0]))
        assert dist.edges.tolist() == [-1.7e308, 1.7e308]

    def test_rejects_unnormalized_masses(self):
        with pytest.raises(ParameterError):
            ProbabilityDistribution(np.array([0.0, 0.5, 1.0]), np.array([0.6, 0.6]))

    def test_rejects_negative_masses(self):
        with pytest.raises(ParameterError):
            ProbabilityDistribution(np.array([0.0, 0.5, 1.0]), np.array([1.2, -0.2]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ParameterError):
            ProbabilityDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5]))

    def test_rejects_fewer_than_two_edges(self):
        with pytest.raises(ParameterError, match="^edges must hold at least two boundaries$"):
            ProbabilityDistribution(np.array([0.0]), np.array([]))

    def test_midpoints(self):
        dist = ProbabilityDistribution(np.array([0.0, 2.0, 4.0]), np.array([0.5, 0.5]))
        assert dist.midpoints.tolist() == [1.0, 3.0]
        assert dist.bins == 2


class TestDistributionCsv:
    def test_canonical_bytes(self):
        dist = ProbabilityDistribution(np.array([0.0, 2.0, 4.0]), np.array([0.75, 0.25]))
        assert distribution_csv_bytes(dist) == b"bin_midpoint,mass\n1,0.75\n3,0.25\n"

    def test_round_trip_preserves_masses_and_midpoints(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            bins = int(rng.integers(1, 40))
            values = rng.random(200) * 3
            dist = estimate_pdf(values, bins)
            buffer = io.BytesIO()
            write_distribution_csv(dist, buffer)
            buffer.seek(0)
            back = read_distribution_csv(buffer)
            assert np.array_equal(back.masses, dist.masses)
            np.testing.assert_allclose(back.midpoints, dist.midpoints, atol=1e-12)

    def test_round_trip_via_path(self, tmp_path):
        dist = estimate_pdf(np.array([0.5, 1.0, 2.0]), bins=4)
        target = tmp_path / "dist.csv"
        write_distribution_csv(dist, target)
        back = read_distribution_csv(target)
        assert np.array_equal(back.masses, dist.masses)

    @pytest.mark.parametrize("midpoint", [0.1257302210933933, 0.3, 1e17, -1e300])
    def test_one_bin_file_reads_back_its_midpoint_bits(self, midpoint):
        data = f"bin_midpoint,mass\n{midpoint!r},1\n".encode()
        back = read_distribution_csv(io.BytesIO(data))
        assert back.midpoints.tobytes() == np.array([midpoint]).tobytes()
        assert distribution_csv_bytes(back) == data

    @pytest.mark.parametrize(
        "edges, masses, data",
        [
            pytest.param([1e308, 1.7e308], [1.0], b"bin_midpoint,mass\n1.35e+308,1\n", id="one-bin"),
            pytest.param(
                [1e308, 1.5e308, 1.7e308],
                [0.5, 0.5],
                b"bin_midpoint,mass\n1.25e+308,0.5\n1.6e+308,0.5\n",
                id="two-bins",
            ),
        ],
    )
    def test_midpoints_near_the_float_limit_round_trip(self, edges, masses, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert distribution_csv_bytes(ProbabilityDistribution(edges, masses)) == data
            assert distribution_csv_bytes(read_distribution_csv(io.BytesIO(data))) == data

    def test_4096_bins_read_back_bit_identical(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(0, 1, 1 << 16) * np.repeat([1.0, 3.0, 9.0, 27.0], 1 << 14)
        dist = estimate_pdf(local_variance(TimeSeries(samples), window=32), 4096, "log")
        data = distribution_csv_bytes(dist)
        back = read_distribution_csv(io.BytesIO(data))
        assert back.masses.tobytes() == dist.masses.tobytes()
        columns = {"bin_midpoint,mass": ("bin_midpoint", "mass")}
        mids, _ = series_module.read_table(io.BytesIO(data), columns)
        assert mids.tobytes() == dist.midpoints.tobytes()
        np.testing.assert_allclose(back.midpoints, dist.midpoints, atol=1e-12)

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            (b"", "empty"),
            (b"bin_midpoint,mass\n", "no data rows"),
            (b"midpoint,mass\n1,1\n", "header"),
            (b"bin_midpoint,mass\n1\n", "row 1"),
            (b"bin_midpoint,mass\n0.5,0.5\nx,0.5\n", "row 2"),
            (b"bin_midpoint,mass\n1,0.25\n2,0.25\n", "sum to 1"),
            (b"bin_midpoint,mass\n2,0.5\n1,0.5\n", "increasing"),
            (b"bin_midpoint,mass\nx,1\n", r"^row 1: bin_midpoint is not a number: 'x'$"),
            (b"bin_midpoint,mass\n0,1\n1,x\n", r"^row 2: mass is not a number: 'x'$"),
            (b"bin_midpoint,mass\n-inf,1\n", r"^row 1: bin_midpoint is not finite: '-inf'$"),
            (b"bin_midpoint,mass\n0.5,inf\n", r"^row 1: mass is not finite: 'inf'$"),
            (b"bin_midpoint,mass\n1\n", r"^row 1: expected 2 column\(s\), got 1$"),
            (b"bin_midpoint,mass\n0,1,2\n", r"^row 1: expected 2 column\(s\), got 3$"),
            (b"bin_midpoint,mass\n0,0.5\n\n1,0.5\n", r"^row 2: blank line$"),
            (b" midpoint,mass \n1,1\n", r"^header must be 'bin_midpoint,mass', got 'midpoint,mass'$"),
            (b"bin_midpoint,mass\n0,-0.5\n1,0.25\n", r"^masses must be finite and nonnegative$"),
        ],
    )
    def test_ingestion_errors(self, payload, fragment):
        with pytest.raises(IngestionError, match=fragment):
            read_distribution_csv(io.BytesIO(payload))
