"""Box-filter variance against a naive two-pass oracle, plus LTI properties."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from hetquant import (
    LocalVarianceSeries,
    ParameterError,
    TimeSeries,
    local_variance,
)


def two_pass_variance(samples: np.ndarray, window: int) -> np.ndarray:
    """Reference implementation: explicit mean then squared deviations."""
    windows = sliding_window_view(samples, window)
    means = windows.mean(axis=1)
    return ((windows - means[:, None]) ** 2).mean(axis=1)


class TestExamples:
    def test_constant_series_has_zero_variance(self):
        result = local_variance(TimeSeries(np.full(5, 5.0)), window=3)
        assert result.variances.tolist() == [0.0, 0.0, 0.0]

    def test_ramp_with_window_two(self):
        result = local_variance(TimeSeries(np.array([1.0, 2.0, 3.0, 4.0])), window=2)
        np.testing.assert_allclose(result.variances, [0.25, 0.25, 0.25], atol=1e-15)

    def test_output_length_and_window_echo(self):
        series = TimeSeries(np.arange(100, dtype=float))
        result = local_variance(series, window=7)
        assert len(result) == 100 - 7 + 1
        assert result.window == 7


class TestValidation:
    @pytest.mark.parametrize("window", [0, 1, -3, 11])
    def test_window_out_of_range(self, window):
        series = TimeSeries(np.arange(10, dtype=float))
        with pytest.raises(ParameterError):
            local_variance(series, window)

    def test_window_equal_to_length_is_allowed(self):
        series = TimeSeries(np.array([1.0, 2.0, 4.0]))
        result = local_variance(series, window=3)
        assert len(result) == 1

    def test_container_rejects_negative_values(self):
        with pytest.raises(ParameterError):
            LocalVarianceSeries(np.array([0.1, -0.2]), window=2)

    def test_container_rejects_bad_window(self):
        with pytest.raises(ParameterError):
            LocalVarianceSeries(np.array([0.1]), window=1)

    @pytest.mark.parametrize("floor", [-1e-12, np.inf, np.nan])
    def test_container_rejects_bad_zero_floor(self, floor):
        with pytest.raises(ParameterError):
            LocalVarianceSeries(np.array([0.1]), window=2, zero_floor=floor)


class TestZeroFloor:
    def test_constant_series_has_zero_floor(self):
        assert local_variance(TimeSeries(np.full(50, 7.0)), window=8).zero_floor == 0.0

    def test_floor_covers_residue_of_a_constant_stretch(self):
        """Windows inside a constant stretch between noisy segments are
        exactly 0 in truth; what the running sums leave there lies at or
        below the floor, and the noise's own variances lie far above it."""
        rng = np.random.default_rng(1)
        samples = np.concatenate(
            (rng.normal(0, 1, 1000), np.full(500, 7.0), rng.normal(0, 2, 1000))
        )
        result = local_variance(TimeSeries(samples), window=32)
        inside = result.variances[1000 : 1500 - 32 + 1]
        assert np.any(inside > 0), "no residue to test against"
        assert inside.max() <= result.zero_floor
        noisy = np.concatenate((result.variances[:1000 - 31], result.variances[1500:]))
        assert result.zero_floor < 1e-6 * noisy.min()


class TestOracleEquivalence:
    def test_matches_two_pass_on_random_series(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            samples = rng.normal(0, 100, 2000)
            for window in (2, 3, 17, 128):
                got = local_variance(TimeSeries(samples), window).variances
                want = two_pass_variance(samples, window)
                worst = np.max(np.abs(got - want))
                assert worst < 1e-9, f"window {window}: deviation {worst}"

    def test_matches_two_pass_with_large_offset(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(0, 1, 3000) + 1e6
        for window in (2, 32, 512):
            got = local_variance(TimeSeries(samples), window).variances
            want = two_pass_variance(samples, window)
            assert np.max(np.abs(got - want)) < 1e-9


class TestProperties:
    def test_nonnegativity(self):
        rng = np.random.default_rng(42)
        for scale in (1e-8, 1.0, 1e6):
            samples = rng.normal(0, scale, 500)
            for window in (2, 5, 64):
                result = local_variance(TimeSeries(samples), window)
                assert np.all(result.variances >= 0)

    def test_constant_offset_invariance(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(0, 3, 1000)
        base = local_variance(TimeSeries(samples), 32).variances
        for offset in (1.0, -250.0, 1e6):
            shifted = local_variance(TimeSeries(samples + offset), 32).variances
            assert np.max(np.abs(shifted - base)) <= 1e-9

    def test_scale_equivariance(self):
        rng = np.random.default_rng(13)
        samples = rng.normal(0, 2, 800)
        base = local_variance(TimeSeries(samples), 16).variances
        for factor in (0.5, -3.0, 40.0):
            scaled = local_variance(TimeSeries(samples * factor), 16).variances
            np.testing.assert_allclose(scaled, base * factor**2, rtol=1e-9)

    def test_shift_equivariance_on_overlap(self):
        rng = np.random.default_rng(17)
        samples = rng.normal(0, 5, 600)
        window = 24
        full = local_variance(TimeSeries(samples), window).variances
        for delay in (1, 7, 50):
            late = local_variance(TimeSeries(samples[delay:]), window).variances
            assert np.max(np.abs(late - full[delay:])) <= 1e-9

    def test_variances_are_immutable(self):
        result = local_variance(TimeSeries(np.array([1.0, 2.0, 3.0])), 2)
        with pytest.raises(ValueError):
            result.variances[0] = 9.0
