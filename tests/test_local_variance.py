"""Box-filter variance against a naive two-pass oracle, plus LTI properties."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
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

    def test_numpy_integer_window(self):
        series = TimeSeries(np.random.default_rng(2).normal(0, 1, 100))
        want = local_variance(series, 7)
        got = local_variance(series, np.int64(7))
        assert np.array_equal(got.variances, want.variances)
        assert got.zero_floor == want.zero_floor


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

    @pytest.mark.parametrize(
        "samples",
        [np.tile([1e200, -1e200], 8), np.full(8, 1.7e308), np.tile([1e154, -1e154], 8)],
        ids=["squares-overflow", "mean-overflows", "sums-overflow"],
    )
    def test_overflowing_samples_raise_one_error_and_no_warning(self, samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="^samples are too large: .*overflow float64$"):
                local_variance(TimeSeries(samples), window=4)

    def test_largest_samples_whose_squares_fit_are_accepted(self):
        result = local_variance(TimeSeries(np.tile([1e150, -1e150], 8)), window=4)
        np.testing.assert_allclose(result.variances, 1e300)
        assert np.isfinite(result.zero_floor)


class TestZeroFloor:
    def test_constant_series_has_zero_floor(self):
        assert local_variance(TimeSeries(np.full(50, 7.0)), window=8).zero_floor == 0.0

    def test_floor_covers_residue_of_a_constant_stretch(self):
        """Windows inside a constant stretch between noisy segments are
        exactly 0 in truth; what the windowed sums leave there lies at or
        below the floor, and the noise's own variances lie far above it."""
        rng = np.random.default_rng(1)
        samples = np.concatenate(
            (rng.normal(0, 1, 1000), np.full(500, 7.0), rng.normal(0, 2, 1000))
        )
        window = 100
        result = local_variance(TimeSeries(samples), window=window)
        inside = result.variances[1000 : 1500 - window + 1]
        assert np.any(inside > 0), "no residue to test against"
        assert inside.max() <= result.zero_floor
        noisy = np.concatenate(
            (result.variances[:1000 - (window - 1)], result.variances[1500:])
        )
        assert result.zero_floor < 1e-6 * noisy.min()

    def test_constant_stretch_is_exactly_zero_at_power_of_two_window(self):
        """At a power-of-two window every sum inside a constant stretch adds
        equal terms in pairs, which is exact, so no residue is left."""
        rng = np.random.default_rng(1)
        samples = np.concatenate(
            (rng.normal(0, 1, 1000), np.full(500, 7.0), rng.normal(0, 2, 1000))
        )
        result = local_variance(TimeSeries(samples), window=32)
        inside = result.variances[1000 : 1500 - 32 + 1]
        assert np.all(inside == 0.0)

    @pytest.mark.parametrize("window", [3, 5, 100])
    def test_large_step_is_rounding_not_corruption(self, window):
        """A constant stretch far from the global mean has residues of size
        eps times its squared distance from the mean, beyond 1e-9 here: they
        lie under the floor and are clamped, not rejected."""
        rng = np.random.default_rng(3)
        samples = np.concatenate(
            (np.zeros(100), np.full(100, 123456.789), rng.normal(0, 1, 100))
        )
        result = local_variance(TimeSeries(samples), window)
        assert result.variances[100 : 200 - window + 1].max() <= result.zero_floor


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

    def test_matches_two_pass_on_a_long_series(self):
        """The rounding of each window's sums must not grow with N: at
        N = 4e6 the tail still matches the oracle."""
        n = 4_000_000
        samples = np.random.default_rng(5).normal(0, 100, n) + 1e6
        series = TimeSeries(samples)
        tail = 20_000
        for window in (2, 32, 1000):
            got = local_variance(series, window).variances[-tail:]
            want = np.concatenate(
                [
                    two_pass_variance(samples[start : start + 5_000 + window - 1], window)
                    for start in range(n - window + 1 - tail, n - window + 1, 5_000)
                ]
            )
            worst = np.max(np.abs(got - want))
            assert worst < 1e-9, f"window {window}: deviation {worst}"


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


# Dyadic samples, so adding a dyadic offset of like size is exact.
_dyadic = st.builds(
    lambda ints, exponent: np.array(ints, dtype=np.float64) * 2.0**exponent,
    st.lists(st.integers(-(2**20), 2**20), min_size=2, max_size=300),
    st.integers(-30, 30),
)


@st.composite
def _series_and_window(draw, samples=_dyadic):
    values = draw(samples)
    return values, draw(st.integers(2, values.size))


_bounded = arrays(
    np.float64,
    st.integers(2, 300),
    elements=st.floats(-1e6, 1e6, allow_subnormal=False),
)


class TestHypothesisProperties:
    """Random bounded inputs. Tolerances are a small multiple of the
    kernel's own zero floor, which bounds its rounding."""

    @settings(max_examples=300, deadline=None)
    @given(_series_and_window(_bounded))
    def test_length_sign_and_oracle(self, case):
        samples, window = case
        result = local_variance(TimeSeries(samples), window)
        assert len(result) == samples.size - window + 1
        assert np.all(result.variances >= 0)
        deviation = np.abs(result.variances - two_pass_variance(samples, window))
        # The oracle's own error: its rounded window mean is off by up to
        # about log2(w) ulps of the largest sample, which adds the square of
        # that offset to its variance.
        oracle_error = (window * np.finfo(np.float64).eps * np.max(np.abs(samples))) ** 2
        assert np.all(deviation <= 2 * result.zero_floor + oracle_error + 1e-290)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-1e6, 1e6, allow_subnormal=False),
        st.integers(2, 300),
        st.integers(1, 8),
    )
    def test_constant_input_is_exactly_zero_at_power_of_two_window(
        self, value, length, log2_window
    ):
        window = 2**log2_window
        if window > length:
            length = window
        result = local_variance(TimeSeries(np.full(length, value)), window)
        assert np.all(result.variances == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(_series_and_window(), st.integers(-(2**20), 2**20))
    def test_constant_offset_invariance(self, case, offset_units):
        samples, window = case
        offset = offset_units * np.max(np.abs(samples), initial=1.0)
        base = local_variance(TimeSeries(samples), window)
        shifted = local_variance(TimeSeries(samples + offset), window)
        bound = 2 * (base.zero_floor + shifted.zero_floor) + 1e-290
        assert np.all(np.abs(shifted.variances - base.variances) <= bound)
