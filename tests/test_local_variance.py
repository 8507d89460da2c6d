"""Box-filter variance against a naive two-pass oracle, plus LTI properties."""

import importlib
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

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
from hetquant.local_variance import _BLOCK_OUTPUTS as BLOCK
from hetquant.local_variance import _local_variances, _one_pass, _window_means

# The package's local_variance function hides the module of that name.
local_variance_module = importlib.import_module("hetquant.local_variance")


def two_pass_variance(samples: np.ndarray, window: int) -> np.ndarray:
    """Reference implementation: explicit mean then squared deviations."""
    windows = sliding_window_view(samples, window)
    means = windows.mean(axis=1)
    return ((windows - means[:, None]) ** 2).mean(axis=1)


def doubling_sums(values: np.ndarray, window: int) -> np.ndarray:
    """The sums of every length-``window`` slice of ``values``, by doubling
    on one window alone: at increasing offsets, the level of every set bit
    of ``window``, added to zeros in that order. Kept apart from the
    kernel's code, so that a fault shared by its windows cannot pass here."""
    n_out = values.size - window + 1
    total = np.zeros(n_out)
    level, offset, span = values, 0, 1
    while True:
        if window & span:
            total += level[offset : offset + n_out]
            offset += span
        if 2 * span > window:
            return total
        level = level[:-span] + level[span:]
        span *= 2


def raw_variance(samples: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's formula over the whole series at once, with no blocks
    and no clamp: its variances and its mean squares."""
    x = samples - samples.mean()
    mean = doubling_sums(x, window) / window
    mean_sq = doubling_sums(x * x, window) / window
    return mean_sq - mean * mean, mean_sq


def unblocked_variance(samples: np.ndarray, window: int) -> tuple[np.ndarray, float]:
    """``raw_variance`` clamped at zero, and its zero floor."""
    variances, mean_sq = raw_variance(samples, window)
    depth_terms = window.bit_length() + window.bit_count()
    zero_floor = float(1.5 * depth_terms * np.finfo(np.float64).eps * mean_sq.max())
    return np.maximum(variances, 0.0), zero_floor


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
        [
            np.tile([1e200, -1e200], 8),
            np.full(8, 1.7e308),
            np.tile([1e154, -1e154], 8),
            # Only the windows over the spike overflow, all in the last block.
            np.concatenate((np.zeros(3 * BLOCK - 10), [1e155], np.zeros(9))),
        ],
        ids=["squares-overflow", "mean-overflows", "sums-overflow", "overflow-in-a-later-block"],
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


class TestBlocks:
    """Outputs are computed in blocks of max(BLOCK, 4 w); each must carry
    the bits of the whole-series formula, whatever block it falls in."""

    @staticmethod
    def assert_unblocked_bits(samples, window):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = local_variance(TimeSeries(samples), window)
        variances, zero_floor = unblocked_variance(samples, window)
        assert result.variances.tobytes() == variances.tobytes()
        assert result.zero_floor == zero_floor
        return result

    @pytest.mark.parametrize("window", [2, 5, 100, 128])
    @pytest.mark.parametrize(
        "outputs", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17],
        ids=["block-1", "block", "block+1", "several-blocks"],
    )
    def test_block_edges(self, outputs, window):
        samples = np.random.default_rng(outputs + window).normal(3.0, 2.0, outputs + window - 1)
        self.assert_unblocked_bits(samples, window)

    @pytest.mark.parametrize("window", [BLOCK, BLOCK + 3, 3 * BLOCK])
    def test_windows_of_a_block_and_more(self, window):
        """Blocks of 4 w outputs, two and a half of them."""
        samples = np.random.default_rng(window).normal(0.0, 1.0, 10 * window + window - 1)
        self.assert_unblocked_bits(samples, window)

    @pytest.mark.parametrize("n", [2, 777, BLOCK + 9, 4 * BLOCK + 1])
    def test_window_equal_to_length(self, n):
        samples = np.random.default_rng(n).normal(1e3, 1.0, n)
        assert len(self.assert_unblocked_bits(samples, n)) == 1

    def test_constant_stretch_across_a_block_edge(self):
        """This stretch's windows leave nonzero residues (w is not a power
        of two) in both blocks it spans, and keep them bit for bit."""
        rng, window = np.random.default_rng(100), 100
        samples = np.concatenate(
            (rng.normal(0, 1, BLOCK - 700), np.full(1400, 7.3), rng.normal(0, 2, 2 * BLOCK))
        )
        result = self.assert_unblocked_bits(samples, window)
        inside = result.variances[BLOCK - 700 : BLOCK + 700 - window + 1]
        assert np.any(inside[: 700 - window + 1] > 0) and np.any(inside[700:] > 0)
        assert inside.max() <= result.zero_floor


class TestWindowSets:
    """Shared passes over several windows must give each window the bits
    and the errors of ``local_variance`` at that window alone, and of the
    unblocked one-window formula, whatever set bits the windows have,
    wherever the shared blocks end and however the windows split into
    passes."""

    @staticmethod
    def assert_one_window_bits(samples, windows):
        series = TimeSeries(samples)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = list(_local_variances(series, windows))
            # All the windows in one pass, whatever the passes' size limit.
            with mock.patch.object(local_variance_module, "_PASS_FLOOR", 1 << 62):
                together = list(_local_variances(series, windows))
        assert [result.window for result in results] == list(windows)
        for window, result, shared in zip(windows, results, together):
            assert shared.variances.tobytes() == result.variances.tobytes(), window
            assert shared.zero_floor == result.zero_floor, window
            alone = local_variance(series, window)
            assert result.variances.tobytes() == alone.variances.tobytes(), window
            assert result.zero_floor == alone.zero_floor, window
            variances, zero_floor = unblocked_variance(samples, window)
            assert result.variances.tobytes() == variances.tobytes(), window
            assert result.zero_floor == zero_floor, window

    @pytest.mark.parametrize(
        "windows", [(3, 5, 100, 128, 1000), (2, 7, 2047, 4097)], ids=["block-2^13", "block-4*4097"]
    )
    @pytest.mark.parametrize(
        "n",
        [BLOCK - 1, BLOCK + 1, BLOCK + 500, 3 * BLOCK + 5, 4 * 4097 + 3000],
        # In BLOCK + 500 (first set) and 4 * 4097 + 3000 (second), the last
        # block holds outputs of the smaller windows only.
        ids=["2^13-1", "2^13+1", "2^13+500", "3*2^13+5", "4*4097+3000"],
    )
    def test_windows_whose_set_bits_differ(self, n, windows):
        samples = np.random.default_rng(n + len(windows)).standard_t(3, n) * 2.0 + 10.0
        self.assert_one_window_bits(samples, windows)

    @pytest.mark.parametrize("n", [777, 3 * BLOCK + 5])
    def test_a_window_equal_to_the_length(self, n):
        samples = np.random.default_rng(n).normal(1e3, 1.0, n)
        self.assert_one_window_bits(samples, (3, 100, n))

    @pytest.mark.parametrize(
        "samples, windows, failing",
        [
            # Squares of 5e153 fit, and their sums over 2 and 3 samples;
            # over 8 they overflow.
            (np.tile([5e153, -5e153], 8), (2, 3, 8), 8),
            (np.tile([5e153, -5e153], 8), (8, 2), 8),
            (np.arange(10.0), (3, 11, 12), 11),
            (np.arange(10.0), (3, 1, 11), 1),
            (np.arange(10.0), (11, 1), 11),
        ],
        ids=["overflow", "overflow-first", "window-exceeds-length", "window-below-2", "first-error-wins"],
    )
    def test_errors_are_those_of_the_first_failing_window(self, samples, windows, failing):
        series = TimeSeries(samples)
        with pytest.raises(ParameterError) as alone:
            local_variance(series, failing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError) as together:
                list(_local_variances(series, windows))
        assert str(together.value) == str(alone.value)

    def test_a_window_that_overflows_raises_after_those_before_it_in_its_pass(self):
        # Sums of squares of 6e153 fit over 4 samples; over 8 they overflow.
        series = TimeSeries(np.tile([6e153, -6e153], 32))
        alone = local_variance(series, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = _local_variances(series, (4, 8))
            first = next(results)
            with pytest.raises(ParameterError) as overflow:
                next(results)
        assert str(overflow.value) == "samples are too large: their window sums of squares overflow float64"
        assert first.window == 4
        assert first.variances.tobytes() == alone.variances.tobytes()
        assert first.zero_floor == alone.zero_floor == 4.796163466380677e292


class TestPowerOfTwoScaling:
    """A power-of-two window's means are its one doubling level times 1 / w,
    which must give the bits of that level divided by w, near the subnormal
    range and far above 1 alike."""

    SCALES = [2.0**-1000, 2.0**-1016, 2.0**-1040, 2.0**500]
    IDS = ["2^-1000", "2^-1016", "2^-1040", "2^500"]
    WINDOWS = [2, 32, 256, 1024]

    @pytest.mark.parametrize("scale", SCALES, ids=IDS)
    def test_means_are_the_level_divided_by_the_window(self, scale):
        samples = np.random.default_rng(5).standard_normal(3000) * scale
        means = [np.empty(samples.size - window + 1) for window in self.WINDOWS]
        _window_means(samples, self.WINDOWS, means)
        for window, mean in zip(self.WINDOWS, means):
            assert mean.tobytes() == (doubling_sums(samples, window) / window).tobytes(), window
        if scale == 2.0**-1016:
            tiny = np.finfo(np.float64).tiny
            assert any(((mean != 0) & (abs(mean) < tiny)).any() for mean in means)

    @pytest.mark.parametrize("scale", SCALES, ids=IDS)
    def test_variances_have_the_unblocked_bits(self, scale):
        samples = np.random.default_rng(6).standard_normal(BLOCK + 3000) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = list(_local_variances(TimeSeries(samples), self.WINDOWS))
        for window, result in zip(self.WINDOWS, results):
            variances, zero_floor = unblocked_variance(samples, window)
            assert result.variances.tobytes() == variances.tobytes(), window
            assert result.zero_floor == zero_floor, window


class TestClamp:
    """Rounding can leave a window's variance below zero; the kernel clamps
    a result whose smallest value is below zero, and every value keeps the
    bits of the clamped formula."""

    def test_a_block_with_negative_residues_between_two_without(self):
        window = 100
        samples = np.random.default_rng(3).normal(0.0, 1.0, 3 * BLOCK + window - 1)
        samples[BLOCK + 2000 : BLOCK + 4000] = 7.3
        raw, _ = raw_variance(samples, window)
        lows = raw.reshape(3, BLOCK).min(axis=1)
        assert lows[1] < 0 <= min(lows[0], lows[2])
        TestWindowSets.assert_one_window_bits(samples, (3, window, 128))


class TestSignedZeros:
    """Centred samples of -0.0 make window sums of -0.0, which a sum that
    starts at 0.0 turns into +0.0. Only the sign of a mean that is then
    squared can differ, so every variance, zero included, keeps its bits."""

    @pytest.mark.parametrize(
        "windows", [(2, 64, 128), (3, 7, 100)], ids=["one-set-bit", "several-set-bits"]
    )
    def test_negative_zero_samples_whose_mean_is_zero(self, windows):
        samples = np.full(2 * BLOCK + 300, -0.0)
        # Integers whose exact sum is 0, on both sides of a block edge.
        samples[:200:2], samples[1:200:2] = 3.0, -3.0
        samples[BLOCK + 50 : BLOCK + 250] = np.tile([-1.0, 2.0, -1.0, 5.0, -5.0], 40)
        center = samples.mean()
        assert center == 0.0 and not np.signbit(center)
        assert np.signbit(samples - center)[250:BLOCK].all()
        TestWindowSets.assert_one_window_bits(samples, windows)


def exact_variance(values: np.ndarray) -> tuple[Fraction, Fraction]:
    """The exact population variance and mean square of float64 ``values``:
    each is an integer mantissa times a power of two, so scaled to the
    smallest of those powers their sums are exact Python ints."""
    mantissas, exponents = np.frexp(values)
    ints = (mantissas * 2.0**53).astype(np.int64).tolist()
    shifts = (exponents - 53).tolist()
    low = min(shifts)
    scaled = [m << (shift - low) for m, shift in zip(ints, shifts)]
    unit = Fraction(2) ** low
    mean = Fraction(sum(scaled)) * unit / values.size
    mean_sq = Fraction(sum(v * v for v in scaled)) * unit * unit / values.size
    return mean_sq - mean * mean, mean_sq


_LONG = 1 << 22


def _constant_stretches(rng):
    """Noise and constant stretches far from the mean, 2**13 samples each."""
    samples = rng.normal(0.0, 1.0, _LONG).reshape(-1, 2, 1 << 13)
    samples[:, 1, :] = 1234.5678
    return samples.ravel()


class TestLongSeriesRounding:
    """At N = 2**22, every sampled window's error against the exact variance
    of the kernel's centred samples stays within the docstring's bound
    3 (d + 2) u M, M the window's mean square, and so within the zero
    floor. The bound takes the centred samples as given; the rounding of
    subtracting the mean is not part of it."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: rng.normal(0.0, 1.0, _LONG) + 1e6,
            lambda rng: rng.standard_t(2, _LONG),
            _constant_stretches,
        ],
        ids=["large-offset", "heavy-tails", "constant-stretches"],
    )
    def test_error_within_the_per_window_bound(self, make):
        rng = np.random.default_rng(2024)
        series = TimeSeries(make(rng))
        samples = series.samples
        center = samples.mean()
        for window in (3, 1000, 4095):
            result = local_variance(series, window)
            # 3 (d + 2) u, where d + 2 = bit_length(w) + popcount(w) and u = 2**-53.
            factor = Fraction(3 * (window.bit_length() + window.bit_count()), 2**53)
            for start in rng.integers(0, _LONG - window + 1, 32).tolist():
                exact, mean_sq = exact_variance(samples[start : start + window] - center)
                error = abs(Fraction(float(result.variances[start])) - exact)
                assert error <= factor * mean_sq, (window, start, float(error))
                assert error <= Fraction(result.zero_floor), (window, start, float(error))


class TestMemory:
    @staticmethod
    def traced_peak(work):
        tracemalloc.start()
        try:
            work()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_is_the_result_and_one_block(self):
        """8 bytes per sample, which the container takes without a copy or a
        check, and one block's scratch; the whole-series formula holds x,
        x*x, the doubling levels and both means, 48, and a finiteness mask
        of the result would add 1."""
        n = 1 << 20
        series = TimeSeries(np.random.default_rng(1).normal(0, 1, n))
        results = []
        peak = self.traced_peak(lambda: results.append(local_variance(series, 128)))
        assert len(results[0]) == n - 127
        assert results[0].variances.base is None
        assert peak < 9 * n

    def test_many_windows_hold_two_results_at_a_time(self):
        """Forty windows taken one at a time, as the sweep takes them: a
        pass holds at most 2 N variances, 16 bytes per sample, taken without
        copies, plus a block of scratch per window, where all forty would
        hold 320."""
        n = 1 << 18
        series = TimeSeries(np.random.default_rng(2).normal(0, 1, n))
        windows = range(2, 42)

        def consume():
            results = _local_variances(series, windows)
            for window in windows:
                assert next(results).window == window

        assert self.traced_peak(consume) < 20 * n

    @pytest.mark.parametrize(
        "n, windows, passes",
        [
            # Below 2**18 samples, the 2**19 floor is the larger limit (a
            # default sweep cell: tests/test_sweep.py); from 2**18, 2 N.
            (1 << 17, (2, 3, 4, 5, 6), [[2, 3, 4, 5], [6]]),
            (1 << 18, (32, 64, 128, 256), [[32, 64], [128, 256]]),
        ],
        ids=["2^17", "2^18"],
    )
    def test_passes_hold_the_larger_of_two_results_and_the_floor(self, monkeypatch, n, windows, passes):
        seen = []

        def spy(samples, group):
            seen.append(list(group))
            return _one_pass(samples, group)

        monkeypatch.setattr(local_variance_module, "_one_pass", spy)
        series = TimeSeries(np.random.default_rng(n).normal(0, 1, n))
        assert [result.window for result in _local_variances(series, windows)] == list(windows)
        assert seen == passes


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
