"""The library builds its own results with ``series.proved``, which skips the
public constructor's checks and copy. Each such result must be one that the
public constructor accepts, from copies of its fields, with the same bytes."""

import io
from dataclasses import fields

import numpy as np
import pytest

from hetquant import (
    SegmentedGeneratorConfig,
    TimeSeries,
    estimate_pdf,
    generate_segmented,
    local_variance,
    read_csv,
    series_csv_bytes,
)
from hetquant import series as series_module
from hetquant.local_variance import _local_variances, _one_pass
from hetquant.series import proved


def assert_public_constructor_agrees(built) -> None:
    """``built`` is frozen, and its class's public constructor, given copies
    of its fields, accepts them and keeps every field's bytes and type."""
    values = {field.name: getattr(built, field.name) for field in fields(built)}
    copies = {name: v.copy() if isinstance(v, np.ndarray) else v for name, v in values.items()}
    again = type(built)(**copies)
    for name, value in values.items():
        other = getattr(again, name)
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name
            assert value.dtype == other.dtype and value.tobytes() == other.tobytes(), name
        else:
            assert type(value) is type(other) and value == other, name


def test_proved_takes_each_array_as_is_and_freezes_it():
    samples = np.array([1.0, 2.0])
    series = proved(TimeSeries, samples=samples, times=None)
    assert series.samples is samples and series.times is None
    assert not samples.flags.writeable


def noisy_with_constant_stretch(offset: float) -> np.ndarray:
    """Noise around ``offset`` with a constant stretch between, whose
    windows leave rounding residues, which can fall below zero."""
    rng = np.random.default_rng(5)
    return np.concatenate(
        (rng.normal(offset, 1.0, 3000), np.full(2000, offset + 7.3), rng.normal(offset, 2.0, 3000))
    )


class TestKernel:
    WINDOWS = (2, 3, 5, 64, 100, 1000)

    @pytest.mark.parametrize("offset", [0.0, 123456.789])
    def test_every_window(self, offset):
        series = TimeSeries(noisy_with_constant_stretch(offset))
        results = list(_local_variances(series, self.WINDOWS))
        assert [result.window for result in results] == list(self.WINDOWS)
        for result in results:
            assert result.zero_floor > 0
            assert_public_constructor_agrees(result)

    def test_a_clamped_result(self):
        samples = noisy_with_constant_stretch(0.0)
        raw, _ = _one_pass(samples, [3])
        assert raw[0].min() < 0, "no negative residue to clamp"
        result = local_variance(TimeSeries(samples), 3)
        assert result.variances.min() == 0.0
        assert_public_constructor_agrees(result)

    def test_a_constant_series(self):
        result = local_variance(TimeSeries(np.full(50, 7.0)), 8)
        assert result.zero_floor == 0.0 and not result.variances.any()
        assert_public_constructor_agrees(result)


class TestEstimatePdf:
    @pytest.mark.parametrize("bins", [1, 64, 4096])
    @pytest.mark.parametrize("binning", ["linear", "log"])
    @pytest.mark.parametrize(
        "samples",
        [
            noisy_with_constant_stretch(123456.789),
            np.random.default_rng(8).normal(0.0, 1e-150, 5000),
            # Every variance at or below the floor, which is 0, or positive
            # where the mean of the samples is inexact.
            np.full(500, 7.0),
            np.full(500, 1 / 3),
        ],
        ids=["stretch", "tiny", "constant", "inexact-mean"],
    )
    def test_both_binnings(self, samples, binning, bins):
        variances = local_variance(TimeSeries(samples), 9)
        assert_public_constructor_agrees(estimate_pdf(variances, bins, binning))

    @pytest.mark.parametrize("bins", [1, 64, 4096])
    def test_a_sequence_of_values(self, bins):
        values = list(np.random.default_rng(9).exponential(1.0, 3000)) + [0.0]
        assert_public_constructor_agrees(estimate_pdf(values, bins))

    def test_all_at_or_below_the_floor(self):
        variances = local_variance(TimeSeries(np.full(500, 1 / 3)), 9)
        assert 0 < variances.zero_floor and variances.variances.max() <= variances.zero_floor
        assert estimate_pdf(variances, 4, "log").masses.tolist() == [1.0, 0.0, 0.0, 0.0]


class TestReadCsv:
    @pytest.mark.parametrize("timed", [False, True])
    @pytest.mark.parametrize("split", [False, True])
    def test_value_and_timed_files(self, monkeypatch, tmp_path, timed, split):
        samples = np.random.default_rng(4).normal(0.0, 3.0, 400)
        source = TimeSeries(samples, times=np.arange(400) / 4 if timed else None)
        path = tmp_path / "in.csv"
        path.write_bytes(series_csv_bytes(source))
        ranges, planned = [], series_module._ranges

        def spy(*args):
            ranges.append(planned(*args))
            return ranges[-1]

        monkeypatch.setattr(series_module, "_ranges", spy)
        monkeypatch.setattr(series_module, "usable_cpus", lambda: 1)
        if split:
            # The first block ends at the header, so the rows after it split.
            monkeypatch.setattr(series_module, "_BLOCK_BYTES", len(b"t,value\n" if timed else b"value\n"))
            monkeypatch.setattr(series_module, "_RANGE_BYTES", 256)
        for read in (read_csv(path), read_csv(io.BytesIO(path.read_bytes()))):
            assert read == source
            assert_public_constructor_agrees(read)
        assert [len(found) > 1 for found in ranges] == [split, False]


class TestGenerator:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_sigmas=1),
            dict(num_sigmas=8),
            dict(num_sigmas=8, shuffle_segments=True),
            dict(num_sigmas=16, spacing="logarithmic", sigma_min=1e-3, sigma_max=1e3),
            dict(num_sigmas=3, sigma_min=5e-324, sigma_max=2e-323),
        ],
    )
    def test_sigma_grids(self, kwargs):
        series = generate_segmented(SegmentedGeneratorConfig(total_samples=4099, seed=2, **kwargs))
        assert_public_constructor_agrees(series)
