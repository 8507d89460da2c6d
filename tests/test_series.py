"""Generator and CSV contracts: partitioning, determinism, round trips."""

import contextlib
import errno
import io
import os
import re
import stat
import threading
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetquant import (
    ConfigurationError,
    IngestionError,
    LocalVarianceSeries,
    MeasureConfig,
    ParameterError,
    ProbabilityDistribution,
    SegmentedGeneratorConfig,
    SweepConfig,
    TimeSeries,
    distribution_csv_bytes,
    estimate_pdf,
    format_float,
    generate_segmented,
    local_variance,
    read_csv,
    read_distribution_csv,
    run_sweep,
    segment_lengths,
    series_csv_bytes,
    sigma_values,
    write_csv,
)
from hetquant import series as series_module
from hetquant.series import SPACINGS


class TestSegmentLengths:
    def test_equal_partition(self):
        assert segment_lengths(1024, 4) == [256, 256, 256, 256]

    def test_remainder_goes_to_leading_segments(self):
        assert segment_lengths(10, 3) == [4, 3, 3]
        assert segment_lengths(7, 4) == [2, 2, 2, 1]

    def test_lengths_sum_and_balance(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            total = int(rng.integers(1, 5000))
            parts = int(rng.integers(1, total + 1))
            lengths = segment_lengths(total, parts)
            assert sum(lengths) == total
            assert max(lengths) - min(lengths) <= 1


class TestSigmaGrid:
    def test_spacing_names_and_order(self):
        assert SPACINGS == ("linear", "logarithmic")

    def test_single_segment_uses_sigma_min(self):
        config = SegmentedGeneratorConfig(total_samples=8, num_sigmas=1, sigma_min=0.7)
        assert sigma_values(config).tolist() == [0.7]

    def test_linear_grid_hits_endpoints_exactly(self):
        config = SegmentedGeneratorConfig(
            total_samples=100, num_sigmas=7, sigma_min=0.3, sigma_max=5.0, spacing="linear"
        )
        grid = sigma_values(config)
        assert grid[0] == 0.3
        assert grid[-1] == 5.0
        np.testing.assert_allclose(np.diff(grid), np.diff(grid)[0], rtol=1e-12)

    def test_logarithmic_grid_has_constant_ratio(self):
        config = SegmentedGeneratorConfig(
            total_samples=100,
            num_sigmas=5,
            sigma_min=0.125,
            sigma_max=8.0,
            spacing="logarithmic",
        )
        grid = sigma_values(config)
        ratios = grid[1:] / grid[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        np.testing.assert_allclose(grid[[0, -1]], [0.125, 8.0], rtol=1e-12)


def per_segment_series(config: SegmentedGeneratorConfig) -> np.ndarray:
    """The series drawn segment by segment, each with ``rng.normal(0.0,
    sigma, length)`` from the generator's seeded stream."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, config.num_sigmas]))
    sigmas = sigma_values(config)
    if config.shuffle_segments:
        sigmas = rng.permutation(sigmas)
    lengths = segment_lengths(config.total_samples, config.num_sigmas)
    return np.concatenate([rng.normal(0.0, sigma, length) for sigma, length in zip(sigmas, lengths)])


class TestGenerator:
    @pytest.mark.parametrize("shuffle", [False, True], ids=["ordered", "shuffled"])
    @pytest.mark.parametrize("spacing", SPACINGS)
    @pytest.mark.parametrize("num_sigmas", [1, 3, 7, 64])
    def test_bits_are_those_of_per_segment_normal_draws(self, num_sigmas, spacing, shuffle):
        """The generator's bits against a reference that draws each segment
        with ``rng.normal``; 1,000 rows split into uneven segments for k = 3,
        7 and 64."""
        config = SegmentedGeneratorConfig(
            total_samples=1000, num_sigmas=num_sigmas, spacing=spacing,
            shuffle_segments=shuffle, seed=num_sigmas,
        )
        assert generate_segmented(config).samples.tobytes() == per_segment_series(config).tobytes()

    def test_products_that_round_to_zero_are_positive_zeros(self):
        """Sigmas of a few subnormal steps round many sigma * z to a zero,
        which rng.normal returns as 0.0 + (-0.0) = +0.0 where z < 0."""
        config = SegmentedGeneratorConfig(
            total_samples=1000, num_sigmas=3, sigma_min=5e-324, sigma_max=2e-323, seed=4
        )
        reference = per_segment_series(config)
        zeros = reference == 0.0
        assert zeros.any() and not np.signbit(reference[zeros]).any()
        assert generate_segmented(config).samples.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("num_sigmas", [1, 3])
    def test_products_past_float64_raise_parameter_error(self, num_sigmas):
        """Sigmas near the float64 limit make some sigma * z overflow: the
        series reports it as not finite, and numpy warns of nothing."""
        config = SegmentedGeneratorConfig(
            total_samples=1000, num_sigmas=num_sigmas, sigma_min=1e308, sigma_max=1.7e308
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="^samples must be finite$"):
                generate_segmented(config)

    def test_identical_config_is_bit_identical(self):
        config = SegmentedGeneratorConfig(total_samples=2048, num_sigmas=8, seed=123)
        a = generate_segmented(config)
        b = generate_segmented(config)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_output(self):
        base = dict(total_samples=512, num_sigmas=4)
        a = generate_segmented(SegmentedGeneratorConfig(seed=1, **base))
        b = generate_segmented(SegmentedGeneratorConfig(seed=2, **base))
        assert not np.array_equal(a.samples, b.samples)

    def test_output_length_and_metadata(self):
        config = SegmentedGeneratorConfig(total_samples=1000, num_sigmas=3, seed=5)
        series = generate_segmented(config)
        assert len(series) == 1000

    def test_unit_sigma_sample_variance(self):
        config = SegmentedGeneratorConfig(
            total_samples=4096, num_sigmas=1, sigma_min=1.0, sigma_max=1.0, seed=7
        )
        series = generate_segmented(config)
        assert 0.9 < series.samples.var() < 1.1

    def test_segments_carry_distinct_scales(self):
        config = SegmentedGeneratorConfig(
            total_samples=20000, num_sigmas=2, sigma_min=0.5, sigma_max=8.0, seed=3
        )
        series = generate_segmented(config)
        first, second = series.samples[:10000], series.samples[10000:]
        ratio = second.var() / first.var()
        expected = (8.0 / 0.5) ** 2
        assert 0.8 * expected < ratio < 1.2 * expected

    def test_shuffle_permutes_but_preserves_scales(self):
        base = dict(
            total_samples=40000, num_sigmas=4, sigma_min=0.5, sigma_max=4.0, seed=9
        )
        plain = generate_segmented(SegmentedGeneratorConfig(**base))
        mixed = generate_segmented(
            SegmentedGeneratorConfig(shuffle_segments=True, **base)
        )
        assert not np.array_equal(plain.samples, mixed.samples)

        def segment_stds(series):
            return sorted(part.std() for part in np.split(series.samples, 4))

        np.testing.assert_allclose(
            segment_stds(plain), segment_stds(mixed), rtol=0.15
        )

    @pytest.mark.parametrize("num_sigmas", [1, 20])
    def test_peak_is_the_samples_and_their_mask(self, num_sigmas):
        """One draw, scaled in place and taken by the series without a copy,
        plus a one-byte finiteness mask; a draw per segment or a copy would
        add up to 8 bytes per row."""
        rows = 1 << 20
        config = SegmentedGeneratorConfig(total_samples=rows, num_sigmas=num_sigmas, seed=1)
        tracemalloc.start()
        try:
            series = generate_segmented(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(series) == rows
        assert series.samples.base is None
        assert peak < 12 * rows

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(total_samples=0, num_sigmas=1),
            dict(total_samples=4, num_sigmas=5),
            dict(total_samples=4, num_sigmas=0),
            dict(total_samples=4, num_sigmas=1, sigma_min=0.0),
            dict(total_samples=4, num_sigmas=1, sigma_min=-1.0),
            dict(total_samples=4, num_sigmas=2, sigma_min=2.0, sigma_max=1.0),
            dict(total_samples=4, num_sigmas=1, sigma_max=float("inf")),
            dict(total_samples=4, num_sigmas=1, sigma_max=float("nan")),
            dict(total_samples=4, num_sigmas=1, spacing="cubic"),
            dict(total_samples=4, num_sigmas=1, seed=-1),
            dict(total_samples=4, num_sigmas=1, seed=2**64),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SegmentedGeneratorConfig(**kwargs)


class TestTimeSeries:
    def test_rejects_non_finite_samples(self):
        with pytest.raises(ParameterError):
            TimeSeries(np.array([1.0, np.nan]))
        with pytest.raises(ParameterError):
            TimeSeries(np.array([np.inf]))

    def test_rejects_empty_and_multidimensional(self):
        with pytest.raises(ParameterError):
            TimeSeries(np.array([]))
        with pytest.raises(ParameterError):
            TimeSeries(np.zeros((2, 2)))

    def test_samples_are_immutable(self):
        series = TimeSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            series.samples[0] = 5.0

    def test_a_writeable_source_is_copied(self):
        """Writing to the array a container was built from, or to the array
        under a read-only view it was built from, changes neither the series
        nor the variances."""
        source = np.array([1.0, 2.0, 4.0])
        view = source[:]
        view.flags.writeable = False
        built = [
            TimeSeries(source).samples,
            TimeSeries(view).samples,
            TimeSeries(source, times=source).times,
            LocalVarianceSeries(source, window=2).variances,
            LocalVarianceSeries(view, window=2).variances,
        ]
        source[:] = [8.0, 16.0, 32.0]
        for array in built:
            assert array.tolist() == [1.0, 2.0, 4.0]
            assert not array.flags.writeable

    def test_a_read_only_array_that_owns_its_data_is_copied(self):
        """A public constructor copies even a read-only array that owns its
        data: an owner that makes it writeable again and writes to it changes
        neither container."""
        owned = np.array([1.0, 2.0, 4.0])
        owned.flags.writeable = False
        built = [TimeSeries(owned).samples, LocalVarianceSeries(owned, window=2).variances]
        assert all(array is not owned and array.base is None for array in built)
        owned.flags.writeable = True
        owned[0] = 8.0
        for array in built:
            assert array.tolist() == [1.0, 2.0, 4.0]
            assert not array.flags.writeable
        owned.flags.writeable = False
        # The checks still run on it.
        owned_nan = np.array([1.0, np.nan])
        owned_nan.flags.writeable = False
        with pytest.raises(ParameterError, match="samples must be finite"):
            TimeSeries(owned_nan)
        negative = np.array([1.0, -1.0])
        negative.flags.writeable = False
        with pytest.raises(ParameterError, match="variances must be nonnegative"):
            LocalVarianceSeries(negative, window=2)
        # Other dtypes, subclasses and matrices are copied or rejected as before.
        single = np.array([1.0, 2.0], dtype=np.float32)
        single.flags.writeable = False
        assert TimeSeries(single).samples.dtype == np.float64
        table = np.zeros((2, 2))
        table.flags.writeable = False
        with pytest.raises(ParameterError, match="one-dimensional"):
            TimeSeries(table)

    def test_times_must_match_length(self):
        with pytest.raises(ParameterError):
            TimeSeries(np.array([1.0, 2.0]), times=np.array([0.0]))

    def test_equality_compares_samples_and_times(self):
        samples = np.array([1.0, 2.0])
        series = TimeSeries(samples, times=np.array([0.0, 1.0]))
        assert series == TimeSeries(samples, times=np.array([0.0, 1.0]))
        assert series != TimeSeries(samples, times=np.array([0.0, 2.0]))
        assert series != TimeSeries(samples)
        assert series != samples.tolist()
        assert series.__eq__(samples) is NotImplemented


class TestFloatFormatting:
    def test_integral_floats_drop_the_point(self):
        assert format_float(1.0) == "1"
        assert format_float(-3.0) == "-3"
        assert format_float(2.5) == "2.5"
        assert format_float(0.1) == "0.1"

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(42)
        values = np.concatenate(
            [
                rng.normal(0, 1, 300),
                rng.normal(0, 1e12, 300),
                rng.normal(0, 1e-12, 300),
            ]
        )
        for x in values:
            assert float(format_float(x)) == x, f"{x!r} did not survive formatting"


MALFORMED = [
    (b"", "empty"),
    (b"value\n", "no data rows"),
    (b"wrong\n1\n", "header"),
    (b"value\n1.0\nabc\n", "row 2"),
    (b"value\nabc\n", "row 1"),
    (b"value\n1.0\n2.0,3.0\n", "row 2"),
    (b"t,value\n0\n", "row 1"),
    (b"value\ninf\n", "row 1"),
    (b"value\n1.0\nnan\n", "row 2"),
    (b"value\n1.0\n\n2.0\n", "row 2"),
]


class TestCsv:
    def test_write_canonical_bytes(self):
        series = TimeSeries(np.array([1.0, 2.0]))
        assert series_csv_bytes(series) == b"value\n1\n2\n"

    def test_read_single_column(self):
        series = read_csv(io.BytesIO(b"value\n1.0\n2.0\n"))
        assert series.samples.tolist() == [1.0, 2.0]
        assert series.times is None

    def test_round_trip_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 200))
            series = TimeSeries(rng.normal(0, 100, n))
            buffer = io.BytesIO()
            write_csv(series, buffer)
            buffer.seek(0)
            assert read_csv(buffer) == series

    def test_two_column_round_trip_preserves_t(self):
        series = TimeSeries(
            np.array([5.0, 6.5, -1.0]), times=np.array([0.0, 0.5, 1.0])
        )
        buffer = io.BytesIO()
        write_csv(series, buffer)
        assert buffer.getvalue() == b"t,value\n0,5\n0.5,6.5\n1,-1\n"
        buffer.seek(0)
        back = read_csv(buffer)
        assert back == series
        assert back.times is not None

    def test_path_round_trip(self, tmp_path):
        series = TimeSeries(np.array([0.25, -0.75]))
        target = tmp_path / "series.csv"
        write_csv(series, target)
        assert read_csv(target) == series

    @pytest.mark.parametrize("payload, fragment", MALFORMED)
    def test_ingestion_errors_name_the_row(self, payload, fragment):
        with pytest.raises(IngestionError, match=fragment):
            read_csv(io.BytesIO(payload))


def reference_read_csv(raw: bytes):
    """The row-by-row parser that decoded the whole input before the block
    parser replaced it, kept as the oracle for accepted values and errors."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"input is not valid UTF-8: {exc}") from None
    lines = text.splitlines()
    if not lines:
        raise IngestionError("empty file")
    header = lines[0].strip()
    if header == "value":
        has_times = False
    elif header == "t,value":
        has_times = True
    else:
        raise IngestionError(f"header must be 'value' or 't,value', got {header!r}")

    def parse(token, row, column):
        try:
            value = float(token)
        except ValueError:
            raise IngestionError(f"row {row}: {column} is not a number: {token!r}") from None
        if not np.isfinite(value):
            raise IngestionError(f"row {row}: {column} is not finite: {token!r}")
        return value

    values, times = [], []
    for row, line in enumerate(lines[1:], start=1):
        line = line.strip()
        if not line:
            raise IngestionError(f"row {row}: blank line")
        fields = line.split(",")
        expected = 2 if has_times else 1
        if len(fields) != expected:
            raise IngestionError(f"row {row}: expected {expected} column(s), got {len(fields)}")
        if has_times:
            times.append(parse(fields[0], row, "t"))
            values.append(parse(fields[1], row, "value"))
        else:
            values.append(parse(fields[0], row, "value"))
    if not values:
        raise IngestionError("no data rows")
    return np.array(values), np.array(times) if has_times else None


def outcome(parse, raw: bytes):
    """The bits a parser returns for ``raw``, or the message it raises."""
    try:
        samples, times = parse(raw)
    except IngestionError as exc:
        return "error", str(exc)
    return "ok", samples.tobytes(), None if times is None else times.tobytes()


def block_outcome(raw: bytes, block_bytes: int):
    def parse(data):
        series = read_csv(io.BytesIO(data))
        return series.samples, series.times

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_module, "_BLOCK_BYTES", block_bytes)
        return outcome(parse, raw)


EQUIVALENCE_CASES = [payload for payload, _ in MALFORMED] + [
    b"value\r\n1\r\n2.5\r\n",
    b"value\r1\r2.5\r",
    b"value\r\n1\r2.5\n3\r\n",
    b"value\x0c1\x0c2\n",
    "value\u20281\u20282\u2029".encode(),
    "value\x851\n".encode(),
    b"value\x1c1\x1d2\x1e3\x0b4\n",
    "value\n\u0661\n\uff11\uff12\n\xa01\n\u30002 \n".encode(),
    "value\n1\xe9\n".encode(),
    "t,value\n\u0660,\u0661\n".encode(),
    b"value\n1\n2",
    b"value\n1\n2\r",
    b"value",
    b"t,value",
    b"t,value\r\n",
    b"\n",
    b"\r\n",
    b"  \n1\n",
    b" value \n1\n",
    b"value\n1_0\n",
    b"value\n1__0\n",
    b"value\nnan\n",
    b"value\n1e400\n",
    b"value\n-1e400\n",
    b"value\n1e-400\n-0\n5e-324\n",
    b"value\n 1.5\t\n",
    b"value\n\x1f1\n",
    b"value\n1\x1f\n",
    b"value\n   \n",
    b"value\n0x10\n",
    b"t,value\n0,1\n1,2\n",
    b"t,value\n0,1\n1\n",
    b"t,value\n0,1,2\n",
    b"t,value\n0,nan\n",
    b"t,value\nnan,0\n",
    b"t,value\n0,\n",
    b"t,value\n,1\n",
    b"t,value\n 0 , 1 \n",
    b"t,value\n\x1f0,1\x1f\n",
    b"t,value\n0\x1f,1\n",
    b"t,value\n1e400,1\n",
    # Field counts that cancel out across a block: as many commas as rows.
    b"t,value\n0,1,2\n3\n",
    b"t,value\n0\n1,2,3\n",
    # Errors, and rows only the row loop accepts, past the first block.
    b"value\n" + b"1.25\n" * 40 + b"x\n" + b"2\n" * 10,
    b"value\n" + b"1.25\n" * 40 + b"inf\n",
    b"value\n" + b"1.25\n" * 40 + b"1,2\n",
    b"t,value\n" + b"0,1\n" * 40 + b"0,1,2\n",
    b"t,value\n" + b"0,1\n" * 40 + b"\n0,1\n",
    b"t,value\n" + b"0,1\n" * 40 + b"0,1e400\n",
    b"t,value\n" + b"0,1\n" * 40 + b"0,1,2\n3\n",
    b"t,value\n" + b"0,1\n" * 40 + b"0\n1,2,3\n",
    b"value\n" + b"1\n" * 30 + b"\x1f2\n" + b"3\n" * 30,
    # Invalid UTF-8, at the start, in later blocks, and after a row error.
    b"\xffvalue\n1\n",
    b"value\n1\n\xff\n",
    b"value\n" + b"1\n" * 40 + b"\xe2\x82\n",
    b"value\n" + b"1\n" * 40 + b"\xe2\x82",
    b"value\n" + b"1\n" * 40 + b"\xed\xa0\x80\n",
    b"value\nabc\n" + b"1\n" * 30 + b"\xff\n",
    b"wrong\n" + b"1\n" * 30 + b"\xc3\n",
]


class TestBlockParserMatchesRowParser:
    """Every input gives the row parser's bits or its exact error message,
    wherever the block boundaries fall."""

    BLOCK_SIZES = (1, 2, 3, 5, 8, 13, 64, 1 << 20)

    @pytest.mark.parametrize("raw", EQUIVALENCE_CASES)
    def test_same_outcome_at_every_block_size(self, raw):
        expected = outcome(reference_read_csv, raw)
        for block_bytes in self.BLOCK_SIZES:
            assert block_outcome(raw, block_bytes) == expected, block_bytes

    def test_generated_file_with_mixed_line_endings(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(0, 1e3, 3000), [0.0, -0.0, 1e16, 5e-324]])
        endings = rng.choice(["\n", "\r\n", "\r"], size=values.size)
        raw = "value\n" + "".join(repr(x) + e for x, e in zip(values.tolist(), endings))
        expected = outcome(reference_read_csv, raw.encode())
        assert expected[0] == "ok"
        for block_bytes in (7, 97, 4096, 1 << 20):
            assert block_outcome(raw.encode(), block_bytes) == expected

    TOKENS = ["1", "-2.5", " 3 ", "1e400", "nan", "1_0", "\x1f4", "", "x", "0,1", "1,", "\u0661", "5e-324"]
    ENDINGS = ["\n", "\r\n", "\r", "\x0c", "\u2028"]

    @settings(max_examples=300, deadline=None)
    @given(
        header=st.sampled_from(["value", "t,value", " value", "values"]),
        rows=st.lists(
            st.tuples(st.sampled_from(TOKENS), st.sampled_from(TOKENS), st.sampled_from(ENDINGS)),
            max_size=12,
        ),
        bad_byte=st.one_of(st.none(), st.integers(0, 200)),
        block_bytes=st.integers(1, 24),
    )
    def test_random_inputs(self, header, rows, bad_byte, block_bytes):
        timed = header.strip() == "t,value"
        text = header + "\n" + "".join(
            (f"{a},{b}" if timed else a) + ending for a, b, ending in rows
        )
        raw = text.encode()
        if bad_byte is not None:
            at = bad_byte % (len(raw) + 1)
            raw = raw[:at] + b"\xff" + raw[at:]
        assert block_outcome(raw, block_bytes) == outcome(reference_read_csv, raw)


def distribution_outcome(raw: bytes, block_bytes: int):
    """The edge and mass bits ``read_distribution_csv`` returns for ``raw``,
    or the message it raises, with blocks of ``block_bytes``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_module, "_BLOCK_BYTES", block_bytes)
        try:
            dist = read_distribution_csv(io.BytesIO(raw))
        except IngestionError as exc:
            return "error", str(exc)
    return "ok", dist.edges.tobytes(), dist.masses.tobytes()


DISTRIBUTION_ROWS = "".join(f"{i / 4},0.03125\n" for i in range(32)).encode()

DISTRIBUTION_CASES = [
    b"bin_midpoint,mass\n" + DISTRIBUTION_ROWS,
    b"bin_midpoint,mass\r\n" + DISTRIBUTION_ROWS.replace(b"\n", b"\r\n"),
    b"bin_midpoint,mass\r" + DISTRIBUTION_ROWS.replace(b"\n", b"\r"),
    b"bin_midpoint,mass\n" + DISTRIBUTION_ROWS.rstrip(b"\n"),
    b"bin_midpoint,mass\n0.5,0.25\r\n1.5,0.75\r2.5,0\n",
    b" bin_midpoint,mass \n-2.5,1\n",
    # Errors past the first block, and invalid UTF-8 that outranks them.
    b"bin_midpoint,mass\n" + DISTRIBUTION_ROWS + b"99,x\n",
    b"bin_midpoint,mass\n" + DISTRIBUTION_ROWS + b"\n",
    b"bin_midpoint,mass\n" + DISTRIBUTION_ROWS + b"0,0\n",
    b"bin_midpoint,mass\n" + DISTRIBUTION_ROWS + b"99,0.5\n",
    b"bin_midpoint,mass\n" + DISTRIBUTION_ROWS + b"\xff\n",
    b"bin_midpoint,mass\n" + DISTRIBUTION_ROWS + b"\xe2\x82",
    b"bin_midpoint,mass\nx,1\n" + DISTRIBUTION_ROWS + b"\xc3\n",
    # Field counts that cancel out across a block, in the first block and
    # after 40 good rows.
    b"bin_midpoint,mass\n0,1,2\n3\n",
    b"bin_midpoint,mass\n0\n1,2,3\n",
    b"bin_midpoint,mass\n" + b"0,1\n" * 40 + b"0,1,2\n3\n",
    b"bin_midpoint,mass\n" + b"0,1\n" * 40 + b"0\n1,2,3\n",
]


class TestDistributionBlockSizes:
    """``read_distribution_csv`` gives the same bits, or the same message,
    wherever the block boundaries fall."""

    @pytest.mark.parametrize("raw", DISTRIBUTION_CASES)
    def test_same_outcome_at_every_block_size(self, raw):
        whole = distribution_outcome(raw, len(raw) + 1)
        for block_bytes in TestBlockParserMatchesRowParser.BLOCK_SIZES:
            assert distribution_outcome(raw, block_bytes) == whole, block_bytes

    def test_cases_cover_success_and_each_kind_of_error(self):
        outcomes = [distribution_outcome(raw, 1 << 20) for raw in DISTRIBUTION_CASES]
        assert [o[0] for o in outcomes[:6]] == ["ok"] * 6
        assert [o[1] for o in outcomes[6:]] == [
            "row 33: mass is not a number: 'x'",
            "row 33: blank line",
            "bin midpoints must be strictly increasing",
            "masses must sum to 1, got 1.5",
            "input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 418: invalid start byte",
            "input is not valid UTF-8: 'utf-8' codec can't decode bytes in position 418-419: unexpected end of data",
            "input is not valid UTF-8: 'utf-8' codec can't decode byte 0xc3 in position 422: invalid continuation byte",
            "row 1: expected 2 column(s), got 3",
            "row 1: expected 2 column(s), got 1",
            "row 41: expected 2 column(s), got 3",
            "row 41: expected 2 column(s), got 1",
        ]


class TestInvalidUtf8:
    """The UTF-8 error names the byte position in the whole input."""

    LATE_ROWS = 300_000  # 1.2 MB of rows: the bad byte lies past the first block

    SERIES_CASES = [
        (
            b"value\n1\n\xff\n",
            "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte",
        ),
        (
            b"value\n" + b"1.5\n" * LATE_ROWS + b"\xff\n",
            "'utf-8' codec can't decode byte 0xff in position 1200006: invalid start byte",
        ),
        (
            b"value\n" + b"1.5\n" * LATE_ROWS + b"\xe2\x82",
            "'utf-8' codec can't decode bytes in position 1200006-1200007: unexpected end of data",
        ),
        (
            b"value\nabc\n" + b"1.5\n" * LATE_ROWS + b"\xc3(\n",
            "'utf-8' codec can't decode byte 0xc3 in position 1200010: invalid continuation byte",
        ),
    ]
    DISTRIBUTION_CASES = [
        (
            b"bin_midpoint,mass\n0,1\n\xff\n",
            "'utf-8' codec can't decode byte 0xff in position 22: invalid start byte",
        ),
        (
            b"bin_midpoint,mass\n" + b"0,0\n" * LATE_ROWS + b"\xe2\x82",
            "'utf-8' codec can't decode bytes in position 1200018-1200019: unexpected end of data",
        ),
    ]

    @pytest.mark.parametrize(
        "raw, message",
        SERIES_CASES,
        ids=["early-start-byte", "late-start-byte", "late-end-of-data", "late-continuation-byte"],
    )
    def test_read_csv_message(self, raw, message):
        with pytest.raises(IngestionError) as excinfo:
            read_csv(io.BytesIO(raw))
        assert str(excinfo.value) == f"input is not valid UTF-8: {message}"

    @pytest.mark.parametrize(
        "raw, message", DISTRIBUTION_CASES, ids=["early-start-byte", "late-end-of-data"]
    )
    def test_read_distribution_csv_message(self, raw, message):
        with pytest.raises(IngestionError) as excinfo:
            read_distribution_csv(io.BytesIO(raw))
        assert str(excinfo.value) == f"input is not valid UTF-8: {message}"

    def test_late_inputs_span_more_than_one_block(self):
        assert 4 * self.LATE_ROWS > series_module._BLOCK_BYTES

    def test_message_is_pythons_own(self):
        raw = b"value\n" + b"1.5\n" * self.LATE_ROWS + b"\xed\xa0\x80\n"
        with pytest.raises(UnicodeDecodeError) as decoded:
            raw.decode("utf-8")
        with pytest.raises(IngestionError) as excinfo:
            read_csv(io.BytesIO(raw))
        assert str(excinfo.value) == f"input is not valid UTF-8: {decoded.value}"


class TestDecodedOnce:
    """A read decodes each input byte once, in the block that ``_blocks``
    cuts it in."""

    @staticmethod
    def decoded(monkeypatch) -> list[int]:
        """The byte counts of the ``_decode`` calls that follow."""
        decoded: list[int] = []
        decode = series_module._decode

        def spy(data: bytes, offset: int) -> str:
            decoded.append(len(data))
            return decode(data, offset)

        monkeypatch.setattr(series_module, "_decode", spy)
        return decoded

    @pytest.mark.parametrize("source", ["stream", "path"])
    @pytest.mark.parametrize("ending", [b"\n", b"\r\n"])
    @pytest.mark.parametrize("rows", [40, 1 << 15])
    def test_each_byte_is_decoded_once(self, monkeypatch, tmp_path, source, ending, rows):
        series = generate_segmented(SegmentedGeneratorConfig(total_samples=rows, num_sigmas=4, seed=1))
        raw = series_csv_bytes(series).replace(b"\n", ending)
        decoded = self.decoded(monkeypatch)
        assert read_csv(io.BytesIO(raw) if source == "stream" else write_file(tmp_path, raw)) == series
        assert sum(decoded) == len(raw)

    def test_a_split_read_decodes_each_byte_once(self, monkeypatch, tmp_path):
        """The first block, decoded to find the header, is parsed here, and
        the first range starts after it. With one usable CPU the ranges are
        parsed in this process, where the spy sees them."""
        series = generate_segmented(SegmentedGeneratorConfig(total_samples=1 << 18, num_sigmas=4, seed=1))
        raw = series_csv_bytes(series)
        monkeypatch.setattr(series_module, "usable_cpus", lambda: 1)
        ranges, planned = [], series_module._ranges

        def spy(*args):
            ranges.append(planned(*args))
            return ranges[-1]

        monkeypatch.setattr(series_module, "_ranges", spy)
        decoded = self.decoded(monkeypatch)
        assert read_csv(write_file(tmp_path, raw)) == series
        assert len(ranges[0]) > 1
        assert sum(decoded) == len(raw) == 5_070_636


def header_block(patch, raw: bytes, block_bytes: int | None = None) -> None:
    """Make a read of ``raw`` take its first block in the bytes of its first
    line, so that a header line that ends in ``\\n`` ends the block and a
    split starts after it, and read every later block in ``block_bytes``
    (None: as usual)."""
    later = block_bytes or series_module._BLOCK_BYTES
    ranges = series_module._ranges

    def after_the_first_block(*args):
        patch.setattr(series_module, "_BLOCK_BYTES", later)
        return ranges(*args)

    patch.setattr(series_module, "_BLOCK_BYTES", len(raw.splitlines(keepends=True)[0]) if raw else later)
    patch.setattr(series_module, "_ranges", after_the_first_block)


@contextlib.contextmanager
def in_ranges(range_bytes: int, raw: bytes | None, block_bytes: int | None = None):
    """Split a file's data rows into ranges of ``range_bytes``, parsed in
    this process. A read of ``raw`` takes its first block as
    ``header_block`` says and later ones of ``block_bytes``; with ``raw``
    None, every block is as usual. Gives the list of the range counts of
    the reads that split."""
    splits: list[int] = []

    def in_process(fn, items, workers):
        splits.append(len(items))
        return map(fn, items)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_module, "_RANGE_BYTES", range_bytes)
        patch.setattr(series_module, "ordered_map", in_process)
        if raw is not None:
            header_block(patch, raw, block_bytes)
        yield splits


def range_bytes(raw: bytes, count: int) -> int:
    """A range size that splits the rows after the first line of ``raw``
    into about ``count`` ranges."""
    header = raw.splitlines(keepends=True)[0] if raw else b""
    return max(1, (len(raw) - len(header)) // count)


def read_path(read, raw: bytes, path):
    """``read`` of ``raw`` written to ``path``: ``read_csv``'s or
    ``read_distribution_csv``'s arrays as bits, or the message it raises."""
    path.write_bytes(raw)
    try:
        result = read(path)
    except IngestionError as exc:
        return "error", str(exc)
    if isinstance(result, TimeSeries):
        return "ok", result.samples.tobytes(), None if result.times is None else result.times.tobytes()
    return "ok", result.edges.tobytes(), result.masses.tobytes()


def range_sizes(raw: bytes) -> tuple[int, ...]:
    """Range sizes that read ``raw`` as one range, two, three, one per few
    rows and one per row."""
    return (len(raw) + 1, range_bytes(raw, 2), range_bytes(raw, 3), 12, 1)


def nominal_cut(raw: bytes, header: bytes = b"value\n") -> int:
    """The offset at which a split into two ranges looks for a line end."""
    return len(header) + (len(raw) - len(header)) // 2


# Inputs whose line ends fall at the nominal cuts, or whose errors fall in
# different ranges: (raw, how many ranges it is split into). 0 marks a bad
# header: the file is not split, though its rows would make three ranges.
CUT_CASES = [
    # A lone \r, then a \r\n pair, at the cut of a split in two.
    (b"value\n" + b"1\n" * 10 + b"7\r" + b"8\n" * 10, 2),
    (b"value\n" + b"1\n" * 10 + b"7\r\n" + b"8\n" * 10, 2),
    # A \r\n pair that straddles the cut.
    (b"value\n" + b"1\n" * 10 + b"7\r\n" + b"8\n" * 11, 2),
    # A blank line just after the cut: its row number counts the first range.
    (b"value\n" + b"1\n" * 10 + b"\n" + b"2\n" * 9, 2),
    (b"t,value\n" + b"0,1\n" * 10 + b"\r\n" + b"1,2\n" * 10, 2),
    # A row error in the first of three ranges and invalid UTF-8 in the third.
    (b"value\nx\n" + b"1\n" * 40 + b"\xff\n" + b"1\n" * 3, 3),
    (b"value\n" + b"1\n" * 3 + b"\xff\n" + b"1\n" * 40 + b"x\n", 3),
    # A row error in the last range only; a header error and invalid UTF-8 late.
    (b"value\n" + b"1\n" * 40 + b"1e400\n", 3),
    (b"wrong\n" + b"1\n" * 40 + b"\xc3\n", 0),
    (b"wrong\n" + b"1\n" * 40, 0),
]


class TestByteRanges:
    """A file split into byte ranges gives the bits or the message of the
    row parser, or of a stream read, however many ranges it is split into."""

    def test_cut_cases_put_their_line_ends_at_the_cut(self):
        lone, pair, straddle, blank = (raw for raw, _ in CUT_CASES[:4])
        assert lone[nominal_cut(lone) : nominal_cut(lone) + 2] == b"\r8"
        assert pair[nominal_cut(pair) : nominal_cut(pair) + 2] == b"\r\n"
        assert straddle[nominal_cut(straddle) - 1 : nominal_cut(straddle) + 1] == b"\r\n"
        assert blank[nominal_cut(blank) : nominal_cut(blank) + 2] == b"\n\n"

    @pytest.mark.parametrize("raw, count", CUT_CASES)
    def test_cut_cases_split_as_intended(self, raw, count, tmp_path):
        with in_ranges(range_bytes(raw, count or 3), raw, block_bytes=5) as splits:
            read_path(read_csv, raw, tmp_path / "in.csv")
        assert splits == ([count] if count else [])

    @pytest.mark.parametrize("raw", EQUIVALENCE_CASES + [raw for raw, _ in CUT_CASES])
    def test_series_cases(self, raw, tmp_path):
        expected = outcome(reference_read_csv, raw)
        for size in range_sizes(raw):
            for block_bytes in (5, None):
                with in_ranges(size, raw, block_bytes):
                    assert read_path(read_csv, raw, tmp_path / "in.csv") == expected, size

    @pytest.mark.parametrize("raw", DISTRIBUTION_CASES)
    def test_distribution_cases(self, raw, tmp_path):
        whole = distribution_outcome(raw, len(raw) + 1)
        for size in range_sizes(raw):
            for block_bytes in (5, None):
                with in_ranges(size, raw, block_bytes):
                    got = read_path(read_distribution_csv, raw, tmp_path / "in.csv")
                assert got == whole, size

    @pytest.mark.parametrize(
        "raw, message",
        TestInvalidUtf8.SERIES_CASES + TestInvalidUtf8.DISTRIBUTION_CASES,
        ids=[
            "series-early-start-byte",
            "series-late-start-byte",
            "series-late-end-of-data",
            "series-late-continuation-byte",
            "distribution-early-start-byte",
            "distribution-late-end-of-data",
        ],
    )
    def test_invalid_utf8_cases(self, raw, message, tmp_path):
        read = read_csv if raw.startswith(b"value") else read_distribution_csv
        # A late bad byte lies many blocks on: the first block ends at the
        # header and the rows after it split. An early one lies in the first
        # block, read as usual, which raises before anything is split.
        late = len(raw) > series_module._BLOCK_BYTES
        for count in (1, 2, 3, 64):
            with in_ranges(range_bytes(raw, count), raw if late else None) as splits:
                assert read_path(read, raw, tmp_path / "in.csv") == (
                    "error", f"input is not valid UTF-8: {message}"
                ), count
            assert splits == ([count] if late and count > 1 else [])

    @pytest.mark.parametrize(
        "raw",
        [
            # The tail, then a middle stretch, has no \n or \r: its lines end
            # with U+2028, which str.splitlines knows and a cut does not.
            b"value\n" + b"1\n" * 200 + "2\u2028".encode() * 100,
            b"value\n" + b"1\n" * 100 + "2\u2028".encode() * 100 + b"3\n" * 100,
        ],
        ids=["tail", "middle"],
    )
    def test_each_byte_is_scanned_for_a_cut_at_most_once(self, raw, tmp_path, monkeypatch):
        scanned: list[tuple[int, int]] = []
        next_cut = series_module._next_cut

        def spy(handle, position):
            cut = next_cut(handle, position)
            scanned.append((position, cut))
            return cut

        monkeypatch.setattr(series_module, "_next_cut", spy)
        expected = outcome(reference_read_csv, raw)
        assert expected[0] == "ok"
        with in_ranges(range_bytes(raw, 64), raw) as splits:
            assert read_path(read_csv, raw, tmp_path / "in.csv") == expected
        assert 2 <= splits[0] < 64
        assert sum(cut - position for position, cut in scanned) <= len(raw)

    def test_generated_file_with_mixed_line_endings(self, tmp_path):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(0, 1e3, 3000), [0.0, -0.0, 1e16, 5e-324]])
        endings = rng.choice(["\n", "\r\n", "\r"], size=values.size)
        raw = ("value\n" + "".join(repr(x) + e for x, e in zip(values.tolist(), endings))).encode()
        expected = outcome(reference_read_csv, raw)
        assert expected[0] == "ok"
        for count in (2, 3, 7, 1000):
            with in_ranges(range_bytes(raw, count), raw) as splits:
                assert read_path(read_csv, raw, tmp_path / "in.csv") == expected
            assert count <= splits[0] <= 1.01 * count


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1.0, -3.0, 1e16, -1e16, 5e-324, 1e22, 2.0**53, 0.1]),
)


def per_value_csv(header, *columns):
    rows = (",".join(format_float(x) for x in row) + "\n" for row in zip(*columns))
    return (header + "\n" + "".join(rows)).encode()


class TestBlockFormatter:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(FINITE, min_size=1, max_size=24),
        format_rows=st.integers(1, 8),
        timed=st.booleans(),
    )
    def test_matches_per_value_format_float(self, values, format_rows, timed):
        samples = np.array(values)
        times = samples[::-1] if timed else None
        series = TimeSeries(samples, times=times)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(series_module, "_FORMAT_ROWS", format_rows)
            data = series_csv_bytes(series)
        if timed:
            assert data == per_value_csv("t,value", times, samples)
        else:
            assert data == per_value_csv("value", samples)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("timed", [False, True])
    def test_lengths_around_the_block_size(self, offset, timed):
        n = series_module._FORMAT_ROWS + offset
        rng = np.random.default_rng(n)
        samples = rng.normal(0, 1e3, n)
        samples[rng.integers(0, n, 200)] = rng.integers(-50, 50, 200)
        samples[-3:] = [-0.0, 1e16, 5e-324]
        times = np.arange(n) * 0.5 if timed else None
        data = series_csv_bytes(TimeSeries(samples, times=times))
        if timed:
            assert data == per_value_csv("t,value", times, samples)
        else:
            assert data == per_value_csv("value", samples)

    @pytest.mark.parametrize("format_rows", [3, 1 << 16])
    def test_distribution_bytes_match_per_value_format(self, format_rows):
        rng = np.random.default_rng(9)
        counts = rng.integers(0, 5, 4096).astype(float)
        counts[0] += 1
        dist = ProbabilityDistribution(np.arange(4097.0) - 7, counts / counts.sum())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(series_module, "_FORMAT_ROWS", format_rows)
            data = distribution_csv_bytes(dist)
        assert data == per_value_csv("bin_midpoint,mass", dist.midpoints, dist.masses)


EXTREMES = [3.0, -0.0, 1e16, 5e-324, 1.7976931348623157e308, -42.0, 0.0]


def spanning_series(timed: bool, rows: int = 100) -> TimeSeries:
    """Random values, integral ones, and the extremes of the float format."""
    rng = np.random.default_rng(rows)
    samples = rng.normal(0, 1e3, rows)
    samples[::9] = rng.integers(-50, 50, samples[::9].size)
    samples[-len(EXTREMES):] = EXTREMES
    return TimeSeries(samples, times=np.arange(rows) * 0.25 - 3 if timed else None)


def series_oracle(series: TimeSeries) -> bytes:
    if series.times is None:
        return per_value_csv("value", series.samples)
    return per_value_csv("t,value", series.times, series.samples)


def refuse_pool(workers):
    raise AssertionError(f"a pool of {workers} was started")


@pytest.fixture
def pools(monkeypatch):
    """Blocks of 7 rows; the list of the worker counts of the pools started."""
    monkeypatch.setattr(series_module, "_FORMAT_ROWS", 7)
    started = []
    real_pool = series_module.process_pool
    monkeypatch.setattr(
        series_module, "process_pool", lambda workers: started.append(workers) or real_pool(workers)
    )
    return started


class TestPooledEncoding:
    """Blocks formatted in a process pool give the serial encoder's bytes."""

    @staticmethod
    def serial_and_pooled(monkeypatch, pools, encode):
        """``encode()`` on one usable CPU and then on two; checks that only
        the second started a pool."""
        monkeypatch.setattr(series_module, "usable_cpus", lambda: 1)
        serial = encode()
        assert pools == []
        monkeypatch.setattr(series_module, "usable_cpus", lambda: 2)
        pooled = encode()
        assert pools == [2]
        return serial, pooled

    @pytest.mark.parametrize("timed", [False, True])
    def test_series_csv_bytes(self, monkeypatch, pools, timed):
        series = spanning_series(timed)
        serial, pooled = self.serial_and_pooled(monkeypatch, pools, lambda: series_csv_bytes(series))
        assert pooled == serial == series_oracle(series)

    @pytest.mark.parametrize("timed", [False, True])
    def test_file_write_csv_writes(self, monkeypatch, pools, tmp_path, timed):
        series, target = spanning_series(timed), tmp_path / "series.csv"

        def encode():
            write_csv(series, target)
            return target.read_bytes()

        serial, pooled = self.serial_and_pooled(monkeypatch, pools, encode)
        assert pooled == serial == series_oracle(series)

    def test_distribution_csv_bytes(self, monkeypatch, pools):
        masses = np.resize([1.0, 2.0, 0.5, 0.0, 3.0], 60)
        edges = np.concatenate([[-1e16], np.arange(1.0, 60.0), [1.7976931348623157e308]])
        dist = ProbabilityDistribution(edges, masses / masses.sum())
        serial, pooled = self.serial_and_pooled(monkeypatch, pools, lambda: distribution_csv_bytes(dist))
        assert pooled == serial == per_value_csv("bin_midpoint,mass", dist.midpoints, dist.masses)

    def test_report_csv_bytes(self, monkeypatch, pools):
        report = run_sweep(
            SweepConfig(sigma_counts=(1, 2), windows=(8,), bins=8, total_samples=256, seeds=(1, 2, 3))
        )
        serial, pooled = self.serial_and_pooled(monkeypatch, pools, report.report_csv_bytes)
        rows = (",".join(map(str, r[:4])) + f",{format_float(r.score)}\n" for r in report.rows)
        assert pooled == serial == ("k,window,seed,metric,score\n" + "".join(rows)).encode()

    def test_workers_are_capped_at_the_block_count(self, monkeypatch, pools):
        monkeypatch.setattr(series_module, "usable_cpus", lambda: 64)
        series = spanning_series(False, rows=10)
        assert series_csv_bytes(series) == series_oracle(series)
        assert pools == [2]

    def test_one_block_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(series_module, "usable_cpus", lambda: 64)
        monkeypatch.setattr(series_module, "process_pool", refuse_pool)
        series = spanning_series(True)
        assert series_csv_bytes(series) == series_oracle(series)

    def test_one_allowed_cpu_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(series_module, "_FORMAT_ROWS", 7)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(series_module, "process_pool", refuse_pool)
        series = spanning_series(True)
        assert series_csv_bytes(series) == series_oracle(series)

    def test_cpu_lookup_prefers_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert series_module.usable_cpus() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert series_module.usable_cpus() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert series_module.usable_cpus() == 1


def later_items_finish_first(item: int) -> int:
    """Sleeps longer for earlier items, so a pool finishes them out of order."""
    time.sleep(0.002 * (8 - item))
    return item * item


class TestOrderedMap:
    ITEMS = list(range(8))
    SQUARES = [item * item for item in ITEMS]

    def test_serial_keeps_the_input_order(self, monkeypatch):
        monkeypatch.setattr(series_module, "process_pool", refuse_pool)
        results = series_module.ordered_map(later_items_finish_first, self.ITEMS, 1)
        assert list(results) == self.SQUARES

    def test_pooled_keeps_the_input_order(self, pools):
        results = series_module.ordered_map(later_items_finish_first, self.ITEMS, 2)
        assert list(results) == self.SQUARES
        assert pools == [2]

    def test_workers_are_capped_at_the_item_count(self, monkeypatch, pools):
        assert list(series_module.ordered_map(abs, [-1], 64)) == [1]
        assert pools == []
        assert list(series_module.ordered_map(abs, [-1, -2], 64)) == [1, 2]
        assert pools == [2]


def write_file(tmp_path, raw: bytes):
    target = tmp_path / "in.csv"
    target.write_bytes(raw)
    return target


class TestPooledParsing:
    """Byte ranges parsed in a process pool give the bits and the messages
    of a read in this process. A regular file large enough to split is
    split whatever the CPU count; its ranges start a pool only where more
    than one CPU is usable."""

    @staticmethod
    def split(monkeypatch, cpus: int, range_bytes: int = 1, raw: bytes = b"value\n", block_bytes=None) -> None:
        """Split a read of ``raw``, or of a file with its header, after the
        header (``header_block``) into ranges of ``range_bytes``, on
        ``cpus`` usable CPUs."""
        monkeypatch.setattr(series_module, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(series_module, "_RANGE_BYTES", range_bytes)
        header_block(monkeypatch, raw, block_bytes)

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("timed", [False, True])
    def test_values_match_a_stream_read(self, monkeypatch, pools, tmp_path, timed, cpus):
        series = spanning_series(timed, rows=500)
        target = write_file(tmp_path, series_csv_bytes(series))
        pools.clear()  # those of the formatter
        self.split(monkeypatch, cpus, range_bytes=64, raw=target.read_bytes())
        assert read_csv(target) == read_csv(io.BytesIO(target.read_bytes())) == series
        assert pools == ([cpus] if cpus > 1 else [])

    def test_distribution_matches_a_stream_read(self, monkeypatch, pools, tmp_path):
        dist = ProbabilityDistribution(np.arange(201.0) - 7, np.full(200, 1 / 200))
        target = write_file(tmp_path, distribution_csv_bytes(dist))
        pools.clear()  # those of the formatter
        self.split(monkeypatch, 2, range_bytes=64, raw=target.read_bytes())
        back = read_distribution_csv(target)
        assert back.masses.tobytes() == read_distribution_csv(io.BytesIO(target.read_bytes())).masses.tobytes()
        assert back.edges.tobytes() == dist.edges.tobytes()
        assert pools == [2]

    @pytest.mark.parametrize("raw, count", CUT_CASES)
    def test_errors_match_the_row_parser(self, monkeypatch, pools, tmp_path, raw, count):
        """Row errors come back from the workers, invalid UTF-8 is raised in
        them, and both keep their precedence and row numbers. A bad header
        starts no pool."""
        self.split(monkeypatch, count or 3, range_bytes(raw, count or 3), raw=raw, block_bytes=5)
        assert read_path(read_csv, raw, tmp_path / "in.csv") == outcome(reference_read_csv, raw)
        assert pools == ([count] if count else [])

    @pytest.mark.parametrize(
        "tail, message",
        [
            (
                b"\xc3\n",
                "input is not valid UTF-8: 'utf-8' codec can't decode byte 0xc3 "
                "in position 80006: invalid continuation byte",
            ),
            (b"", "header must be 'value' or 't,value', got 'wrong'"),
        ],
        ids=["late-invalid-utf8", "header"],
    )
    def test_a_bad_header_is_read_here_in_one_pass(self, monkeypatch, tmp_path, tail, message):
        """The rest of the file, many ranges and blocks long, is decoded in
        this process: invalid UTF-8 in a later block still comes first."""
        raw = b"wrong\n" + b"1.5\n" * 20_000 + tail
        assert len(raw) > series_module._BLOCK_BYTES
        self.split(monkeypatch, 4, range_bytes=4096)
        monkeypatch.setattr(series_module, "process_pool", refuse_pool)
        assert read_path(read_csv, raw, tmp_path / "in.csv") == ("error", message)

    def test_workers_are_capped_at_the_range_count(self, monkeypatch, pools, tmp_path):
        self.split(monkeypatch, 64)
        assert read_csv(write_file(tmp_path, b"value\n1\n2\n3\n")) == TimeSeries(np.arange(1.0, 4.0))
        assert pools == [3]

    def test_two_ranges_worth_of_rows_is_split(self, monkeypatch, pools, tmp_path):
        """Two ``_RANGE_BYTES`` of rows after the first block, which holds
        the header and as many whole rows as fit in ``_BLOCK_BYTES``."""
        monkeypatch.setattr(series_module, "usable_cpus", lambda: 64)
        rows = (series_module._BLOCK_BYTES - 6) // 4 + 2 * series_module._RANGE_BYTES // 4
        below = write_file(tmp_path, b"value\n" + b"1.5\n" * (rows - 1))
        assert len(read_csv(below)) == rows - 1
        assert pools == []
        at = write_file(tmp_path, b"value\n" + b"1.5\n" * rows)
        assert len(read_csv(at)) == rows
        assert pools == [2]

    def test_a_stream_starts_no_pool(self, monkeypatch):
        self.split(monkeypatch, 64)
        monkeypatch.setattr(series_module, "process_pool", refuse_pool)
        assert read_csv(io.BytesIO(b"value\n1\n2\n3\n")) == TimeSeries(np.arange(1.0, 4.0))

    def test_one_allowed_cpu_starts_no_pool(self, monkeypatch, tmp_path):
        """The file is still split; its ranges are parsed in this process."""
        monkeypatch.setattr(series_module, "_RANGE_BYTES", 1)
        header_block(monkeypatch, b"value\n")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(series_module, "process_pool", refuse_pool)
        ordered_map, splits = series_module.ordered_map, []

        def spy(fn, items, workers):
            splits.append((len(items), workers))
            return ordered_map(fn, items, workers)

        monkeypatch.setattr(series_module, "ordered_map", spy)
        assert read_csv(write_file(tmp_path, b"value\n1\n2\n3\n")) == TimeSeries(np.arange(1.0, 4.0))
        assert splits == [(3, 1)]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd here")
    def test_workers_get_the_path_of_the_file_not_of_a_descriptor(self, monkeypatch, tmp_path):
        """``/dev/stdin`` and ``/proc/self/fd/N`` name a descriptor of this
        process, which a worker started by ``spawn`` does not share."""
        self.split(monkeypatch, 2)
        target = write_file(tmp_path, b"value\n1\n2\n3\n")
        with open(target, "rb") as handle:
            descriptor = f"/proc/self/fd/{handle.fileno()}"
            spans = series_module._ranges(descriptor, handle, 6)
        assert [span[0] for span in spans] == [os.path.realpath(target)] * 3

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd here")
    def test_a_file_removed_while_open_is_read_here(self, monkeypatch, tmp_path):
        """``/proc/self/fd/N`` of a removed file opens it in this process
        only; no path opens it for a worker, so it is not split."""
        self.split(monkeypatch, 2)
        monkeypatch.setattr(series_module, "process_pool", refuse_pool)
        raw = b"value\n" + b"1.5\n-2\n" * 50
        target = write_file(tmp_path, raw)
        with open(target, "rb") as handle:
            target.unlink()
            series = read_csv(f"/proc/self/fd/{handle.fileno()}")
        assert series == read_csv(io.BytesIO(raw))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_a_fifo_starts_no_pool(self, monkeypatch, tmp_path):
        self.split(monkeypatch, 64)
        monkeypatch.setattr(series_module, "process_pool", refuse_pool)
        fifo = tmp_path / "in.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(b"value\n1\n2\n3\n",), daemon=True)
        writer.start()
        try:
            series = read_csv(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert series == TimeSeries(np.arange(1.0, 4.0))


class TestIntegerFields:
    """Integer config fields take Python and numpy integers, nothing else."""

    @pytest.mark.parametrize(
        "config, field, value",
        [
            (SweepConfig, "windows", (32.7,)),
            (SweepConfig, "windows", ("64",)),
            (SweepConfig, "seeds", (1.9,)),
            (SweepConfig, "sigma_counts", (2.5,)),
            (SweepConfig, "bins", 8.5),
            (SweepConfig, "total_samples", 65536.0),
            (MeasureConfig, "window", 32.5),
            (MeasureConfig, "window", "64"),
            (MeasureConfig, "bins", 8.5),
            (SegmentedGeneratorConfig, "total_samples", 100.5),
            (SegmentedGeneratorConfig, "num_sigmas", 2.5),
            (SegmentedGeneratorConfig, "seed", 1.5),
        ],
    )
    def test_non_integers_are_rejected_by_name(self, config, field, value):
        kwargs = {"total_samples": 100} if config is SegmentedGeneratorConfig else {}
        with pytest.raises(ConfigurationError, match=f"^{field} must be an integer"):
            config(**{**kwargs, field: value})

    def test_numpy_integers_pass_as_python_ints(self):
        sweep = SweepConfig(
            sigma_counts=np.array([1, 4]),
            windows=(np.int32(16),),
            bins=np.int64(8),
            total_samples=np.uint16(512),
            seeds=(np.uint64(2**63),),
        )
        assert (sweep.sigma_counts, sweep.windows, sweep.seeds) == ((1, 4), (16,), (2**63,))
        assert (sweep.bins, sweep.total_samples) == (8, 512)
        assert all(type(v) is int for v in (*sweep.sigma_counts, sweep.bins, sweep.total_samples))
        assert MeasureConfig(window=np.int16(32), bins=np.uint8(16)) == MeasureConfig(32, 16)
        generator = SegmentedGeneratorConfig(
            total_samples=np.int64(100), num_sigmas=np.int8(4), seed=np.uint64(2**64 - 1)
        )
        assert (generator.total_samples, generator.num_sigmas, generator.seed) == (100, 4, 2**64 - 1)


TINY_SWEEP = SweepConfig(sigma_counts=(1,), windows=(2,), seeds=(1,), bins=2, total_samples=8)

# Every integer argument of the public API: (call with the value, the name its
# errors give, the least value it takes, the error it raises).
INTEGER_ARGUMENTS = {
    "MeasureConfig.window": (lambda v: MeasureConfig(window=v), "window", 2, ConfigurationError),
    "MeasureConfig.bins": (lambda v: MeasureConfig(bins=v), "bins", 2, ConfigurationError),
    "SegmentedGeneratorConfig.total_samples": (
        lambda v: SegmentedGeneratorConfig(total_samples=v), "total_samples", 1, ConfigurationError
    ),
    "SegmentedGeneratorConfig.num_sigmas": (
        lambda v: SegmentedGeneratorConfig(total_samples=8, num_sigmas=v),
        "num_sigmas", 1, ConfigurationError,
    ),
    "SegmentedGeneratorConfig.seed": (
        lambda v: SegmentedGeneratorConfig(total_samples=8, seed=v), "seed", 0, ConfigurationError
    ),
    "SweepConfig.sigma_counts": (
        lambda v: SweepConfig(sigma_counts=(v,)), "sigma_counts", 1, ConfigurationError
    ),
    "LocalVarianceSeries.window": (
        lambda v: LocalVarianceSeries(np.array([0.1]), window=v), "window", 2, ParameterError
    ),
    "local_variance": (
        lambda v: local_variance(TimeSeries(np.arange(10.0)), v), "window", 2, ParameterError
    ),
    "estimate_pdf": (lambda v: estimate_pdf(np.array([0.2, 0.9]), v), "bins", 1, ParameterError),
    "run_sweep": (lambda v: run_sweep(TINY_SWEEP, workers=v), "workers", 1, ParameterError),
    "segment_lengths.total_samples": (
        lambda v: segment_lengths(v, 3), "total_samples", 0, ParameterError
    ),
    "segment_lengths.num_segments": (
        lambda v: segment_lengths(10, v), "num_segments", 1, ParameterError
    ),
}


@pytest.mark.parametrize("site", INTEGER_ARGUMENTS)
def test_integer_arguments_take_integers_of_their_least_value(site):
    """A float, a string and a value below the least one raise the site's
    error, naming the argument; a numpy integer passes."""
    call, name, minimum, error = INTEGER_ARGUMENTS[site]
    for value in (minimum + 0.5, str(minimum)):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(value)
    message = f"{name} must be at least {minimum}, got {minimum - 1}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(minimum - 1)
    call(np.int64(minimum))


def test_integer_arguments_are_stored_as_python_ints():
    assert type(LocalVarianceSeries(np.array([0.1]), window=np.int64(2)).window) is int
    assert type(local_variance(TimeSeries(np.arange(4.0)), np.uint8(2)).window) is int
    assert segment_lengths(np.int64(0), np.int8(3)) == [0, 0, 0]


def test_config_from_takes_every_field_it_is_not_given():
    source = SimpleNamespace(total_samples=64, num_sigmas=2, sigma_min=0.5, sigma_max=3.0, seed=1)
    with pytest.raises(AttributeError, match="spacing"):
        series_module.config_from(SegmentedGeneratorConfig, source)
    built = series_module.config_from(
        SegmentedGeneratorConfig, source, spacing="logarithmic", shuffle_segments=True
    )
    assert built == SegmentedGeneratorConfig(64, 2, 0.5, 3.0, "logarithmic", True, 1)


class TestStreamedWrite:
    def test_failing_chunks_leave_the_target_as_it_was(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old\n")
        target.chmod(0o640)

        def chunks():
            yield b"value\n1\n"
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError, match="chunk failed"):
            series_module.write_bytes(chunks(), target)
        assert target.read_bytes() == b"old\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_stream_sink_receives_the_chunks_in_order(self):
        class Sink:
            def __init__(self):
                self.writes = []

            def write(self, data):
                self.writes.append(bytes(data))

        chunks = [b"value\n", b"1\n2\n", b"", b"3\n"]
        sink = Sink()
        series_module.write_bytes(iter(chunks), sink)
        assert sink.writes == chunks


@pytest.mark.skipif(os.name != "posix", reason="POSIX symbolic links and permission bits")
class TestSymlinkedTarget:
    """A path that is a symbolic link is written as ``open(path, "wb")``
    would write it: through the link, which stays a link."""

    SERIES = TimeSeries(np.array([1.0, -2.5, 3.0]))

    def test_a_link_to_a_file_rewrites_the_file_with_its_mode(self, tmp_path):
        (tmp_path / "data").mkdir()
        real = tmp_path / "data" / "real.csv"
        real.write_bytes(b"old\n")
        real.chmod(0o640)
        link = tmp_path / "link.csv"
        link.symlink_to("data/real.csv")
        write_csv(self.SERIES, link)
        assert link.is_symlink() and os.readlink(link) == "data/real.csv"
        assert real.read_bytes() == series_csv_bytes(self.SERIES)
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "link.csv", "real.csv"]

    def test_a_link_to_a_directory_is_refused_by_the_given_name(self, tmp_path):
        (tmp_path / "dir").mkdir()
        link = tmp_path / "dirlink"
        link.symlink_to("dir")
        message = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(link)!r}"
        with pytest.raises(IsADirectoryError, match=f"^{re.escape(message)}$"):
            write_csv(self.SERIES, str(link))
        assert link.is_symlink() and os.readlink(link) == "dir"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "dirlink"]

    def test_a_dangling_link_makes_its_target(self, tmp_path):
        link = tmp_path / "link.csv"
        link.symlink_to("made.csv")
        old_umask = os.umask(0o027)
        try:
            write_csv(self.SERIES, link)
        finally:
            os.umask(old_umask)
        made = tmp_path / "made.csv"
        assert link.is_symlink() and os.readlink(link) == "made.csv"
        assert made.read_bytes() == series_csv_bytes(self.SERIES)
        assert stat.S_IMODE(made.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "made.csv"]


class TestParseMemory:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("ending", [b"\n", b"\r"])
    def test_peak_is_bounded_by_result_and_one_block(self, monkeypatch, tmp_path, ending, cpus):
        """The whole file, its lines and one float object per row (the row
        parser's working set, ~31 MB here) would break this bound, as would
        holding a file whose lines end in a lone ``\\r`` as one block. The
        file is split into byte ranges either way; with two CPUs their
        results arrive here from a pool."""
        monkeypatch.setattr(series_module, "usable_cpus", lambda: cpus)
        rows = 1 << 18
        series = generate_segmented(SegmentedGeneratorConfig(total_samples=rows, num_sigmas=4))
        target = tmp_path / "series.csv"
        target.write_bytes(series_csv_bytes(series).replace(b"\n", ending))
        tracemalloc.start()
        try:
            parsed = read_csv(target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed == series
        assert peak < 3 * 8 * rows + 8 * series_module._BLOCK_BYTES
