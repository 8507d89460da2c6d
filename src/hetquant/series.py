"""Time-series container, seeded segmented-variance generator, and CSV I/O.

The generator produces zero-mean Gaussian series whose standard deviation
changes across contiguous segments.  Randomness comes from NumPy's PCG64
generator seeded with ``SeedSequence([seed, num_sigmas])``, so output is
bit-reproducible for a fixed NumPy version and independent of any analysis
parameter such as the window size.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import os
import stat
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, fields
from typing import TypeVar

import numpy as np

from .errors import ConfigurationError, IngestionError, ParameterError

__all__ = [
    "TimeSeries",
    "SegmentedGeneratorConfig",
    "generate_segmented",
    "segment_lengths",
    "sigma_values",
    "read_csv",
    "write_csv",
    "series_csv_bytes",
    "format_float",
]

SPACINGS = ("linear", "logarithmic")


def format_float(x: float) -> str:
    """Render ``x`` in the shortest form that parses back to the same bits.

    Integral values drop the trailing ``.0`` (``1.0`` becomes ``"1"``).
    """
    text = repr(float(x))
    if text.endswith(".0"):
        text = text[:-2]
    return text


def frozen_array(values, name: str) -> np.ndarray:
    """``values`` as a read-only float64 array, which must be 1-D and finite.

    A read-only float64 ``ndarray`` that owns its data (``base is None``) is
    taken as it is, without a copy: its caller hands it over and must not
    make it writeable again. Anything else, a writeable array or a view of
    one included, is copied.
    """
    owned = (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.base is None
        and not values.flags.writeable
    )
    array = values if owned else np.array(values, dtype=np.float64)
    if array.ndim != 1:
        raise ParameterError(f"{name} must be one-dimensional")
    if not np.isfinite(array).all():
        raise ParameterError(f"{name} must be finite")
    array.flags.writeable = False
    return array


def integer(value, name: str, minimum: int | None, error: type = ConfigurationError) -> int:
    """``value`` as a Python int of at least ``minimum`` (None: no bound); a numpy
    integer passes, but a float, a string or a smaller value raises ``error``."""
    try:
        number = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise error(f"{name} must be at least {minimum}, got {number}")
    return number


_Config = TypeVar("_Config")


def config_from(cls: type[_Config], source, **given) -> _Config:
    """The dataclass ``cls`` built from ``given``, plus ``source``'s attribute of the
    same name for every other field; a source that lacks one raises ``AttributeError``."""
    taken = {field.name: getattr(source, field.name) for field in fields(cls) if field.name not in given}
    return cls(**taken, **given)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered sequence of finite real samples.

    ``times`` holds the optional timestamp column of a two-column CSV; it is
    carried through round trips but ignored by every analysis. Equality
    compares sample (and timestamp) values. Each column is copied unless it
    is a read-only float64 array that owns its data, which is kept as it is
    (see ``frozen_array``).
    """

    samples: np.ndarray
    times: np.ndarray | None = None

    def __post_init__(self) -> None:
        samples = frozen_array(self.samples, "samples")
        if samples.size < 1:
            raise ParameterError("series must contain at least one sample")
        object.__setattr__(self, "samples", samples)
        if self.times is not None:
            times = frozen_array(self.times, "times")
            if times.size != samples.size:
                raise ParameterError("times must match samples in length")
            object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return int(self.samples.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        if not np.array_equal(self.samples, other.samples):
            return False
        if (self.times is None) != (other.times is None):
            return False
        return self.times is None or np.array_equal(self.times, other.times)


@dataclass(frozen=True)
class SegmentedGeneratorConfig:
    """Parameters for the segmented-variance Gaussian generator."""

    total_samples: int
    num_sigmas: int = 1
    sigma_min: float = 0.25
    sigma_max: float = 8.0
    spacing: str = "linear"
    shuffle_segments: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        for name, minimum in (("total_samples", 1), ("num_sigmas", 1), ("seed", 0)):
            object.__setattr__(self, name, integer(getattr(self, name), name, minimum))
        if self.num_sigmas > self.total_samples:
            raise ConfigurationError(
                f"num_sigmas ({self.num_sigmas}) exceeds total_samples ({self.total_samples})"
            )
        if not self.sigma_min > 0:
            raise ConfigurationError("sigma_min must be positive")
        if self.sigma_max < self.sigma_min:
            raise ConfigurationError("sigma_max must be at least sigma_min")
        if not math.isfinite(self.sigma_max):
            raise ConfigurationError("sigma_max must be finite")
        if self.spacing not in SPACINGS:
            raise ConfigurationError(f"spacing must be one of {SPACINGS}")
        if self.seed >= 2**64:
            raise ConfigurationError("seed must fit in 64 unsigned bits")


def segment_lengths(total_samples: int, num_segments: int) -> list[int]:
    """Split ``total_samples`` into ``num_segments`` as-equal-as-possible parts.

    The first ``total_samples mod num_segments`` parts receive one extra
    sample, so lengths differ by at most 1 and sum to the total.
    """
    total_samples = integer(total_samples, "total_samples", 0, ParameterError)
    num_segments = integer(num_segments, "num_segments", 1, ParameterError)
    base, extra = divmod(total_samples, num_segments)
    return [base + 1 if j < extra else base for j in range(num_segments)]


def sigma_values(config: SegmentedGeneratorConfig) -> np.ndarray:
    """Per-segment standard deviations before any shuffling.

    The k values span [sigma_min, sigma_max] with linear or logarithmic
    spacing, hitting both endpoints exactly; a single segment uses
    ``sigma_min``.
    """
    if config.spacing == "linear":
        return np.linspace(config.sigma_min, config.sigma_max, config.num_sigmas)
    return np.geomspace(config.sigma_min, config.sigma_max, config.num_sigmas)


def generate_segmented(config: SegmentedGeneratorConfig) -> TimeSeries:
    """Generate a zero-mean Gaussian series with segment-wise variances.

    The series has ``total_samples`` values in ``num_sigmas`` contiguous
    segments; segment j draws from N(0, sigma_j^2). Identical configs yield
    bit-identical output.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, config.num_sigmas]))
    sigmas = sigma_values(config)
    if config.shuffle_segments:
        sigmas = rng.permutation(sigmas)
    lengths = segment_lengths(config.total_samples, config.num_sigmas)
    samples = np.empty(config.total_samples)
    start = 0
    for sigma, length in zip(sigmas, lengths):
        samples[start : start + length] = rng.normal(0.0, sigma, length)
        start += length
    return TimeSeries(samples)


def _parse_value(token: str, row: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise IngestionError(f"row {row}: {column} is not a number: {token!r}") from None
    if not np.isfinite(value):
        raise IngestionError(f"row {row}: {column} is not finite: {token!r}")
    return value


def _open_binary(source):
    """Open a path for binary reading, or pass a binary stream through unclosed."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, "rb")
    return contextlib.nullcontext(source)


def _decode(raw: bytes, offset: int) -> str:
    """Decode ``raw``, which starts ``offset`` bytes into the input, as UTF-8.

    The error message is Python's own for the whole input: positions count
    from its start, not from the start of ``raw``.
    """
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        start, end = offset + exc.start, offset + exc.end
        if end - start == 1:
            where = f"byte 0x{raw[exc.start]:02x} in position {start}"
        else:
            where = f"bytes in position {start}-{end - 1}"
        raise IngestionError(
            f"input is not valid UTF-8: 'utf-8' codec can't decode {where}: {exc.reason}"
        ) from None


def write_bytes(data: bytes | Iterable[bytes], sink) -> None:
    """Write ``data``, bytes or an iterable of byte chunks, to a binary
    stream, or atomically to a path.

    Chunks are written in order as they arrive, so they are never all held
    at once. A path is written through a temporary file in the same
    directory that is then renamed over it, so the path holds either its
    old contents or all of ``data``, never part of it, even when the
    chunks fail midway. The file gets the permissions ``open(path, "wb")``
    would give it: those of the file it replaces, or 0o666 less the umask
    for a new one.
    """
    chunks = (data,) if isinstance(data, (bytes, bytearray, memoryview)) else data
    if not isinstance(sink, (str, os.PathLike)):
        for chunk in chunks:
            sink.write(chunk)
        return
    directory = os.path.dirname(os.path.abspath(sink))
    for attempt in itertools.count():
        tmp = os.path.join(directory, f".hetquant-{os.getpid()}-{attempt}")
        try:
            handle = open(tmp, "xb")
        except FileExistsError:
            continue
        break
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(sink).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, sink)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def process_pool(workers: int):
    """A ``concurrent.futures`` process pool of ``workers`` processes.

    The executor is imported here, on first use, so that importing the
    package loads neither ``concurrent.futures`` nor ``multiprocessing``.
    Workers start by the platform's default method: ``fork`` on Linux up to
    Python 3.13, which starts a pool far sooner than ``spawn``, whose
    workers must each import numpy first. Everything a worker needs
    reaches it as arguments.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def ordered_map(fn: Callable, items: list, workers: int) -> Iterator:
    """``map(fn, items)`` in a pool of ``workers`` processes, at most one per
    item; with fewer than two, ``fn`` runs in this process. Order is kept."""
    workers = min(workers, len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    with process_pool(workers) as pool:
        yield from pool.map(fn, items)


# Below glibc's default mmap threshold (128 KiB): asking for 1 MiB to read a
# small file raised the peak RSS of a process that reads many such files by
# about 1 MB, and larger blocks parse no faster.
_BLOCK_BYTES = 1 << 16
_FORMAT_ROWS = 1 << 16
# Bytes of data rows per range that a worker process parses. A file of less
# than two ranges is read in this process, where starting a pool would cost
# more than the other CPUs save. Ranges of this size, many per worker, parsed
# a 20 MB file faster than one range per CPU: a worker that finishes early
# takes the next range.
_RANGE_BYTES = 1 << 20
# Bytes read at a time past a nominal cut, looking for the end of its line.
_PROBE = 256


def _blocks(handle, offset: int = 0, end: int | None = None):
    """Yield ``(offset, block)`` pieces of a binary stream, in order, from
    its position, which lies ``offset`` bytes into the input, up to the byte
    at ``end`` (None: the end of the stream).

    Each block holds about ``_BLOCK_BYTES`` and ends just after its last
    ``b"\\n"`` or ``b"\\r"``, except the last, which ends where the stream
    or the range does. A ``b"\\r"`` that is the last byte read may be half
    of a ``\\r\\n`` pair, so it waits for the next read. A cut therefore
    never splits a UTF-8 character or a ``\\r\\n`` pair, and the lines of
    the decoded blocks are the lines of the whole input. A stretch with no
    ``b"\\n"`` or ``b"\\r"`` stays in one block.
    """
    position = offset
    pending: list[bytes] = []
    while data := handle.read(_BLOCK_BYTES if end is None else min(_BLOCK_BYTES, end - position)):
        position += len(data)
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if cut == 0:
            pending.append(data)
            continue
        pending.append(data[:cut])
        block = b"".join(pending)
        pending = [data[cut:]]
        del data  # not held while the caller parses the block
        yield offset, block
        offset += len(block)
    tail = b"".join(pending)
    if tail:
        yield offset, tail


def _next_cut(handle, position: int) -> int:
    """The first offset past ``position`` at which ``_blocks`` may cut a
    file: just after a ``b"\\n"``, or after a ``b"\\r"`` that no ``b"\\n"``
    follows. The end of the file if there is none."""
    handle.seek(position)
    while data := handle.read(_PROBE):
        ends = [at for at in (data.find(b"\n"), data.find(b"\r")) if at >= 0]
        if ends:
            at = min(ends)
            crlf = data[at : at + 2] == b"\r\n" or (
                data[at:] == b"\r" and handle.read(1) == b"\n"
            )
            return position + at + 1 + crlf
        position += len(data)
    return position


def _shared_path(source, handle, start: int) -> str | None:
    """A path that opens the regular file ``handle`` reads, for worker
    processes to open, if the file holds at least two ``_RANGE_BYTES`` past
    ``start`` and more than one CPU is usable; None for a stream, any other
    kind of file, a smaller file or one CPU.

    The path is resolved, so that ``/dev/stdin`` redirected from a file
    names that file rather than the worker's own standard input. The size
    is checked first, so that reading a small file resolves no path.
    """
    if not isinstance(source, (str, os.PathLike)):
        return None
    opened = os.fstat(handle.fileno())
    if (
        not stat.S_ISREG(opened.st_mode)
        or opened.st_size - start < 2 * _RANGE_BYTES
        or usable_cpus() < 2
    ):
        return None
    path = os.path.realpath(source)
    try:
        same = os.path.samestat(os.stat(path), opened)
    except OSError:
        return None
    return path if same else None


def _ranges(handle, start: int) -> list[tuple[int, int]]:
    """Split the bytes of a file from ``start`` to its end into ranges
    ``(start, end)`` of at least ``_RANGE_BYTES``, each cut where
    ``_next_cut`` finds the end of a line. The handle is left where it was.

    A nominal cut that the line before it has already passed is skipped,
    and cutting stops at the end of the file, so a long line is scanned
    once however many nominal cuts it spans."""
    size = os.fstat(handle.fileno()).st_size
    parts = (size - start) // _RANGE_BYTES
    position = handle.tell()
    cuts = [start]
    for part in range(1, parts):
        nominal = start + (size - start) * part // parts
        if nominal < cuts[-1]:
            continue
        cut = _next_cut(handle, nominal)
        if cut >= size:
            break
        cuts.append(cut)
    handle.seek(position)
    return list(zip(cuts, cuts[1:] + [size]))


def _columns(line: str, headers: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    header = line.strip()
    if header in headers:
        return headers[header]
    accepted = " or ".join(repr(key) for key in headers)
    raise IngestionError(f"header must be {accepted}, got {header!r}")


def _parse_rows(lines: list[str], first_row: int, names: tuple[str, ...]) -> np.ndarray:
    """Parse data rows one at a time; errors name the 1-based row."""
    expected = len(names)
    values: list[list[float]] = []
    for row, line in enumerate(lines, start=first_row):
        line = line.strip()
        if not line:
            raise IngestionError(f"row {row}: blank line")
        fields = line.split(",")
        if len(fields) != expected:
            raise IngestionError(
                f"row {row}: expected {expected} column(s), got {len(fields)}"
            )
        values.append([_parse_value(f, row, name) for f, name in zip(fields, names)])
    return np.array(values, dtype=np.float64)


def _parse_block(lines: list[str], first_row: int, names: tuple[str, ...]) -> np.ndarray:
    """Parse data rows into an ``(n, columns)`` array, all at once if possible.

    ``np.array`` converts each str with ``float()``, so it accepts the same
    tokens with the same bits as the row loop. A block it rejects, or that
    holds a non-finite value or a wrong column count, goes through the row
    loop, which names the row at fault (or accepts what ``line.strip()``
    makes valid, such as a leading ``\\x1f``).
    """
    try:
        if len(names) > 1:
            table = np.array([line.split(",") for line in lines], dtype=np.float64)
        else:
            table = np.array(lines, dtype=np.float64).reshape(len(lines), 1)
    except ValueError:
        table = None
    expected = (len(lines), len(names))
    if table is not None and table.shape == expected and np.isfinite(table).all():
        return table
    return _parse_rows(lines, first_row, names)


def _parse_blocks(blocks, names: tuple[str, ...] | None, first_row: int) -> tuple:
    """Parse the data rows in ``blocks``, ``(offset, bytes)`` pieces that
    ``_blocks`` cut, numbering them from ``first_row``.

    Returns the ``(n, columns)`` table of each block, the number of rows,
    and the first row error or None. With ``names`` None the rows are only
    decoded and counted. Invalid UTF-8 raises at once.
    """
    tables: list[np.ndarray] = []
    rows = 0
    error: IngestionError | None = None
    for offset, block in blocks:
        lines = _decode(block, offset).splitlines()
        # After an error the rest is still decoded: invalid UTF-8 anywhere
        # in the input takes precedence, as when it was decoded whole.
        if names is not None and error is None and lines:
            try:
                tables.append(_parse_block(lines, first_row + rows, names))
            except IngestionError as exc:
                error = exc
        rows += len(lines)
    return tables, rows, error


def _read_range(item: tuple, first_row: int = 1) -> tuple:
    """``_parse_blocks`` on the bytes ``[start, end)`` of the file that
    ``item``, ``(path, opened, start, end, names)``, names; ``opened`` is
    the ``os.stat`` of the file the caller has open, which ``path`` must
    still open."""
    path, opened, start, end, names = item
    with open(path, "rb") as handle:
        if not os.path.samestat(os.fstat(handle.fileno()), opened):
            raise OSError(f"{path} was replaced while it was read")
        handle.seek(start)
        return _parse_blocks(_blocks(handle, start, end), names, first_row)


def read_table(source, headers: dict[str, tuple[str, ...]]) -> list[np.ndarray]:
    """Parse a CSV byte stream or path into one float64 array per column.

    ``headers`` maps each accepted header line to its column names. Every
    data row must hold finite numbers; errors name the offending data row
    (1-based, header excluded) and column. Each column is a read-only
    array that owns its data, so a container can take it without a copy.

    A regular file with at least two ``_RANGE_BYTES`` (1 MiB) of data
    rows, read where more than one CPU is usable, is split at line ends
    into ranges of about that size, which a pool of one process per usable
    CPU parses, each worker opening the file and reading its own ranges.
    Anything else, a stream or a pipe included, is parsed in this process.
    Either way the input is read in blocks of about 64 KiB, and the values,
    errors and precedence are the same: invalid UTF-8 anywhere, reported at
    its first position, then a bad header, then the first bad row. Parsing
    holds the parsed values twice, 16 bytes per value, while it joins them.
    """
    with _open_binary(source) as handle:
        blocks = _blocks(handle)
        first = next(blocks, None)
        if first is None:
            raise IngestionError("empty file")
        _, block = first
        header = _decode(block, 0).splitlines(keepends=True)[0]
        start = len(header.encode("utf-8"))
        try:
            names, header_error = _columns(header, headers), None
        except IngestionError as exc:
            names, header_error = None, exc
        path = _shared_path(source, handle, start)
        spans = _ranges(handle, start) if path else []
        if len(spans) > 1:
            opened = os.fstat(handle.fileno())
            items = [(path, opened, a, b, names) for a, b in spans]
            # Consumed here, so the pool is shut down before this returns.
            results = list(ordered_map(_read_range, items, usable_cpus()))
        else:
            rest = itertools.chain([(start, block[start:])], blocks)
            results = [_parse_blocks(rest, names, 1)]
    if header_error is not None:
        raise header_error
    rows = 0
    for index, (_, count, error) in enumerate(results):
        if error is not None:
            if index:  # its worker numbered the rows of its range from 1
                error = _read_range(items[index], rows + 1)[2]
            raise error
        rows += count
    if not rows:
        raise IngestionError("no data rows")
    tables = [table for part, _, _ in results for table in part]
    columns = [np.concatenate([table[:, j] for table in tables]) for j in range(len(names))]
    for column in columns:
        column.flags.writeable = False
    return columns


def read_csv(source) -> TimeSeries:
    """Parse a series from a CSV byte stream or path.

    The first line must be the header ``value`` or ``t,value``. Every data
    row must hold finite numbers; errors name the offending data row
    (1-based, header excluded). A large regular file is parsed on every
    usable CPU, each worker process reading its own byte ranges; a stream
    or a small file is parsed in this process. Both read blocks of about
    64 KiB and give the same bits and the same messages. The series holds
    8 bytes per row (16 with ``t``) and takes the parsed columns without a
    copy; parsing holds twice that while it joins them.
    """
    columns = read_table(source, {"value": ("value",), "t,value": ("t", "value")})
    if len(columns) == 2:
        return TimeSeries(columns[1], times=columns[0])
    return TimeSeries(columns[0])


def csv_chunks(header: str, *columns) -> Iterator[bytes]:
    """Encode equal-length columns as CSV under ``header``, LF endings,
    yielding the header line and then one chunk per block of rows.

    A column is a numpy array or a sequence of Python numbers or strings.
    A number is written as ``format_float`` writes it: ``repr``, without a
    trailing ``.0``; a string is written as is and must not end in ``.0``.
    Rows are formatted in blocks of ``_FORMAT_ROWS``. When there are two
    blocks or more and this process may use more than one CPU, the blocks
    are formatted in a process pool, one worker per usable CPU, and still
    yielded in order. No columns give the header line alone.
    """
    yield header.encode("utf-8") + b"\n"
    rows = len(columns[0]) if columns else 0
    blocks = [
        tuple(c[start : start + _FORMAT_ROWS] for c in columns)
        for start in range(0, rows, _FORMAT_ROWS)
    ]
    yield from ordered_map(_encode_block, blocks, usable_cpus())


def csv_bytes(header: str, *columns) -> bytes:
    """The CSV that ``csv_chunks`` encodes, joined."""
    return b"".join(csv_chunks(header, *columns))


def _encode_block(columns: tuple) -> bytes:
    """The CSV rows of one block of equal-length column slices."""
    texts = [_field_texts(c) for c in columns]
    rows = texts[0] if len(texts) == 1 else map(",".join, zip(*texts))
    text = "\n".join(rows) + "\n"
    return text.replace(".0\n", "\n").replace(".0,", ",").encode("utf-8")


def _field_texts(values):
    """The fields of one block of a column: strings as they are, numbers by ``repr``."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return values if isinstance(values[0], str) else map(repr, values)


def _series_csv_chunks(series: TimeSeries) -> Iterator[bytes]:
    if series.times is None:
        return csv_chunks("value", series.samples)
    return csv_chunks("t,value", series.times, series.samples)


def series_csv_bytes(series: TimeSeries) -> bytes:
    """Canonical CSV encoding: LF endings, shortest round-trip floats."""
    return b"".join(_series_csv_chunks(series))


def write_csv(series: TimeSeries, sink) -> None:
    """Write the canonical CSV encoding of ``series`` to a binary sink or
    path, one block of rows at a time."""
    write_bytes(_series_csv_chunks(series), sink)
