"""Time-series container, seeded segmented-variance generator, and CSV I/O.

The generator produces zero-mean Gaussian series whose standard deviation
changes across contiguous segments.  Randomness comes from NumPy's PCG64
generator seeded with ``SeedSequence([seed, num_sigmas])``, so output is
bit-reproducible for a fixed NumPy version and independent of any analysis
parameter such as the window size.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import math
import operator
import os
import stat
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, fields
from typing import BinaryIO, TypeVar

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

# sigma grid spacing -> numpy function of (start, stop, num) that hits both ends
_GRIDS = {"linear": np.linspace, "logarithmic": np.geomspace}
SPACINGS = tuple(_GRIDS)


def format_float(x: float) -> str:
    """Render ``x`` in the shortest form that parses back to the same bits.

    Integral values drop the trailing ``.0`` (``1.0`` becomes ``"1"``).
    """
    text = repr(float(x))
    if text.endswith(".0"):
        text = text[:-2]
    return text


def frozen_array(values, name: str) -> np.ndarray:
    """A read-only float64 copy of ``values``, which must be 1-D and finite.

    Public constructors copy and check every array they are given; the
    library's own results are built by ``proved`` without a copy.
    """
    array = np.array(values, dtype=np.float64)
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


def proved(cls, **values):
    """A ``cls`` of ``values``, every field given, built with no check and no copy
    (each ndarray is frozen in place): for values proved to pass its checks."""
    instance = object.__new__(cls)
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(instance, name, value)
    return instance


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
    compares sample (and timestamp) values. The constructor copies and
    checks each column; the library's own series skip both (``proved``).
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
    return _GRIDS[config.spacing](config.sigma_min, config.sigma_max, config.num_sigmas)


def generate_segmented(config: SegmentedGeneratorConfig) -> TimeSeries:
    """Generate a zero-mean Gaussian series with segment-wise variances.

    The series has ``total_samples`` values in ``num_sigmas`` contiguous
    segments; segment j is 0.0 + sigma_j * z over its share z of one draw
    of standard normals, the bits of ``rng.normal(0.0, sigma_j)`` on it.
    Identical configs yield bit-identical output.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, config.num_sigmas]))
    sigmas = sigma_values(config)
    if config.shuffle_segments:
        sigmas = rng.permutation(sigmas)
    lengths = segment_lengths(config.total_samples, config.num_sigmas)
    samples = rng.standard_normal(config.total_samples)
    start = 0
    # A product that overflows is reported below as not finite.
    with np.errstate(over="ignore"):
        for sigma, length in zip(sigmas, lengths):
            samples[start : start + length] *= sigma
            start += length
    samples += 0.0
    if not np.isfinite(samples).all():
        raise ParameterError("samples must be finite")
    # Finite, one-dimensional and nonempty (total_samples >= 1).
    return proved(TimeSeries, samples=samples, times=None)


def _parse_value(token: str, row: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise IngestionError(f"row {row}: {column} is not a number: {token!r}") from None
    if not np.isfinite(value):
        raise IngestionError(f"row {row}: {column} is not finite: {token!r}")
    return value


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


@contextlib.contextmanager
def replacing(path) -> Iterator[BinaryIO]:
    """A new temporary file in the directory of ``path``, open for binary
    writing, that is renamed over ``path`` when the block ends without an
    error and removed when it raises.

    ``path`` thus holds either its old contents or all that the block
    wrote, never part of it. A symbolic link at ``path`` is followed and
    kept, as ``open(path, "wb")`` would: the file it names is replaced, or
    made. A directory there, linked or not, is refused before the
    temporary file is made. An ``OSError`` on the temporary file or the
    resolved path is raised with its errno and message but with ``path``
    given. The file gets the permissions ``open(path, "wb")`` would give
    it: those of the file it replaces, or 0o666 less the umask for a new one.
    """
    real = os.path.realpath(path)
    if os.path.isdir(real):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    directory = os.path.dirname(real)
    try:
        for attempt in itertools.count():
            tmp = os.path.join(directory, f".hetquant-{os.getpid()}-{attempt}")
            try:
                handle = open(tmp, "xb")
            except FileExistsError:
                continue
            break
        try:
            with handle:
                yield handle
            try:
                os.chmod(tmp, stat.S_IMODE(os.stat(real).st_mode))
            except FileNotFoundError:
                pass
            os.replace(tmp, real)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        # The temporary and resolved names are this function's own: report
        # the path asked for.
        if exc.filename not in (tmp, real):
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def write_bytes(data: bytes | Iterable[bytes], sink) -> None:
    """Write ``data``, bytes or an iterable of byte chunks, to a binary
    stream, or to a path through ``replacing``.

    Chunks are written in order as they arrive, so they are never all held
    at once; a path keeps its old contents when they fail midway.
    """
    chunks = (data,) if isinstance(data, (bytes, bytearray, memoryview)) else data
    is_path = isinstance(sink, (str, os.PathLike))
    with replacing(sink) if is_path else contextlib.nullcontext(sink) as handle:
        for chunk in chunks:
            handle.write(chunk)


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


# Below glibc's default mmap threshold (128 KiB), so that reading many small
# files does not raise the peak RSS; larger blocks parse no faster.
_BLOCK_BYTES = 1 << 16
_FORMAT_ROWS = 1 << 16
# Bytes of data rows per range that a worker parses: many ranges per worker
# rather than one per CPU, so that a worker that finishes early takes the next.
_RANGE_BYTES = 1 << 20


def _blocks(handle, offset: int = 0, end: int | None = None) -> Iterator[str]:
    """Yield the text of a binary stream, decoded in blocks, in order, from
    its position, which lies ``offset`` bytes into the input, up to the byte
    at ``end`` (None: the end of the stream).

    Each block holds about ``_BLOCK_BYTES`` and ends just after its last
    ``b"\\n"`` or ``b"\\r"``, except the last, which ends where the stream
    or the range does. A ``b"\\r"`` that is the last byte read may be half
    of a ``\\r\\n`` pair, so it waits for the next read. A cut therefore
    never splits a UTF-8 character or a ``\\r\\n`` pair, and the lines of
    the blocks are the lines of the whole input. A stretch with no
    ``b"\\n"`` or ``b"\\r"`` stays in one block. Each byte is decoded once,
    and neither a block's bytes nor its text is held here while the caller
    parses it.
    """
    position = offset
    pending: list[bytes] = []
    texts: list[str] = []
    while data := handle.read(_BLOCK_BYTES if end is None else min(_BLOCK_BYTES, end - position)):
        position += len(data)
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if cut == 0:
            pending.append(data)
            continue
        pending.append(data[:cut])
        data = data[cut:]
        texts.append(_decode(b"".join(pending), offset))
        offset = position - len(data)
        pending = [data]
        yield texts.pop()
    if any(pending):
        texts.append(_decode(b"".join(pending), offset))
        del pending
        yield texts.pop()


def _next_cut(handle, position: int) -> int:
    """The first offset past ``position`` at which ``_blocks`` may cut a
    file: just after a ``b"\\n"``, or after a ``b"\\r"`` that no ``b"\\n"``
    follows. The end of the file if there is none."""
    handle.seek(position)
    while data := handle.read(_BLOCK_BYTES):
        ends = [at for at in (data.find(b"\n"), data.find(b"\r")) if at >= 0]
        if ends:
            at = min(ends)
            crlf = data[at : at + 2] == b"\r\n" or (
                data[at:] == b"\r" and handle.read(1) == b"\n"
            )
            return position + at + 1 + crlf
        position += len(data)
    return position


def _ranges(path, handle, start: int) -> list[tuple]:
    """The byte ranges ``(path, opened, start, end)`` of the rows that the
    file ``handle`` opened from ``path`` holds from ``start`` on, as
    ``read_table`` splits them, or ``[]`` when this process must read the
    input through ``handle``; ``opened`` is the file's ``os.stat``.

    A regular file with at least two ``_RANGE_BYTES`` (2 MiB) of rows from
    ``start`` on is always split, into ranges of about 1 MiB, whatever the
    CPU count: for a smaller file, starting a pool would cost more than the
    other CPUs save. Each range is parsed from the file opened again by
    its resolved path, which must still be the file read here, else
    ``OSError``; so ``/dev/stdin`` redirected from a file names that file,
    not a worker's own standard input. Each cut is where ``_next_cut``
    finds the end of a line. A nominal cut that the line before it has
    already passed is skipped, and cutting stops at the end of the file,
    so a long line is scanned once however many nominal cuts it spans.
    """
    if path is None:
        return []
    opened = os.fstat(handle.fileno())
    size = opened.st_size
    parts = (size - start) // _RANGE_BYTES
    if not stat.S_ISREG(opened.st_mode) or parts < 2:
        return []
    path = os.path.realpath(path)
    try:
        if not os.path.samestat(os.stat(path), opened):
            return []
    except OSError:
        return []
    cuts = [start]
    for part in range(1, parts):
        nominal = start + (size - start) * part // parts
        if nominal < cuts[-1]:
            continue
        cut = _next_cut(handle, nominal)
        if cut >= size:
            break
        cuts.append(cut)
    return [(path, opened, a, b) for a, b in zip(cuts, cuts[1:] + [size])]


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
    """Parse data rows into an ``(n, columns)`` array in one ``np.array`` call
    if possible.

    A block of several columns is converted from one flat list of its
    fields, and only when every line holds exactly ``columns - 1`` commas,
    so that the fields of each row are its own. ``np.array`` converts each
    str with ``float()``, so it accepts the same tokens with the same bits
    as the row loop. Any other block goes through the row loop, which names
    the row at fault (or accepts what ``line.strip()`` makes valid, such as
    a leading ``\\x1f``): one with a line of another field count or a blank
    line, a field ``np.array`` rejects, or a value that is not finite.
    """
    commas = len(names) - 1
    fields = lines
    if commas:
        if set(map(str.count, lines, itertools.repeat(","))) != {commas}:
            return _parse_rows(lines, first_row, names)
        fields = ",".join(lines).split(",")
    with contextlib.suppress(ValueError):
        table = np.array(fields, dtype=np.float64)
        if np.isfinite(table).all():
            return table.reshape(len(lines), len(names))
    return _parse_rows(lines, first_row, names)


def _parse_blocks(blocks, names: tuple[str, ...], first_row: int) -> tuple:
    """Parse the data rows in ``blocks``, texts that ``_blocks`` cut, into
    the columns ``names``, numbering them from ``first_row``.

    Returns the ``(n, columns)`` table of each block, the number of rows,
    and the first row error or None. Invalid UTF-8 raises at once.
    """
    tables: list[np.ndarray] = []
    rows = 0
    error: IngestionError | None = None
    for lines in map(str.splitlines, blocks):
        # After an error the rest is still decoded: invalid UTF-8 anywhere
        # in the input takes precedence, as when it was decoded whole.
        if error is None and lines:
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


def read_table(source, headers: tuple[str, ...]) -> list[np.ndarray]:
    """Parse a CSV byte stream or path into one float64 array per column.

    ``headers`` lists the accepted header lines; a header's comma-separated
    fields name its columns. Every data row must hold finite numbers;
    errors name the offending data row (1-based, header excluded) and
    column.

    The input is read in blocks of about 64 KiB. After a bad header the
    rest is only decoded, here, to find invalid UTF-8. Otherwise the first
    block's rows are parsed here, and then the ranges that ``_ranges``
    splits a regular file into, in a pool of one process per usable CPU or
    here where only one is usable; the rest of any other input, a stream
    or a pipe included, is parsed here. Either way the values, errors and
    precedence are the same: invalid UTF-8 anywhere, reported at its first
    position, then a bad header, then the first bad row. Parsing holds the
    parsed values twice, 16 bytes per value, while it joins them.
    """
    path = source if isinstance(source, (str, os.PathLike)) else None
    with open(path, "rb") if path is not None else contextlib.nullcontext(source) as handle:
        blocks = _blocks(handle)
        text = next(blocks, "")
        if not text:
            raise IngestionError("empty file")
        line = text.splitlines(keepends=True)[0]
        header = line.strip()
        if header not in headers:
            for _ in blocks:  # decoded only to find invalid UTF-8
                pass
            raise IngestionError(f"header must be {' or '.join(map(repr, headers))}, got {header!r}")
        names = tuple(header.split(","))
        items = [span + (names,) for span in _ranges(path, handle, len(text.encode("utf-8")))]
        here = itertools.chain([text[len(line) :]], [] if items else blocks)
        del text, blocks  # the first block's rows are kept only until they are parsed
        results = [_parse_blocks(here, names, 1)]
        if items:
            # Consumed here, so the pool is shut down before this returns.
            results += ordered_map(_read_range, items, usable_cpus())
    rows = 0
    for index, (_, count, error) in enumerate(results):
        if error is not None:
            if index:  # its worker numbered the rows of its range from 1
                error = _read_range(items[index - 1], rows + 1)[2]
            raise error
        rows += count
    if not rows:
        raise IngestionError("no data rows")
    tables = [table for part, _, _ in results for table in part]
    return [np.concatenate([table[:, j] for table in tables]) for j in range(len(names))]


def read_csv(source) -> TimeSeries:
    """Parse a series from a CSV byte stream or path, as ``read_table``
    parses it.

    The first line must be the header ``value`` or ``t,value``. The series
    holds 8 bytes per row (16 with ``t``) and takes the parsed columns
    without a copy.
    """
    *times, samples = read_table(source, ("value", "t,value"))
    # read_table has proved the columns finite, nonempty and of one length.
    return proved(TimeSeries, samples=samples, times=times[0] if times else None)


def csv_chunks(header: str, *columns) -> Iterator[bytes]:
    """Encode equal-length columns as CSV under ``header``, LF endings,
    yielding the header line and then one chunk per block of rows.

    A column is a numpy array or a sequence of Python numbers or strings.
    A number is written as ``format_float`` writes it: ``repr``, without a
    trailing ``.0``; a string is written as is and must not end in ``.0``.
    Rows are formatted in blocks of ``_FORMAT_ROWS``, by ``ordered_map`` on
    the usable CPUs. No columns give the header line alone.
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
