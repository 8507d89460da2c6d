"""Timing relative to a fixed reference task, to cancel machine drift.

On a shared host the machine's speed drifts by up to 2x over seconds to
minutes as other tenants come and go, and different kinds of work slow
down by different amounts. Each workload is therefore timed against a
reference task of the kind of work it spends its time on, which does not
touch hetquant:

- ``floats``: formatting and parsing many floats (file-roundtrip, whose
  time goes to series CSV formatting and parsing);
- ``prefix-sums``: extended-precision numpy prefix sums and a histogram
  (sweep-grid, whose time goes to the variance kernel);
- ``small-csv``: parsing a two-column CSV row by row and building an
  argument parser (divergence-suite, whose time goes to reading
  distribution CSVs and to the CLI itself).

A timed span divided by the mean of the reference times measured just
before and just after it keeps the span's cost and drops most of the drift.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

_VALUES = np.random.default_rng(0).normal(size=1 << 17)
_FLOATS = _VALUES[: 1 << 14].tolist()
_CSV = "".join(f"{a!r},{b!r}\n" for a, b in zip(_FLOATS[:2048], _FLOATS[2048:4096]))


def _floats() -> None:
    text = "\n".join(map(repr, _FLOATS))
    [float(token) for token in text.split("\n")]


def _prefix_sums() -> None:
    for _ in range(3):
        np.cumsum(_VALUES.astype(np.longdouble))
    np.histogram(_VALUES, 64)


def _small_csv() -> None:
    for _ in range(2):
        rows = []
        for line in _CSV.splitlines():
            a, b = line.split(",")
            x, y = float(a), float(b)
            if not (np.isfinite(x) and np.isfinite(y)):
                raise ValueError(line)
            rows.append((x, y))
        np.array(rows)
    parser = argparse.ArgumentParser()
    commands = parser.add_subparsers()
    for i in range(4):
        command = commands.add_parser(f"c{i}", formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for j in range(8):
            command.add_argument(f"--a{j}", type=float, default=0.5, help="value")


REFERENCES = {"floats": _floats, "prefix-sums": _prefix_sums, "small-csv": _small_csv}


def reference_seconds(kind: str, reps: int = 1) -> float:
    """Wall time of one pass of the ``kind`` reference, averaged over
    ``reps`` passes (each about 10-25 ms on a 2-vCPU Xeon VM)."""
    work = REFERENCES[kind]
    start = time.perf_counter()
    for _ in range(reps):
        work()
    return (time.perf_counter() - start) / reps


class Normalizer:
    """Accumulates timed spans in units of the reference time around them.

    Spans shorter than ``long_span`` seconds wait for the next ``mark``;
    a longer span is bracketed at once, so drift inside a long iteration
    is tracked call by call. Each reference run lasts about ``share`` of
    the spans it brackets, and at least two passes, so it averages over
    the same short-term noise. ``reference(reps)`` returns the seconds of
    one pass averaged over ``reps`` passes.
    """

    def __init__(self, reference, share: float = 1 / 8, long_span: float = 1.0) -> None:
        self._reference = reference
        self._share = share
        self._long_span = long_span
        self._last = reference(2)
        self._pending = 0.0
        self.relative = 0.0

    def add(self, seconds: float) -> None:
        self._pending += seconds
        if seconds >= self._long_span:
            self.mark()

    def mark(self) -> None:
        """Run the reference now and charge the pending spans against it."""
        if not self._pending:
            return
        reps = max(2, round(self._share * self._pending / self._last))
        after = self._reference(reps)
        self.relative += self._pending / ((self._last + after) / 2)
        self._last = after
        self._pending = 0.0
