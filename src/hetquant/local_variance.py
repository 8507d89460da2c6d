"""Sliding-window local variance via a float64 box filter.

Position i of the output holds the population variance of samples
[i, i+w), computed as the windowed mean of squares minus the squared
windowed mean. Only fully covered windows are emitted, so the output has
length N - w + 1.

Each result also carries a zero floor: a bound on the rounding residue
that the windowed sums can leave. A variance at or below it cannot be
told from zero.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InternalError, ParameterError
from .series import TimeSeries, frozen_array, integer

__all__ = ["LocalVarianceSeries", "local_variance"]

# Results below minus the larger of this and the zero floor are treated as
# numerical corruption rather than rounding.
_NEGATIVE_TOLERANCE = 1e-9

# Fewest outputs per block: a pass computes its outputs in blocks of
# max(_BLOCK_OUTPUTS, 4 w) for its largest window w. Block [a, b) reads only
# samples [a, b + w - 1), and each output is a summation tree over its own
# window, so the bits do not depend on the block size. Slices of
# 2**13 + w - 1 float64s stay under glibc's default mmap threshold (128 KiB)
# up to w = 2**11; at larger windows, the w - 1 samples that each block reads
# again cost at most a quarter more work.
_BLOCK_OUTPUTS = 1 << 13

# A pass takes windows, at least one, while their results hold at most the
# larger of _PASS_OUTPUTS times N variances and _PASS_FLOOR variances (4 MiB).
# So a long series' memory does not grow with its number of windows, and a
# default sweep cell takes one pass.
_PASS_OUTPUTS = 2
_PASS_FLOOR = 1 << 19


def variance_array(values) -> np.ndarray:
    """``frozen_array`` of ``values``, which must be nonempty and nonnegative."""
    variances = frozen_array(values, "variances")
    if variances.size < 1:
        raise ParameterError("variances must hold at least one value")
    if (variances < 0).any():
        raise ParameterError("variances must be nonnegative")
    return variances


@dataclass(frozen=True, eq=False)
class LocalVarianceSeries:
    """Nonnegative variance estimates plus the window that produced them.

    ``zero_floor`` is the level at or below which an estimate is rounding
    residue of the box filter rather than signal; 0 means every positive
    estimate is signal. ``variances`` is taken as ``frozen_array`` takes it.
    """

    variances: np.ndarray
    window: int
    zero_floor: float = 0.0

    def __post_init__(self) -> None:
        variances = variance_array(self.variances)
        object.__setattr__(self, "window", integer(self.window, "window", 2, ParameterError))
        if not (np.isfinite(self.zero_floor) and self.zero_floor >= 0):
            raise ParameterError("zero_floor must be finite and nonnegative")
        object.__setattr__(self, "variances", variances)

    def __len__(self) -> int:
        return int(self.variances.size)


def _window_means(values: np.ndarray, windows: list[int], means: list[np.ndarray]) -> None:
    """Write into ``means[i]`` the means of the first ``means[i].size``
    length-``windows[i]`` slices of ``values``, by doubling.

    At level k, ``level[i]`` is the sum of ``values[i : i + 2**k]``, and
    ``level[:-2**k] + level[2**k:]`` is level k + 1. A window's sum adds,
    at increasing offsets, the level of every set bit k of w. The levels
    are built once, up to the largest window, and each is taken by every
    window that has its bit while it is the current one. So each output is
    a summation tree over its own window only, whatever the other windows.
    A window's first set-bit level is written straight into its output,
    the other levels are added in order, and the sum is divided by w after
    the last. A power-of-two w = 2**k, whose only level is the first, is
    multiplied by 2**-k instead: both round the exact x 2**-k correctly,
    subnormals included, so the bits are the same, and a multiply costs
    about half as much.

    Starting from the first level rather than from 0.0 changes only the
    sign of a zero sum of -0.0 samples (0.0 + -0.0 is +0.0). That sign
    reaches only a mean that is then squared, and a sum of squares is
    never -0.0, so every variance and zero floor keeps its bits.
    """
    offsets = [0] * len(windows)
    top = max(windows)
    level, span = values, 1
    while True:
        for i, (window, mean) in enumerate(zip(windows, means)):
            if window & span:
                part = level[offsets[i] : offsets[i] + mean.size]
                first, last = offsets[i] == 0, 2 * span > window
                if first and last:
                    np.multiply(part, 1.0 / window, out=mean)
                elif first:
                    np.copyto(mean, part)
                else:
                    mean += part
                    if last:
                        mean /= window
                offsets[i] += span
        if 2 * span > top:
            return
        level = level[:-span] + level[span:]
        span *= 2


def local_variance(series: TimeSeries, window: int) -> LocalVarianceSeries:
    """Estimate the variance of every length-``window`` slice of ``series``.

    Parameters
    ----------
    series : TimeSeries
        Input samples.
    window : int
        Sliding-window width w, between 2 and the series length.

    Returns
    -------
    LocalVarianceSeries
        N - w + 1 nonnegative variance estimates and their zero floor.

    The global mean is subtracted first to limit catastrophic cancellation
    in E[x^2] - E[x]^2. The windowed sums of x and x^2 are then formed in
    float64 by doubling (see ``_window_means``), so each window's sums are
    rounded only along a summation tree over its own w samples, of depth at
    most d = bit_length(w) - 1 + popcount(w) - 1. The rounding therefore
    does not grow with the series length and does not depend on the
    platform's ``long double``. Negative outputs from rounding are clamped
    to zero; anything below minus the larger of 1e-9 and the zero floor
    raises an internal error. Samples whose window sums of squares overflow
    float64 (magnitudes from about 1e154 up) raise ``ParameterError``.

    The zero floor bounds that rounding to first order. With unit roundoff
    u = eps/2 and M a window's mean square: the mean square carries the d
    adds, the squaring and the division by w, at most (d + 2) u M; the mean
    carries (d + 1) u times the mean absolute value, at most sqrt(M), so
    its square carries (2d + 3) u M; the subtraction adds u M. The sum is
    3 (d + 2) u M = 1.5 (bit_length(w) + popcount(w)) eps M, taken at the
    largest M of the series. A stretch of constant samples between noisy
    ones can leave residues of this kind where the true variance is 0
    (none at a power-of-two w, whose sums of equal terms are exact). The
    floor is 0 for a constant series whose mean is exact. The bound takes
    the centred samples as given: the rounding of subtracting the mean is
    not in it.

    Memory is 8 bytes per sample, the result, which its container takes
    without a copy (9 at peak, while the one-byte finiteness mask is held),
    plus O(block + w) scratch.
    """
    return next(_local_variances(series, [window]))


def _local_variances(series: TimeSeries, windows) -> Iterator[LocalVarianceSeries]:
    """Yield ``local_variance(series, w)`` for each w of ``windows``, in order.

    The windows are computed in passes (see ``_PASS_OUTPUTS``), each of
    which holds only its own results until they are yielded. The first
    window out of range raises before any pass. Each pass returns raw,
    unclamped variances, and each window's result is then checked, clamped
    and yielded in turn, so the first window whose sums overflow raises
    after the windows before it in its pass have been yielded.
    """
    samples = series.samples
    n = samples.size
    limit = max(_PASS_OUTPUTS * n, _PASS_FLOOR)
    passes, outputs = [[]], 0
    for window in windows:
        window = integer(window, "window", 2, ParameterError)
        if window > n:
            raise ParameterError(f"window ({window}) exceeds series length ({n})")
        if passes[-1] and outputs + n - window + 1 > limit:
            passes.append([])
            outputs = 0
        passes[-1].append(window)
        outputs += n - window + 1
    for group in passes:
        results, block_max_sq = _one_pass(samples, group)
        for i, window in enumerate(group):
            variances, results[i] = results[i], None
            # np.max, unlike Python's max, keeps a NaN from any block.
            depth_terms = window.bit_length() + window.bit_count()
            zero_floor = float(1.5 * depth_terms * np.finfo(np.float64).eps * np.max(block_max_sq[i]))
            if not np.isfinite(zero_floor):
                raise ParameterError("samples are too large: their window sums of squares overflow float64")
            lowest = variances.min()
            if lowest < -max(_NEGATIVE_TOLERANCE, zero_floor):
                raise InternalError(
                    f"box-filter variance fell to {lowest}, beyond rounding tolerance"
                )
            if not lowest >= 0:
                np.maximum(variances, 0.0, out=variances)
            # Handed over: nothing else holds this array.
            variances.flags.writeable = False
            yield LocalVarianceSeries(variances, window=window, zero_floor=zero_floor)
            # Else a result the caller has dropped lives on through the next pass.
            del variances


def _one_pass(samples: np.ndarray, windows: list[int]) -> tuple[list[np.ndarray], list[list[float]]]:
    """The raw, unclamped variances at each of ``windows`` from one blocked
    pass (see ``_BLOCK_OUTPUTS``), and each window's largest mean square per
    block. Each block builds the doubling levels of its centred samples
    once, up to the largest window, and every window takes its means from
    them; the bits are those of one window alone. Then each window squares
    its means, subtracts them from its mean squares and takes the block's
    largest mean square. ``_local_variances`` checks, clamps and freezes
    each result.
    """
    n = samples.size
    top = max(windows)
    block = max(_BLOCK_OUTPUTS, 4 * top)
    # Each window's means are written into its result, its mean squares
    # into one block of scratch; every element is written before it is read.
    results = [np.empty(n - window + 1) for window in windows]
    scratch = [np.empty(min(block, n - window + 1)) for window in windows]
    block_max_sq = [[] for _ in windows]
    # Overflow turns up as a zero floor that is not finite, which the caller checks.
    with np.errstate(over="ignore", invalid="ignore"):
        center = samples.mean()
        for a in range(0, n - min(windows) + 1, block):
            # Each window reads a prefix of x. One whose outputs ended in an
            # earlier block gets empty slices.
            x = samples[a : a + block + top - 1] - center
            means = [result[a : a + block] for result in results]
            _window_means(x, windows, means)
            np.multiply(x, x, out=x)
            mean_sqs = [part[: mean.size] for part, mean in zip(scratch, means)]
            _window_means(x, windows, mean_sqs)
            for i, (mean, mean_sq) in enumerate(zip(means, mean_sqs)):
                if not mean.size:
                    continue
                np.multiply(mean, mean, out=mean)
                np.subtract(mean_sq, mean, out=mean)
                block_max_sq[i].append(mean_sq.max())
    return results, block_max_sq
