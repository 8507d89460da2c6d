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

from dataclasses import dataclass

import numpy as np

from .errors import InternalError, ParameterError
from .series import TimeSeries, frozen_array, integer

__all__ = ["LocalVarianceSeries", "local_variance"]

# Results below minus the larger of this and the zero floor are treated as
# numerical corruption rather than rounding.
_NEGATIVE_TOLERANCE = 1e-9

# Fewest outputs per block. A block's slices of 2**13 + w - 1 float64s stay
# under glibc's default mmap threshold (128 KiB) up to w = 2**11, as
# series._BLOCK_BYTES does; larger windows take 4 w outputs, so the w - 1
# samples each block reads again cost at most a quarter more work.
_BLOCK_OUTPUTS = 1 << 13


def variance_array(values) -> np.ndarray:
    """``frozen_array`` copy of ``values``, which must be nonempty and nonnegative."""
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
    estimate is signal.
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


def _window_sums(values: np.ndarray, window: int) -> np.ndarray:
    """Sum every length-``window`` slice of ``values`` by doubling.

    At level k, ``level[i]`` is the sum of ``values[i : i + 2**k]``, and
    ``level[:-2**k] + level[2**k:]`` is level k + 1. The window sum adds,
    at increasing offsets, the level of every set bit k of ``window``. So
    each output is a summation tree over its own window only, and the cost
    is O(N log2(window)) adds.
    """
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
    float64 by doubling (see ``_window_sums``), so each window's sums are
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
    floor is 0 for a constant series whose mean is exact.

    Outputs are computed in blocks of max(2**13, 4 w): block [a, b) reads
    only samples [a, b + w - 1), and since each output is a summation tree
    over its own window, the bits do not depend on the block size. Memory
    is 16 bytes per sample (the result and its frozen copy; 17 at peak,
    while the copy's one-byte finiteness mask is held) plus O(block + w)
    scratch.
    """
    samples = series.samples
    n = samples.size
    window = integer(window, "window", 2, ParameterError)
    if window > n:
        raise ParameterError(f"window ({window}) exceeds series length ({n})")
    n_out = n - window + 1
    block = max(_BLOCK_OUTPUTS, 4 * window)
    variances = np.empty(n_out)
    block_max_sq, block_min = [], []
    # Overflow turns up as a zero floor that is not finite, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        center = samples.mean()
        for a in range(0, n_out, block):
            b = min(a + block, n_out)
            x = samples[a : b + window - 1] - center
            mean = _window_sums(x, window)
            mean /= window
            np.multiply(x, x, out=x)
            mean_sq = _window_sums(x, window)
            mean_sq /= window
            np.multiply(mean, mean, out=mean)
            out = variances[a:b]
            np.subtract(mean_sq, mean, out=out)
            block_max_sq.append(mean_sq.max())
            block_min.append(out.min())
            np.maximum(out, 0.0, out=out)
    # np.max and np.min, unlike Python's, keep a NaN from any block.
    depth_terms = window.bit_length() + window.bit_count()
    zero_floor = float(1.5 * depth_terms * np.finfo(np.float64).eps * np.max(block_max_sq))
    if not np.isfinite(zero_floor):
        raise ParameterError("samples are too large: their window sums of squares overflow float64")
    lowest = np.min(block_min)
    if lowest < -max(_NEGATIVE_TOLERANCE, zero_floor):
        raise InternalError(
            f"box-filter variance fell to {lowest}, beyond rounding tolerance"
        )
    return LocalVarianceSeries(variances, window=window, zero_floor=zero_floor)
