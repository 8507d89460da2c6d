"""Sliding-window local variance via box-filter running sums.

Position i of the output holds the population variance of samples
[i, i+w), computed as the windowed mean of squares minus the squared
windowed mean. Only fully covered windows are emitted, so the output has
length N - w + 1.

Each result also carries a zero floor: the scale of the rounding residue
that the running-sum differences can leave. A variance at or below it
cannot be told from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalError, ParameterError
from .series import TimeSeries

__all__ = ["LocalVarianceSeries", "local_variance"]

# Results below this are treated as numerical corruption rather than rounding.
_NEGATIVE_TOLERANCE = -1e-9


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
        variances = np.asarray(self.variances, dtype=np.float64)
        if variances.ndim != 1 or variances.size < 1:
            raise ParameterError("variances must be a nonempty one-dimensional array")
        if np.any(variances < 0) or not np.all(np.isfinite(variances)):
            raise ParameterError("variances must be finite and nonnegative")
        if self.window < 2:
            raise ParameterError("window must be at least 2")
        if not (np.isfinite(self.zero_floor) and self.zero_floor >= 0):
            raise ParameterError("zero_floor must be finite and nonnegative")
        variances = variances.copy()
        variances.flags.writeable = False
        object.__setattr__(self, "variances", variances)

    def __len__(self) -> int:
        return int(self.variances.size)


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

    The global mean is subtracted before forming the running sums to limit
    catastrophic cancellation in E[x^2] - E[x]^2, and the sums accumulate in
    extended precision so their rounding stays far below the 1e-9 oracle
    tolerance even for long, large-amplitude series. Tiny negative outputs
    from rounding are clamped to zero; anything below -1e-9 raises an
    internal error.

    The zero floor is N * eps * (sum of squares) / w, with eps the
    precision of the accumulation type: the first-order worst case of the
    rounding a sequential running sum of N terms carries into a windowed
    difference. A stretch of constant samples between noisy ones leaves
    residues of this kind (around 1e-18 for unit noise) where the true
    variance is 0.
    """
    n = len(series)
    if window < 2:
        raise ParameterError(f"window must be at least 2, got {window}")
    if window > n:
        raise ParameterError(f"window ({window}) exceeds series length ({n})")
    x = (series.samples - series.samples.mean()).astype(np.longdouble)
    zero = np.zeros(1, dtype=np.longdouble)
    cum1 = np.concatenate((zero, np.cumsum(x)))
    cum2 = np.concatenate((zero, np.cumsum(x * x)))
    mean = (cum1[window:] - cum1[:-window]) / window
    mean_sq = (cum2[window:] - cum2[:-window]) / window
    variances = (mean_sq - mean * mean).astype(np.float64)
    lowest = variances.min()
    if lowest < _NEGATIVE_TOLERANCE:
        raise InternalError(
            f"box-filter variance fell to {lowest}, beyond rounding tolerance"
        )
    np.maximum(variances, 0.0, out=variances)
    zero_floor = float(n * np.finfo(x.dtype).eps * cum2[-1] / window)
    return LocalVarianceSeries(variances, window=window, zero_floor=zero_floor)
