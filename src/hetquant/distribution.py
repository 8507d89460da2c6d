"""Normalized histograms over variance space and the uniform reference.

Two binnings are offered (see ``estimate_pdf``): ``"linear"`` splits
[0, max(variances)], anchored at zero to match the idealized
uniform-over-[0, inf) reference, and ``"log"`` splits ln(variance) so that
one noise level fills about one bin whatever its scale. Either way the
reference is a discrete uniform on the same bins.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from .errors import IngestionError, ParameterError
from .local_variance import LocalVarianceSeries, variance_array
from .series import csv_bytes, frozen_array, integer, proved, read_table, write_bytes

__all__ = [
    "ProbabilityDistribution",
    "estimate_pdf",
    "uniform_reference",
    "distribution_csv_bytes",
    "write_distribution_csv",
    "read_distribution_csv",
]

# estimate_pdf counts the values in slices of this many: it sorts a copy of
# each slice, and a sweep cell holds the variances of the windows it has not
# yet counted beside it.
_COUNT_SLICE = 1 << 14

_SUM_TOLERANCE = 1e-12

BINNINGS = ("log", "linear")


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution:
    """Histogram with B+1 strictly increasing edges and B probability masses."""

    edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        edges = frozen_array(self.edges, "edges")
        masses = frozen_array(self.masses, "masses")
        if edges.size < 2:
            raise ParameterError("edges must hold at least two boundaries")
        if masses.size != edges.size - 1:
            raise ParameterError("masses must hold exactly one value per bin")
        # Finite edges may differ by more than the largest float: an inf step.
        with np.errstate(over="ignore"):
            if np.any(np.diff(edges) <= 0):
                raise ParameterError("edges must be strictly increasing")
        if np.any(masses < 0):
            raise ParameterError("masses must be finite and nonnegative")
        total = float(masses.sum())
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ParameterError(f"masses must sum to 1, got {total!r}")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "masses", masses)

    @property
    def bins(self) -> int:
        return int(self.masses.size)

    @property
    def midpoints(self) -> np.ndarray:
        return _halfway(self.edges[:-1], self.edges[1:])

    def same_edges(self, other: "ProbabilityDistribution") -> bool:
        return np.array_equal(self.edges, other.edges)


def _halfway(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a + b) / 2`` elementwise, or ``a / 2 + b / 2`` where the sum overflows."""
    with np.errstate(over="ignore"):
        plain = (a + b) / 2.0
    return np.where(np.isfinite(plain), plain, a / 2.0 + b / 2.0)


def estimate_pdf(variances, bins: int, binning: str = "linear") -> ProbabilityDistribution:
    """Histogram nonnegative variance values into a normalized distribution.

    Accepts a LocalVarianceSeries or any sequence of nonnegative reals.

    ``binning="linear"``: the bin edges split [0, max(values)] linearly; an
    all-zero input degenerates to support [0, 1] so the mass concentrates in
    the first bin. The last bin includes its right edge, so the maximum
    always lands inside.

    ``binning="log"`` needs a LocalVarianceSeries, whose window w and zero
    floor it uses. The edges are in ln-variance units and start at the
    smallest ln variance above the floor; the bins are equal and span
    max(observed ln range, bins * sqrt(2/(w-1))), where sqrt(2/(w-1)) is
    the spread of the ln of a w-sample variance of Gaussian noise.
    Variances at or below the floor count as zero and land in the first
    bin; with nothing above the floor the edges start at 0 and all mass is
    in the first bin.
    """
    if binning not in BINNINGS:
        raise ParameterError(f"binning must be one of {BINNINGS}, got {binning!r}")
    if isinstance(variances, LocalVarianceSeries):
        values = variances.variances
    elif binning == "log":
        raise ParameterError("log binning needs a LocalVarianceSeries for its window and zero floor")
    else:
        values = variance_array(variances)
    bins = integer(bins, "bins", 1, ParameterError)
    if binning == "log":
        edges, counting = _log_edges(values, bins, variances.window, variances.zero_floor)
    else:
        top = float(values.max())
        if top <= 0.0:
            top = 1.0
        edges = counting = np.linspace(0.0, top, bins + 1)
        # Near the subnormal floor the steps of linspace round to 0 or go backwards.
        if np.any(np.diff(edges) <= 0):
            raise ParameterError(
                f"the largest variance, {top!r}, is too small to split into {bins} linear bins"
            )
    occupied = _bin_counts(values, counting)
    counts = np.zeros(bins)
    counts[: occupied.size] = occupied
    # Edges finite and rising (checked above, or steps of at least width); masses are counts over their sum.
    return proved(ProbabilityDistribution, edges=edges, masses=counts / counts.sum())


def _bin_counts(values: np.ndarray, counting: np.ndarray) -> np.ndarray:
    """``np.histogram(values, bins=counting)[0]`` for values that all lie in
    [counting[0], counting[-1]], the last bin including its right edge.

    As np.histogram does with explicit edges, a sorted copy of each slice of
    the values is searched for the edges, without np.histogram's checks and
    set-up on every slice. The values below each edge but the last add up
    over the slices, all of them lie at or below the last, and the counts
    are the differences.
    """
    below = np.zeros(counting.size - 1, dtype=np.intp)
    for i in range(0, values.size, _COUNT_SLICE):
        below += np.sort(values[i : i + _COUNT_SLICE]).searchsorted(counting[:-1], side="left")
    return np.diff(below, append=values.size)


def _log_edges(values: np.ndarray, bins: int, window: int, zero_floor: float) -> tuple:
    """The log binning's ln-variance edges, and the variance edges that count them."""
    # Counting the raw values against exp(edges) gives the counts of
    # ln(values) against edges without a log of every value. The first
    # counting edge is 0, so residues at or below the floor join the first
    # bin; inner edges above ln(top) hold nothing and are left out, which
    # keeps every counting edge finite at any span.
    width = sqrt(2.0 / (window - 1))
    top = float(values.max())
    if top <= zero_floor:
        return np.arange(bins + 1) * width, np.array([0.0, np.inf])
    low = float(values.min())
    if low <= zero_floor:
        low = float(values[values > zero_floor].min())
    lo, hi = log(low), log(top)
    span = max(hi - lo, bins * width)
    edges = np.linspace(lo, lo + span, bins + 1)
    inner = edges[1:bins]
    inner = inner[: np.searchsorted(inner, hi, side="right")]
    return edges, np.concatenate(([0.0], np.exp(inner), [np.inf]))


def uniform_reference(like: ProbabilityDistribution) -> ProbabilityDistribution:
    """Discrete uniform distribution on the same bin edges as ``like``."""
    bins = like.bins
    return ProbabilityDistribution(like.edges, np.full(bins, 1.0 / bins))


def distribution_csv_bytes(dist: ProbabilityDistribution) -> bytes:
    """Two-column ``bin_midpoint,mass`` CSV encoding, LF endings."""
    return csv_bytes("bin_midpoint,mass", dist.midpoints, dist.masses)


def write_distribution_csv(dist: ProbabilityDistribution, sink) -> None:
    """Write the ``bin_midpoint,mass`` CSV of ``dist`` to a binary sink or path."""
    write_bytes(distribution_csv_bytes(dist), sink)


def read_distribution_csv(source) -> ProbabilityDistribution:
    """Parse a ``bin_midpoint,mass`` CSV back into a distribution.

    Edges are reconstructed halfway between consecutive midpoints (see
    ``_halfway``). A single-bin file gets the narrowest bin around its
    midpoint, one ``np.spacing`` to either side, whose midpoint is the
    file's to the bit. An outer edge that overflows is rejected. Masses
    must sum to 1.
    """
    mids, masses = read_table(source, ("bin_midpoint,mass",))
    # Near the largest floats a difference or edge overflows to inf; the
    # constructor below rejects such edges as not finite.
    with np.errstate(over="ignore"):
        if mids.size > 1 and np.any(np.diff(mids) <= 0):
            raise IngestionError("bin midpoints must be strictly increasing")
        if mids.size == 1:
            step = np.spacing(abs(mids[0]))
            edges = np.array([mids[0] - step, mids[0] + step])
        else:
            inner = _halfway(mids[:-1], mids[1:])
            first = mids[0] - (inner[0] - mids[0])
            last = mids[-1] + (mids[-1] - inner[-1])
            edges = np.concatenate(([first], inner, [last]))
    try:
        return ProbabilityDistribution(edges, masses)
    except ParameterError as exc:
        raise IngestionError(str(exc)) from None
