"""Divergences, affinities, and entropies over shared-binning histograms.

Every pairwise operation requires both distributions to have identical bin
edges. Zero-mass conventions: 0*log(0/x) = 0, and a positive p-mass facing
a zero q-mass yields +infinity wherever the formula demands it. Infinity is
a first-class result value, never an error.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .distribution import ProbabilityDistribution
from .errors import BinningMismatchError, InternalError, ParameterError

__all__ = [
    "DivergenceResult",
    "bhattacharyya_coefficient",
    "bhattacharyya_distance",
    "hellinger_affinity",
    "hellinger_standard",
    "kl_divergence",
    "renyi_divergence",
    "tsallis_divergence",
    "jensen_shannon_divergence",
    "shannon_entropy",
    "renyi_entropy",
    "evaluate",
    "METRICS",
]

# log base -> (scalar log, divisor that turns a natural log into this base)
_LOGS = {"natural": (math.log, 1.0), "base2": (math.log2, math.log(2.0))}
LOG_BASES = tuple(_LOGS)


def _check_pair(p: ProbabilityDistribution, q: ProbabilityDistribution) -> None:
    if not p.same_edges(q):
        raise BinningMismatchError("distributions do not share identical bin edges")


def _check_log_base(log_base: str) -> tuple[Callable[[float], float], float]:
    """The ``_LOGS`` entry of ``log_base``, which must be one of ``LOG_BASES``."""
    if log_base not in LOG_BASES:
        raise ParameterError(f"log_base must be one of {LOG_BASES}, got {log_base!r}")
    return _LOGS[log_base]


def _clamp_rounding(value: float) -> float:
    """Snap rounding-level negatives of a nonnegative quantity to zero."""
    if value < 0.0:
        if value < -1e-11:
            raise InternalError(f"nonnegative quantity evaluated to {value}")
        return 0.0
    # Adding 0.0 turns IEEE negative zero into positive zero, which "< 0.0"
    # cannot catch; negative zero would otherwise leak into CSV output as -0.
    return value + 0.0


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if alpha == 1.0:
        raise ParameterError("alpha = 1 is the KL limit; call kl_divergence")
    if not math.isfinite(alpha):
        raise ParameterError(f"alpha must be finite, got {alpha}")
    return alpha


def _power_sum(p: np.ndarray, q: np.ndarray, alpha: float) -> float:
    """Sum of p_i^alpha * q_i^(1-alpha), or +inf when the formula demands it.

    Raises ``ParameterError`` when the sum leaves float64 range. A zero sum
    with alpha > 1 can only come from underflow, since every positive p-mass
    then faces a positive q-mass.
    """
    mask = p > 0
    if alpha > 1 and bool(np.any(mask & (q == 0))):
        return math.inf
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        total = float(np.sum(p[mask] ** alpha * q[mask] ** (1.0 - alpha)))
    if not math.isfinite(total) or (total == 0.0 and alpha > 1):
        raise ParameterError(f"alpha = {alpha} takes the power sum out of float64 range")
    return total


def _coefficient(pm: np.ndarray, qm) -> float:
    """Sum of sqrt(pm_i * qm_i), capped at 1; ``qm`` is an array of masses,
    or the one mass of every bin."""
    # Accumulated rounding can overshoot the exact upper bound by ~1e-16.
    return min(float(np.sum(np.sqrt(pm * qm))), 1.0)


def bhattacharyya_coefficient(
    p: ProbabilityDistribution, q: ProbabilityDistribution
) -> float:
    """Sum of sqrt(p_i * q_i): 1 iff the distributions coincide, 0 iff disjoint."""
    _check_pair(p, q)
    return _coefficient(p.masses, q.masses)


def distance_from_coefficient(coefficient: float) -> float:
    """-ln BC for a Bhattacharyya coefficient BC; +infinity at 0, 0 at 1."""
    if coefficient == 0.0:
        return math.inf
    if coefficient >= 1.0:
        return 0.0
    return -math.log(coefficient)


def affinity_from_coefficient(coefficient: float) -> float:
    """1 - sqrt(1 - BC) for a Bhattacharyya coefficient BC."""
    return 1.0 - math.sqrt(1.0 - coefficient)


def bhattacharyya_distance(
    p: ProbabilityDistribution, q: ProbabilityDistribution
) -> float:
    """-ln BC(p, q); +infinity on disjoint supports. Not a metric."""
    return distance_from_coefficient(bhattacharyya_coefficient(p, q))


def hellinger_affinity(p: ProbabilityDistribution, q: ProbabilityDistribution) -> float:
    """Affinity variant 1 - sqrt(1 - BC): 1 for identical, 0 for disjoint."""
    return affinity_from_coefficient(bhattacharyya_coefficient(p, q))


def hellinger_standard(p: ProbabilityDistribution, q: ProbabilityDistribution) -> float:
    """Textbook Hellinger distance sqrt(1 - BC); a true metric in [0, 1]."""
    return math.sqrt(1.0 - bhattacharyya_coefficient(p, q))


def kl_divergence(
    p: ProbabilityDistribution, q: ProbabilityDistribution, log_base: str = "natural"
) -> float:
    """Relative entropy of p with respect to q.

    Returns +infinity when some bin has positive p-mass but zero q-mass.
    """
    _check_pair(p, q)
    _, divisor = _check_log_base(log_base)
    pm, qm = p.masses, q.masses
    mask = pm > 0
    if bool(np.any(mask & (qm == 0))):
        return math.inf
    value = float(np.sum(pm[mask] * np.log(pm[mask] / qm[mask])))
    return _clamp_rounding(value / divisor)


def renyi_divergence(
    p: ProbabilityDistribution,
    q: ProbabilityDistribution,
    alpha: float,
    log_base: str = "natural",
) -> float:
    """Order-alpha Renyi divergence log(sum p^a q^(1-a)) / (a - 1).

    Nondecreasing in alpha, nonnegative, and equal to twice the
    Bhattacharyya distance at alpha = 1/2.
    """
    _check_pair(p, q)
    alpha = _check_alpha(alpha)
    log, _ = _check_log_base(log_base)
    total = _power_sum(p.masses, q.masses, alpha)
    if total == 0.0 or math.isinf(total):
        return math.inf
    value = log(total) / (alpha - 1.0)
    return _clamp_rounding(value)


def tsallis_divergence(
    p: ProbabilityDistribution, q: ProbabilityDistribution, alpha: float
) -> float:
    """Order-alpha Tsallis divergence (1 - sum p^a q^(1-a)) / (1 - a)."""
    _check_pair(p, q)
    alpha = _check_alpha(alpha)
    total = _power_sum(p.masses, q.masses, alpha)
    if math.isinf(total):
        return math.inf
    value = (1.0 - total) / (1.0 - alpha)
    return _clamp_rounding(value)


def jensen_shannon_divergence(
    p: ProbabilityDistribution, q: ProbabilityDistribution
) -> float:
    """Symmetric, base-2 Jensen-Shannon divergence, bounded in [0, 1]."""
    _check_pair(p, q)
    pm, qm = p.masses, q.masses
    mixture = (pm + qm) / 2.0
    value = 0.0
    for masses in (pm, qm):
        mask = masses > 0
        value += 0.5 * float(np.sum(masses[mask] * np.log2(masses[mask] / mixture[mask])))
    return min(_clamp_rounding(value), 1.0)


def shannon_entropy(p: ProbabilityDistribution, log_base: str = "natural") -> float:
    """-sum p_i log p_i with the 0 log 0 = 0 convention."""
    _, divisor = _check_log_base(log_base)
    masses = p.masses[p.masses > 0]
    value = -float(np.sum(masses * np.log(masses)))
    return _clamp_rounding(value / divisor)


def renyi_entropy(
    p: ProbabilityDistribution, alpha: float, log_base: str = "natural"
) -> float:
    """Order-alpha Renyi entropy log(sum p^a) / (1 - a); ln B on uniforms."""
    alpha = _check_alpha(alpha)
    log, _ = _check_log_base(log_base)
    # The power sum against q = 1, whose factors 1^(1-alpha) are exactly 1.
    total = _power_sum(p.masses, np.ones_like(p.masses), alpha)
    value = log(total) / (1.0 - alpha)
    return _clamp_rounding(value)


@dataclass(frozen=True)
class DivergenceResult:
    """A named metric value with its parameters and boundedness flag."""

    metric: str
    value: float
    alpha: float | None = None
    log_base: str | None = None
    bounded: bool = False


# metric name -> (function, needs q, needs alpha, uses log_base, bounded on
# [0, 1], fixed log base). Every function takes (p[, q][, alpha][, log_base])
# as flagged; a metric that takes no log_base reports its fixed base, if any.
_METRIC_TABLE = {
    "bc": (bhattacharyya_coefficient, True, False, False, True, None),
    "bhattacharyya": (bhattacharyya_distance, True, False, False, False, None),
    "hellinger_affinity": (hellinger_affinity, True, False, False, True, None),
    "hellinger_standard": (hellinger_standard, True, False, False, True, None),
    "kl": (kl_divergence, True, False, True, False, None),
    "renyi": (renyi_divergence, True, True, True, False, None),
    "tsallis": (tsallis_divergence, True, True, False, False, None),
    "jsd": (jensen_shannon_divergence, True, False, False, True, "base2"),
    "shannon_entropy": (shannon_entropy, False, False, True, False, None),
    "renyi_entropy": (renyi_entropy, False, True, True, False, None),
}

# metric name -> (needs q, needs alpha, uses log_base, bounded on [0, 1])
METRICS: dict[str, tuple[bool, bool, bool, bool]] = {
    name: row[1:5] for name, row in _METRIC_TABLE.items()
}


def evaluate(
    metric: str,
    p: ProbabilityDistribution,
    q: ProbabilityDistribution | None = None,
    alpha: float | None = None,
    log_base: str = "natural",
) -> DivergenceResult:
    """Dispatch a metric by name, validating its parameter requirements."""
    if metric not in METRICS:
        raise ParameterError(
            f"unknown metric {metric!r}; choose from {sorted(METRICS)}"
        )
    _check_log_base(log_base)
    function, needs_q, needs_alpha, uses_base, bounded, fixed_base = _METRIC_TABLE[metric]
    if needs_q and q is None:
        raise ParameterError(f"metric {metric!r} requires a second distribution")
    if not needs_q and q is not None:
        raise ParameterError(f"metric {metric!r} takes only one distribution")
    if needs_alpha and alpha is None:
        raise ParameterError(f"metric {metric!r} requires alpha")
    if not needs_alpha and alpha is not None:
        raise ParameterError(f"alpha is not a parameter of metric {metric!r}")
    args = [p] + [q] * needs_q + [alpha] * needs_alpha + [log_base] * uses_base
    value = function(*args)
    return DivergenceResult(
        metric=metric,
        value=value,
        alpha=alpha,
        log_base=log_base if uses_base else fixed_base,
        bounded=bounded,
    )
