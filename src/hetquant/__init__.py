"""Heteroskedasticity quantification via local-variance histograms.

The pipeline estimates sliding-window variances of a series, histograms
them, and scores how close the histogram is to a uniform reference with
Bhattacharyya-family divergences. A full divergence suite (KL, Renyi,
Tsallis, Jensen-Shannon, Hellinger) and a reproducible sweep harness
accompany the score.
"""

from . import distribution, divergence, errors, local_variance, measure, series, sweep

# The package exports exactly its modules' public names. Collected before the
# star imports, which rebind ``local_variance`` and ``measure`` to functions.
__all__ = [
    name
    for module in (distribution, divergence, errors, local_variance, measure, series, sweep)
    for name in module.__all__
]

from .distribution import *
from .divergence import *
from .errors import *
from .local_variance import *
from .measure import *
from .series import *
from .sweep import *

__version__ = "0.1.0"
