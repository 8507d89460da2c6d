"""Exception hierarchy shared across the library and the CLI.

Every error carries a short ``category`` label that the command-line
front end prints as ``error: <category>: <detail>``.  Validation-type
failures map to exit code 1, I/O failures to exit code 2.
"""

from __future__ import annotations

__all__ = [
    "HetquantError",
    "ConfigurationError",
    "ParameterError",
    "IngestionError",
    "BinningMismatchError",
    "CorrelationUndefinedError",
    "InternalError",
]


class HetquantError(Exception):
    """Base class for all library errors."""

    category = "internal"


class ConfigurationError(HetquantError):
    """A generator or sweep configuration violates its invariants."""

    category = "configuration"


class ParameterError(HetquantError):
    """An operation parameter (window, bins, alpha) is out of range."""

    category = "parameter"


class IngestionError(HetquantError):
    """A CSV input could not be parsed; messages name the offending row."""

    category = "ingestion"


class BinningMismatchError(HetquantError):
    """Two distributions do not share identical bin edges."""

    category = "binning"


class CorrelationUndefinedError(HetquantError):
    """Rank correlation is undefined (zero rank variance or bad lengths)."""

    category = "correlation"


class InternalError(HetquantError):
    """A numerical result violated an internal sanity bound."""

    category = "internal"
