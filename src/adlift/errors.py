"""Exception hierarchy and warning categories shared across the package.

Data errors (malformed input, contract violations) map to CLI exit code 2,
numerical failures (non-convergence, unidentifiable fits) to exit code 3.
"""

from __future__ import annotations


class AdliftError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class DataError(AdliftError):
    """Input data violates a documented contract."""

    exit_code = 2


class NumericalError(AdliftError):
    """A numerical procedure failed to produce a usable result."""

    exit_code = 3


# --- ingest ---------------------------------------------------------------

class MissingColumn(DataError):
    pass


class BadLabel(DataError):
    pass


class RaggedRow(DataError):
    pass


class UnalignedWindow(DataError):
    pass


# --- features -------------------------------------------------------------

class EmptyTable(DataError):
    pass


class BadAlpha(DataError):
    pass


class ZeroCellAtSmallAlpha(NumericalError):
    """alpha < 1 with an empty joint cell whose marginals are positive."""


class DimensionMismatch(DataError):
    pass


# --- predictor ------------------------------------------------------------

class FingerprintMismatch(DataError):
    pass


class VersionMismatch(DataError):
    pass


class CorruptFile(DataError):
    pass


# --- repeatbuy ------------------------------------------------------------

class DomainError(DataError):
    pass


class DegenerateData(NumericalError):
    """NBD not identifiable on the given data.

    Carries ``poisson_mean``, the zero-truncated Poisson MLE, as fallback.
    """

    def __init__(self, message: str, poisson_mean: float | None = None):
        super().__init__(message)
        self.poisson_mean = poisson_mean


class NoConvergence(NumericalError):
    pass


class InconsistentInputs(NumericalError):
    pass


# --- timeseries -----------------------------------------------------------

class TooShort(DataError):
    pass


class ZeroTotal(DataError):
    pass


class OutOfDomain(DataError):
    pass


# --- synth ----------------------------------------------------------------

class BadSpec(DataError):
    pass


# --- warnings -------------------------------------------------------------

class AllPrunedWarning(UserWarning):
    """Every factor importance fell at or below the sparsity threshold."""


class RankDeficientWarning(UserWarning):
    """Requested rank exceeds numerical rank; it was reduced."""


class NoDeathsWarning(UserWarning):
    """All cookies censored; reported lifetime is a lower bound."""
