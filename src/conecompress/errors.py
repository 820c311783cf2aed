"""Exception taxonomy shared across the package."""

from __future__ import annotations


class ConeCompressError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ConeCompressError, ValueError):
    """Problem data failed a precondition."""


class NonPositiveDimensionError(ValidationError):
    """Dimension n must be at least 1."""


class NonPositiveCapError(ValidationError):
    """Coefficient cap d must be at least 1."""


class NegativeEntryError(ValidationError):
    """Witness entries must be non-negative."""


class ZeroWitnessError(ValidationError):
    """The witness must have at least one positive entry."""


class WitnessLengthError(ValidationError):
    """Witness length must equal the declared dimension."""


class MalformedPermutationError(ValidationError):
    """A permutation argument was not a permutation of 0..n-1."""


class DimensionMismatchError(ValidationError):
    """Vector/matrix dimensions do not agree."""


class EntryOutOfRangeError(ValidationError):
    """A matrix entry falls outside the allowed coefficient range."""


class HiddenInstanceError(ValidationError):
    """A hidden test instance violates its construction invariants."""


class BudgetExceededError(ConeCompressError):
    """An enumeration would exceed the configured budget.

    ``required`` is the exact number of items the enumeration needs, or
    None when the scan is too large to count (see ``model.scan_size``).
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class RejectionCapError(ConeCompressError):
    """Instance generation exhausted its rejection-sampling retries."""


class InternalInconsistencyError(ConeCompressError):
    """An internal guarantee was violated; indicates an implementation bug."""


class FormatError(ConeCompressError, ValueError):
    """A file or document does not match the expected schema."""


class MissingHiddenSectionError(ConeCompressError):
    """The requested operation needs the instance's hidden section."""
