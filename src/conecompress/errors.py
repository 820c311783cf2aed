"""Exception taxonomy shared across the package: one class per CLI exit code."""

from __future__ import annotations


class ConeCompressError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(ConeCompressError, ValueError):
    """A file or document does not match the expected schema (exit 2)."""


class ValidationError(ConeCompressError, ValueError):
    """Problem data failed a precondition (exit 3).

    The message names the check: the dimension, the cap, the witness, a
    permutation, a vector or matrix shape, a matrix entry, or a hidden
    instance's construction invariants.
    """


class BudgetExceededError(ConeCompressError):
    """An enumeration would exceed the configured budget (exit 4).

    ``required`` is the exact number of items the enumeration needs, or
    None when the scan is too large to count (see ``model.scan_size``).
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class MissingHiddenSectionError(ConeCompressError):
    """The requested operation needs the instance's hidden section (exit 5)."""


class RejectionCapError(ConeCompressError):
    """Instance generation exhausted its rejection-sampling retries (exit 6)."""


class InternalInconsistencyError(ConeCompressError):
    """An internal guarantee was violated; indicates an implementation bug (exit 7)."""
