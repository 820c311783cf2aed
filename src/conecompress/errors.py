"""Exception taxonomy shared across the package: one class per CLI exit code.

Each class carries the ``code`` string and ``exit_code`` the CLI reports
for it; any other package error is ``("internal", 7)``.
"""

from __future__ import annotations


class ConeCompressError(Exception):
    """Base class for all errors raised by this package."""

    code = "internal"
    exit_code = 7


class FormatError(ConeCompressError, ValueError):
    """A file or document does not match the expected schema."""

    code = "parse"
    exit_code = 2


class ValidationError(ConeCompressError, ValueError):
    """Problem data failed a precondition.

    The message names the check: the dimension, the cap, the witness, a
    permutation, a vector or matrix shape, a matrix entry, or a hidden
    instance's construction invariants.
    """

    code = "validation"
    exit_code = 3


class BudgetExceededError(ConeCompressError):
    """An enumeration would exceed the configured budget.

    ``required`` is the exact number of items the enumeration needs, or
    None when the scan is too large to count (see ``model.scan_size``).
    """

    code = "budget"
    exit_code = 4

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class MissingHiddenSectionError(ConeCompressError):
    """The requested operation needs the instance's hidden section."""

    code = "missing-hidden"
    exit_code = 5


class RejectionCapError(ConeCompressError):
    """Instance generation exhausted its rejection-sampling retries."""

    code = "rejection-cap"
    exit_code = 6


class InternalInconsistencyError(ConeCompressError):
    """An internal guarantee was violated; indicates an implementation bug.

    It keeps the base class's ``("internal", 7)``.
    """
