"""Find a small integral vector in an unknown polyhedral cone.

Given only the dimension n, a cap d on the magnitude of the unknown
constraint coefficients, and one non-negative integral witness solution,
:func:`compress` constructs another non-zero integral solution whose
largest entry is at most (2d)**(2**(n-1) - 1) / 2**(n-1), along with a
full per-level audit trace. The :mod:`conecompress.verify` module checks
any claimed solution independently of the construction: membership in
the witness cone by an exact split search over every coefficient vector
in [-d, d]**n, a hidden matrix row by row, and the size bound.
"""

from .compress import (
    BoundResult,
    CompressOutput,
    DEFAULT_COMPRESS_BUDGET,
    StepRecord,
    compress,
    plan,
    tightest_lower,
    tightest_upper,
)
from .errors import (
    BudgetExceededError,
    ConeCompressError,
    FormatError,
    InternalInconsistencyError,
    MissingHiddenSectionError,
    RejectionCapError,
    ValidationError,
)
from .generate import HiddenInstance, generate
from .model import (
    Constraint,
    PartialSolution,
    ProblemInput,
    SortedWitness,
    bound_value,
    coefficient_cap,
    unsort,
    validate,
)
from .verify import (
    DEFAULT_VERIFY_BUDGET,
    Verdict,
    bound_check,
    cone_membership,
    matrix_check,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "BudgetExceededError",
    "CompressOutput",
    "ConeCompressError",
    "Constraint",
    "DEFAULT_COMPRESS_BUDGET",
    "DEFAULT_VERIFY_BUDGET",
    "FormatError",
    "HiddenInstance",
    "InternalInconsistencyError",
    "MissingHiddenSectionError",
    "PartialSolution",
    "ProblemInput",
    "RejectionCapError",
    "SortedWitness",
    "StepRecord",
    "ValidationError",
    "Verdict",
    "bound_check",
    "bound_value",
    "coefficient_cap",
    "compress",
    "cone_membership",
    "generate",
    "matrix_check",
    "plan",
    "tightest_lower",
    "tightest_upper",
    "unsort",
    "validate",
]
