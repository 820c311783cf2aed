"""Seeded test instances with a concealed admissible matrix.

The solver's premise is that the cone's matrix is unknown, so falsifiable
testing needs instances where a matrix exists but is withheld: plant a
small non-negative solution, rejection-sample rows that it satisfies,
then hand the solver only (n, d, scale * planted). The harness keeps the
matrix and checks the solver's output against it afterwards.

Randomness comes from ``random.Random`` (CPython's Mersenne Twister) via
``randint``, so a fixed seed reproduces an instance byte for byte and
golden files stay stable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from random import Random

from .compress import CompressOutput, compress, DEFAULT_COMPRESS_BUDGET
from .errors import BudgetExceededError, RejectionCapError, ValidationError
from .model import ProblemInput
from .verify import (
    DEFAULT_VERIFY_BUDGET,
    Verdict,
    bound_check,
    cone_membership,
    matrix_check,
)

DEFAULT_MAX_ENTRY = 30
DEFAULT_RETRY_CAP = 10_000
# a large default multiplier keeps the public witness far above the bound,
# so compression is non-trivial out of the box
DEFAULT_SCALE = 10**6


@dataclass(frozen=True)
class HiddenInstance:
    """Public problem plus the concealed matrix and planted solution."""

    public: ProblemInput
    hidden_matrix: tuple[tuple[int, ...], ...]
    planted: tuple[int, ...]
    seed: int
    scale: int

    def __post_init__(self) -> None:
        n, d = self.public.n, self.public.d
        if len(self.planted) != n:
            raise ValidationError("planted solution has the wrong length")
        if any(v < 0 for v in self.planted):
            raise ValidationError("planted solution has a negative entry")
        if all(v == 0 for v in self.planted):
            raise ValidationError("planted solution is the zero vector")
        if self.scale < 1:
            raise ValidationError("scale must be >= 1")
        if self.public.y != tuple(v * self.scale for v in self.planted):
            raise ValidationError("public witness is not scale * planted")
        if not self.hidden_matrix:
            raise ValidationError("hidden matrix needs at least one row")
        for i, row in enumerate(self.hidden_matrix):
            if len(row) != n:
                raise ValidationError(f"hidden matrix row {i} has wrong length")
            if any(abs(v) > d for v in row):
                raise ValidationError(
                    f"hidden matrix row {i} has an entry outside [-d, d]"
                )
            if sum(a * v for a, v in zip(row, self.planted)) > 0:
                raise ValidationError(
                    f"hidden matrix row {i} rejects the planted solution"
                )


@dataclass(frozen=True)
class EndToEndReport:
    """Four verdicts on one instance, plus per-stage wall-clock seconds.

    ``membership`` is None when the full scan would exceed its budget;
    skipping is not a failure, the other checks still stand.
    """

    x: tuple[int, ...]
    output_ok: bool
    matrix: Verdict
    membership: Verdict | None
    bound: Verdict
    seconds: dict[str, float]
    result: CompressOutput

    @property
    def all_ok(self) -> bool:
        return (
            self.output_ok
            and self.matrix.ok
            and self.bound.ok
            and (self.membership is None or self.membership.ok)
        )


def generate(
    n: int,
    d: int,
    m: int,
    seed: int,
    scale: int = DEFAULT_SCALE,
    max_entry: int = DEFAULT_MAX_ENTRY,
    retry_cap: int = DEFAULT_RETRY_CAP,
) -> HiddenInstance:
    """Draw a reproducible hidden instance for a fixed seed.

    The planted solution is uniform over non-zero vectors in
    [0, max_entry]**n (whole-vector redraw on zero); each matrix row is
    uniform over [-d, d]**n, redrawn until the planted solution satisfies
    it or the per-row retry cap runs out.
    """
    if n < 1 or d < 1 or m < 1 or scale < 1 or max_entry < 1:
        raise ValueError("generate requires n, d, m, scale, max_entry >= 1")
    rng = Random(seed)
    for _ in range(retry_cap):
        planted = tuple(rng.randint(0, max_entry) for _ in range(n))
        if any(planted):
            break
    else:
        raise RejectionCapError(
            f"no non-zero planted solution after {retry_cap} draws"
        )
    rows = []
    for i in range(m):
        for _ in range(retry_cap):
            row = tuple(rng.randint(-d, d) for _ in range(n))
            if sum(a * v for a, v in zip(row, planted)) <= 0:
                rows.append(row)
                break
        else:
            raise RejectionCapError(
                f"row {i}: no admissible row after {retry_cap} draws"
            )
    public = ProblemInput(n=n, d=d, y=tuple(v * scale for v in planted))
    return HiddenInstance(
        public=public,
        hidden_matrix=tuple(rows),
        planted=planted,
        seed=seed,
        scale=scale,
    )


def end_to_end(
    instance: HiddenInstance,
    budget: int = DEFAULT_COMPRESS_BUDGET,
    membership_budget: int = DEFAULT_VERIFY_BUDGET,
) -> EndToEndReport:
    """Compress the public problem and verify the output every way we can."""
    public = instance.public
    seconds: dict[str, float] = {}

    start = time.perf_counter()
    result = compress(public, budget)
    seconds["compress"] = time.perf_counter() - start
    x = result.x

    output_ok = bool(any(x)) and all(v >= 0 for v in x) and len(x) == public.n

    start = time.perf_counter()
    matrix = matrix_check(instance.hidden_matrix, x, public.d)
    seconds["matrix"] = time.perf_counter() - start

    membership = None
    start = time.perf_counter()
    try:
        membership = cone_membership(x, public.y, public.d, membership_budget)
        seconds["membership"] = time.perf_counter() - start
    except BudgetExceededError:
        pass

    start = time.perf_counter()
    bound = bound_check(x, public.n, public.d)
    seconds["bound"] = time.perf_counter() - start

    return EndToEndReport(
        x=x,
        output_ok=output_ok,
        matrix=matrix,
        membership=membership,
        bound=bound,
        seconds=seconds,
        result=result,
    )
