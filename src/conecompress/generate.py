"""Seeded test instances with a concealed admissible matrix.

The solver's premise is that the cone's matrix is unknown, so falsifiable
testing needs instances where a matrix exists but is withheld: plant a
small non-negative solution, rejection-sample rows that it satisfies,
then hand the solver only (n, d, scale * planted). The caller keeps the
matrix and checks the solver's output against it afterwards with
``verify.matrix_check`` (``conecompress verify --mode matrix``).

Randomness comes from ``random.Random`` (CPython's Mersenne Twister) via
``randint``, so a fixed seed reproduces an instance byte for byte and
golden files stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .errors import RejectionCapError, ValidationError
from .model import ProblemInput

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
        raise ValidationError("generate requires n, d, m, scale, max_entry >= 1")
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

