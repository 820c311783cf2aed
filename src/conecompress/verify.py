"""Independent brute-force oracles for membership, bounds and known matrices.

These checks deliberately share no bound logic with the compressor: they
walk the full constraint set of the implicit cone in lexicographic order
and report the first violated constraint as a certificate. A partial scan
is never a verdict, so enumerations whose size exceeds the budget raise
instead of sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatchError, EntryOutOfRangeError
from .model import (
    Constraint,
    LevelCone,
    PartialSolution,
    SortedWitness,
    bound_value,
    check_budget,
    coefficient_cap,
    scan_size,
)

DEFAULT_VERIFY_BUDGET = 10**7


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check; a failed membership check carries a certificate.

    A certificate is re-checkable with two dot products: the witness
    satisfies it, the candidate vector does not.
    """

    ok: bool
    certificate: Constraint | None = None


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _scan(cone: LevelCone, x: Sequence[int]) -> Verdict:
    for constraint in cone.constraints():
        if constraint.dot(x) > 0:
            return Verdict(ok=False, certificate=constraint)
    return Verdict(ok=True)


def cone_membership(
    x: Sequence[int],
    witness: SortedWitness | Sequence[int],
    d: int,
    budget: int = DEFAULT_VERIFY_BUDGET,
) -> Verdict:
    """Exhaustive membership test in the witness-induced cone.

    Scans every coefficient vector with entries in [-d, d] that the
    witness satisfies and checks x against it. Membership here is
    sufficient for membership in the unknown cone, whose defining rows are
    all among the scanned vectors. x and the witness must share one
    coordinate order.
    """
    y = witness.y if isinstance(witness, SortedWitness) else tuple(witness)
    if len(x) != len(y):
        raise DimensionMismatchError(
            f"vector has {len(x)} entries, witness has {len(y)}"
        )
    check_budget(scan_size(d, 1, len(y)), budget, "membership scan")
    return _scan(LevelCone(level=1, cap=d, y=y), tuple(x))


def level_membership(
    p: PartialSolution,
    witness: SortedWitness,
    d: int,
    budget: int = DEFAULT_VERIFY_BUDGET,
) -> Verdict:
    """Membership of a partial solution in its level's implicit cone."""
    n = witness.n
    if not 1 <= p.level <= n - 1:
        raise DimensionMismatchError(f"level {p.level} out of range for n={n}")
    if p.n != n:
        raise DimensionMismatchError(
            f"partial solution spans {p.n} coordinates, witness has {n}"
        )
    width = n + 1 - p.level
    check_budget(scan_size(d, p.level, width), budget, "level membership scan")
    cap = coefficient_cap(d, p.level)
    return _scan(LevelCone(level=p.level, cap=cap, y=witness.y), p.x)


def matrix_check(
    matrix: Sequence[Sequence[int]], x: Sequence[int], d: int
) -> Verdict:
    """Check a concrete matrix with entries in [-d, d] against x, row-wise."""
    n = len(x)
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise DimensionMismatchError(
                f"row {i} has {len(row)} entries, expected {n}"
            )
        for v in row:
            if abs(v) > d:
                raise EntryOutOfRangeError(
                    f"row {i} entry {v} outside [-{d}, {d}]"
                )
    for row in matrix:
        if _dot(row, x) > 0:
            return Verdict(ok=False, certificate=Constraint(1, tuple(row)))
    return Verdict(ok=True)


def bound_check(x: Sequence[int], n: int, d: int) -> Verdict:
    """Whether every entry of x is within the guaranteed bound (inclusive)."""
    if not x:
        return Verdict(ok=True)
    return Verdict(ok=max(x) <= bound_value(n, d))
