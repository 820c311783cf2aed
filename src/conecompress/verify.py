"""Independent brute-force oracles for membership, bounds and known matrices.

These checks deliberately share no bound logic with the compressor: they
walk the full constraint set of the implicit cone in lexicographic order
and report the first violated constraint as a certificate. A partial scan
is never a verdict, so enumerations whose size exceeds the budget raise
instead of sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul
from typing import Sequence

from .errors import ValidationError
from .model import (
    Constraint,
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


def _scan(level: int, cap: int, y: Sequence[int], x: Sequence[int]) -> Verdict:
    """Scan [-cap, cap]**len(y) in lexicographic order for a certificate.

    The first coefficient vector that y satisfies and x violates becomes
    the certificate; only that one is built as a Constraint.
    """
    for coeffs in product(range(-cap, cap + 1), repeat=len(y)):
        if sum(map(mul, coeffs, y)) <= 0 and sum(map(mul, coeffs, x)) > 0:
            return Verdict(ok=False, certificate=Constraint(level, coeffs))
    return Verdict(ok=True)


def cone_membership(
    x: Sequence[int],
    witness: Sequence[int],
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
    if len(x) != len(witness):
        raise ValidationError(
            f"vector has {len(x)} entries, witness has {len(witness)}"
        )
    check_budget(scan_size(d, 1, len(witness)), budget, "membership scan")
    return _scan(1, d, witness, x)


def level_membership(
    p: PartialSolution,
    witness: SortedWitness,
    d: int,
    budget: int = DEFAULT_VERIFY_BUDGET,
) -> Verdict:
    """Membership of a partial solution in its level's implicit cone."""
    n = witness.n
    if not 1 <= p.level <= n - 1:
        raise ValidationError(f"partial solution level is outside 1..{n - 1}")
    if p.n != n:
        raise ValidationError(
            f"partial solution spans {p.n} coordinates, witness has {n}"
        )
    width = n + 1 - p.level
    check_budget(scan_size(d, p.level, width), budget, "level membership scan")
    cap = coefficient_cap(d, p.level)
    return _scan(p.level, cap, witness.y[p.level - 1 :], p.x)


def matrix_check(
    matrix: Sequence[Sequence[int]], x: Sequence[int], d: int
) -> Verdict:
    """Check a concrete matrix with entries in [-d, d] against x, row-wise."""
    n = len(x)
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValidationError(f"row {i} has {len(row)} entries, expected {n}")
        for k, v in enumerate(row):
            if abs(v) > d:
                raise ValidationError(f"row {i} entry {k} is outside [-d, d]")
    for row in matrix:
        if sum(map(mul, row, x)) > 0:
            return Verdict(ok=False, certificate=Constraint(1, tuple(row)))
    return Verdict(ok=True)


def bound_check(x: Sequence[int], n: int, d: int) -> Verdict:
    """Whether every entry of x is within the guaranteed bound (inclusive).

    The bound is (2d)**e / 2**k with e = 2**(n-1) - 1 and k = n-1, so it
    has about e*log2(2d) bits: far too many to build at large n. Bit
    lengths decide first: for m > 0, m * 2**k lies in
    [2**(bits-1+k), 2**(bits+k)), and with L = (2d).bit_length(), (2d)**e
    lies in [2**(e*(L-1)), 2**(e*L)) when e >= 1. The bound is built only
    when the two ranges overlap, and then it is about as long as m.
    """
    if not x:
        return Verdict(ok=True)
    m = max(x)
    if n >= 1 and d >= 1:  # otherwise bound_value raises the input error
        e, k, L = (1 << (n - 1)) - 1, n - 1, (2 * d).bit_length()
        bits = max(m, 0).bit_length()
        if bits + k <= e * (L - 1):
            return Verdict(ok=True)
        if e >= 1 and bits - 1 + k >= e * L:
            return Verdict(ok=False)
    return Verdict(ok=m <= bound_value(n, d))
