"""Problem data types, input validation, coefficient caps and the size bound.

The solver never sees the matrix that defines the cone. Its whole input is
a dimension ``n``, a cap ``d`` on the magnitude of the unknown matrix
entries, and one non-negative integral witness vector ``y``. Everything
else here is derived from those three: the ascending stable sort of the
witness (the construction assumes a non-decreasing witness and we undo the
sort at the end), the per-level coefficient cap sequence, and the closed
form for the guaranteed bound on the output's maximum entry.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import BudgetExceededError, ValidationError

# Scan sizes above 2**_MATERIALIZE_BITS are never materialized; budget
# errors then report the count as unknown rather than building a gigantic int.
_MATERIALIZE_BITS = 16384


@dataclass(frozen=True)
class ProblemInput:
    """The solver's entire knowledge of the cone: (n, d) and one witness."""

    n: int
    d: int
    y: tuple[int, ...]


@dataclass(frozen=True)
class SortedWitness:
    """Ascending stable sort of the witness plus the permutation to undo it.

    ``perm[k]`` is the original position of the k-th smallest entry, so
    ``original[perm[k]] == y[k]`` and equal entries keep their relative
    order.
    """

    y: tuple[int, ...]
    perm: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class PartialSolution:
    """Integral assignment to coordinates level..n of the sorted problem."""

    level: int
    x: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if not self.x:
            raise ValueError("partial solution cannot be empty")
        if any(v < 0 for v in self.x):
            raise ValueError("partial solution x has a negative entry")
        if self.x[-1] < 1:
            raise ValueError("last coordinate must stay >= 1")
        if any(a > b for a, b in zip(self.x, self.x[1:])):
            raise ValueError("partial solution x must be non-decreasing")

    @property
    def n(self) -> int:
        return self.level + len(self.x) - 1


@dataclass(frozen=True)
class Constraint:
    """One inequality sum(coeffs[i] * x(level+i)) <= 0 over coordinates level..n.

    Also serves as a violation certificate: a constraint the witness
    satisfies but a candidate vector does not.
    """

    level: int
    coeffs: tuple[int, ...]


def validate(problem: ProblemInput) -> SortedWitness:
    """Gate every run: reject bad inputs, return the sorted witness."""
    if problem.n < 1:
        raise ValidationError("dimension n must be >= 1")
    if problem.d < 1:
        raise ValidationError("coefficient cap d must be >= 1")
    if len(problem.y) != problem.n:
        raise ValidationError(
            f"witness length {len(problem.y)} does not equal the dimension n"
        )
    for i, v in enumerate(problem.y):
        if v < 0:
            raise ValidationError(f"witness entry y({i + 1}) is negative")
    if all(v == 0 for v in problem.y):
        raise ValidationError("witness must be non-zero")
    perm = tuple(sorted(range(problem.n), key=lambda i: problem.y[i]))
    # From a list: a tuple built from a generator is resized, and a loop of
    # calls then grows in memory through the interpreter's tuple free lists.
    y_sorted = tuple([problem.y[i] for i in perm])
    return SortedWitness(y=y_sorted, perm=perm)


def coefficient_cap(d: int, level: int) -> int:
    """Cap on constraint coefficients at a given level.

    The sequence starts at d and doubles-the-square at each level, i.e.
    cap(1) = d and cap(j) = 2 * cap(j-1)**2, which closes to
    (2d)**(2**(j-1)) / 2.
    """
    if d < 1:
        raise ValidationError("coefficient cap d must be >= 1")
    if level < 1:
        raise ValueError("level must be >= 1")
    return (2 * d) ** (2 ** (level - 1)) // 2


def scan_size(d: int, level: int, width: int) -> int | None:
    """(2*coefficient_cap(d, level)+1)**width, or None past 2**16384.

    The number of coefficient vectors of this width within the level's cap:
    compress.plan derives each level's search count from it, and
    verify.cone_membership's budget counts its level-1 vectors. The cap's
    bit length is exponential in level, so a lower estimate of the size's
    bit length, width * (bit_length(2d)-1) * 2**(level-1), rules out huge
    sizes before anything is built.
    """
    if d < 1 or level < 1 or width < 1:
        raise ValueError("scan_size requires d, level and width >= 1")
    if level - 1 >= _MATERIALIZE_BITS.bit_length():  # keeps the shift below small
        return None
    if width * ((2 * d).bit_length() - 1) << (level - 1) >= _MATERIALIZE_BITS:
        return None
    size = (2 * coefficient_cap(d, level) + 1) ** width
    return None if size > 1 << _MATERIALIZE_BITS else size


def check_budget(items: int | None, budget: int, what: str) -> None:
    """Raise BudgetExceededError when a scan of ``items`` exceeds the budget.

    None stands for a scan too large to count (see scan_size). Such a scan
    cannot finish, so it is over any budget.
    """
    if items is not None and items <= budget:
        return
    with unlimited_int_digits():
        shown = "too many items to count" if items is None else f"{items} items"
        raise BudgetExceededError(
            f"{what} needs {shown}, budget is {budget}", required=items
        )


# Python 3.10.0-3.10.6 has no limit and no setter: read that as a limit of 0
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


@contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Lift Python's limit on decimal int<->str conversion for a block.

    Also usable as a decorator, which lifts the limit for each call: the
    decorator enters a fresh generator on every call.

    Entries, bounds and scan sizes can exceed the default 4300 digits.
    Where the limit is already lifted (0), as inside another such block,
    entering and leaving change nothing; otherwise leaving restores the
    limit found on entry, also when the block raises.
    """
    previous = _int_max_str_digits()
    if previous:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if previous:
            sys.set_int_max_str_digits(previous)


def bound_value(n: int, d: int) -> Fraction:
    """Guaranteed bound on the output's maximum entry, as an exact rational.

    Equals (2d)**(2**(n-1) - 1) / 2**(n-1), which is also the product of
    coefficient_cap(d, j) over j = 1..n-1 (an integer for every n, d).
    """
    if n < 1:
        raise ValidationError("dimension n must be >= 1")
    if d < 1:
        raise ValidationError("coefficient cap d must be >= 1")
    e = 2 ** (n - 1)
    return Fraction((2 * d) ** (e - 1), 2 ** (n - 1))


def unsort(x_sorted: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """Place sorted-position entries back at their original positions."""
    n = len(x_sorted)
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise ValidationError(f"perm is not a permutation of 0..{n - 1}")
    out = [0] * n
    for k, p in enumerate(perm):
        out[p] = x_sorted[k]
    return tuple(out)
