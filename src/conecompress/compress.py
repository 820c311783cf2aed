"""Witness compression: build a small integral vector from a big one.

The construction works on the sorted witness, back to front. It pins the
last coordinate to 1, then for each level j = n-1 down to 1 asks: over
every constraint the witness satisfies at this level's coefficient cap,
what is the tightest upper bound and the tightest lower bound the already
fixed tail imposes on x(j)? Because the previous partial solution already
satisfies the wider cone one level up, whose cap absorbs any pairing of
an upper with a lower constraint, the tightest upper bound can never fall
below the tightest lower bound. So x(j) is set to the tightest upper
bound, a fraction with denominator at most the cap. Multiplying the whole
partial solution by that reduced denominator restores integrality, and
the product of the caps bounds the final entries.

A constraint at level j looks like c_j x(j) + sum(c_i x(i), i > j) <= 0.
Rather than scanning every full coefficient vector, the enumerators scan
only the tail coefficients (c_{j+1}, ..., c_n) and resolve the head c_j
in closed form; at the first level (j = n-1, the largest cap by far) they
instead scan the head and resolve the single tail coefficient, so the
cost per bound is one pass over [1, cap]. Enumeration sizes are checked
against a budget up front and never run open-ended.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import InternalInconsistencyError
from .model import (
    Constraint,
    LevelCone,
    PartialSolution,
    ProblemInput,
    SortedWitness,
    bound_value,
    check_budget,
    coefficient_cap,
    scan_size,
    unsort,
    validate,
)

DEFAULT_COMPRESS_BUDGET = 10**8


@dataclass(frozen=True)
class BoundResult:
    """A bound on x(level) together with a constraint attaining it."""

    value: Fraction
    achieving: Constraint


@dataclass(frozen=True)
class StepRecord:
    """Audit record of one level: both tightest bounds, choice and rescale."""

    level: int
    cap: int
    upper: BoundResult
    lower: BoundResult
    partial_after: PartialSolution

    @property
    def chosen(self) -> Fraction:
        return self.upper.value

    @property
    def scale(self) -> int:
        return self.upper.value.denominator


@dataclass(frozen=True)
class CompressOutput:
    """Final vector (original coordinate order), per-level trace and bound."""

    x: tuple[int, ...]
    trace: tuple[StepRecord, ...]
    bound: Fraction
    perm: tuple[int, ...]


def best_head_coefficient(
    s: int, t: int, y_head: int, cap: int, *, upper: bool
) -> int | None:
    """Resolve the head coefficient in closed form for one fixed tail.

    Here s = -sum(c_i * x(i)) and t = -sum(c_i * y(i)) over the tail, so a
    head coefficient c is admissible iff c * y_head <= t, and the bound it
    induces on x(level) is s / c. Returns the admissible c in [1, cap]
    minimizing s / c (upper case) or in [-cap, -1] maximizing it (lower
    case), or None when no head coefficient is admissible. When s = 0
    every admissible c induces the same bound and the one closest to zero
    is returned, matching the global tie-break on smallest magnitude.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    if upper:
        if y_head > 0:
            hi = min(cap, t // y_head)
            if hi < 1:
                return None
        else:
            if t < 0:
                return None
            hi = cap
        return hi if s > 0 else 1
    if y_head > 0:
        hi = min(-1, t // y_head)
        if hi < -cap:
            return None
    else:
        if t < 0:
            return None
        hi = -1
    return -cap if s > 0 else hi


def _better(s_new: int, c_new: int, tau_new, best, *, upper: bool) -> bool:
    """Candidate order: bound value first, then |head|, then tail lex.

    Values s/c are compared by cross multiplication; both heads share a
    sign within one call, so the product of the heads is positive and the
    comparison direction is fixed.
    """
    if best is None:
        return True
    s_old, c_old, tau_old = best
    lhs = s_new * c_old
    rhs = s_old * c_new
    if lhs != rhs:
        return lhs < rhs if upper else lhs > rhs
    if c_new != c_old:
        return c_new < c_old if upper else c_new > c_old
    return tau_new < tau_old


def _two_var_bound(
    level: int,
    witness: SortedWitness,
    tail: PartialSolution,
    cap: int,
    *,
    upper: bool,
) -> BoundResult:
    """Bound at the widest level (one tail coordinate): scan heads.

    For a fixed head c the induced bound -c_n * x(n) / c is optimized in
    both directions by the largest admissible tail coefficient, which is
    min(cap, floor(-c * y_head / y_last)); the witness is sorted and its
    last entry is positive, so that value always lies within [-cap, cap].
    """
    y_head = witness.y[level - 1]
    y_last = witness.y[level]
    x_last = tail.x[0]
    heads = range(1, cap + 1) if upper else range(-1, -cap - 1, -1)
    best = None
    for c in heads:
        c_tail = min(cap, (-c * y_head) // y_last)
        s = -c_tail * x_last
        if _better(s, c, (c_tail,), best, upper=upper):
            best = (s, c, (c_tail,))
    s, c, tau = best
    return BoundResult(value=Fraction(s, c), achieving=Constraint(level, (c,) + tau))


def _tail_scan_bound(
    level: int,
    witness: SortedWitness,
    tail: PartialSolution,
    cap: int,
    *,
    upper: bool,
) -> BoundResult:
    """Bound via enumeration of tail coefficient vectors, heads resolved."""
    width = tail.n - level
    y_head = witness.y[level - 1]
    y_tail = witness.y[level:]
    xs = tail.x
    best = None
    for tau in product(range(-cap, cap + 1), repeat=width):
        t = 0
        s = 0
        for ci, yi, xi in zip(tau, y_tail, xs):
            t -= ci * yi
            s -= ci * xi
        c = best_head_coefficient(s, t, y_head, cap, upper=upper)
        if c is not None and _better(s, c, tau, best, upper=upper):
            best = (s, c, tau)
    if best is None:
        # Unreachable for a sorted witness: (head, -1, 0, ...) is always
        # admissible for the upper case and (-1, 0, ...) for the lower.
        raise InternalInconsistencyError(f"no admissible constraint at level {level}")
    s, c, tau = best
    return BoundResult(value=Fraction(s, c), achieving=Constraint(level, (c,) + tau))


def _scan_items(d: int, level: int, width: int) -> int | None:
    """Items one bound scans at a level with ``width`` tail coordinates.

    The widest level scans the heads 1..cap, (2*cap+1) // 2 of them; every
    other level scans the (2*cap+1)**width tail vectors.
    """
    size = scan_size(d, level, width)
    return size // 2 if width == 1 and size is not None else size


def _bound(level, witness, tail, cap, budget, *, upper: bool) -> BoundResult:
    if tail.level != level + 1:
        raise ValueError(f"tail is at level {tail.level}, expected {level + 1}")
    if tail.n != witness.n:
        raise ValueError("tail and witness dimensions differ")
    if not 1 <= level <= witness.n - 1:
        raise ValueError(f"level {level} out of range for n={witness.n}")
    width = tail.n - level
    check_budget(_scan_items(cap, 1, width), budget, f"bound at level {level}")
    if width == 1:
        return _two_var_bound(level, witness, tail, cap, upper=upper)
    return _tail_scan_bound(level, witness, tail, cap, upper=upper)


def tightest_upper(
    level: int,
    witness: SortedWitness,
    tail: PartialSolution,
    cap: int,
    budget: int = DEFAULT_COMPRESS_BUDGET,
) -> BoundResult:
    """Minimum upper bound on x(level) over all admissible constraints.

    A minimum always exists: the head paired with -1 on the next
    coordinate is admissible because the witness is sorted. Ties are
    broken by the smallest head, then the lexicographically smallest tail
    coefficients; tie-breaks affect only the reported constraint.
    """
    return _bound(level, witness, tail, cap, budget, upper=True)


def tightest_lower(
    level: int,
    witness: SortedWitness,
    tail: PartialSolution,
    cap: int,
    budget: int = DEFAULT_COMPRESS_BUDGET,
) -> BoundResult:
    """Maximum lower bound on x(level); never negative (all-zero tail)."""
    return _bound(level, witness, tail, cap, budget, upper=False)


def step(
    level: int,
    d: int,
    witness: SortedWitness,
    tail: PartialSolution,
    budget: int = DEFAULT_COMPRESS_BUDGET,
) -> StepRecord:
    """Fix x(level): take the tightest upper bound and rescale to integers.

    The reduced denominator of the chosen fraction divides the achieving
    head coefficient, so the rescale factor never exceeds the level cap.
    A tightest lower bound above the tightest upper bound is impossible
    and reported as an internal inconsistency.
    """
    width = tail.n - level
    check_budget(_scan_items(d, level, width), budget, f"level {level}")
    cap = coefficient_cap(d, level)
    upper = tightest_upper(level, witness, tail, cap, budget)
    lower = tightest_lower(level, witness, tail, cap, budget)
    if lower.value > upper.value:
        raise InternalInconsistencyError(
            f"level {level}: tightest lower bound {lower.value} exceeds "
            f"tightest upper bound {upper.value}"
        )
    chosen = upper.value
    partial = PartialSolution(
        level=level,
        x=(chosen.numerator,) + tuple(v * chosen.denominator for v in tail.x),
    )
    cone = LevelCone(level=level, cap=cap, y=witness.y)
    if not (cone.admits(upper.achieving.coeffs) and cone.admits(lower.achieving.coeffs)):
        raise InternalInconsistencyError(
            f"level {level}: reported constraint is not admissible"
        )
    return StepRecord(
        level=level,
        cap=cap,
        upper=upper,
        lower=lower,
        partial_after=partial,
    )


def compress(
    problem: ProblemInput, budget: int = DEFAULT_COMPRESS_BUDGET
) -> CompressOutput:
    """Produce another integral vector of the cone within the size bound.

    Deterministic: the same input always yields the same output and trace.
    Scaling the witness by a positive integer leaves the result unchanged,
    because scaling does not change which constraints the witness
    satisfies. Every level's scan is checked against the budget before
    the first one runs.
    """
    witness = validate(problem)
    n, d = problem.n, problem.d
    for level in range(n - 1, 0, -1):
        check_budget(_scan_items(d, level, n - level), budget, f"level {level}")
    partial = PartialSolution(level=n, x=(1,))
    trace = []
    for level in range(n - 1, 0, -1):
        record = step(level, d, witness, partial, budget)
        trace.append(record)
        partial = record.partial_after
    x = unsort(partial.x, witness.perm)
    bound = bound_value(n, d)
    if max(x) > bound:
        raise InternalInconsistencyError(
            f"output {x} exceeds the guaranteed bound {bound}"
        )
    return CompressOutput(x=x, trace=tuple(trace), bound=bound, perm=witness.perm)
