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
Both bounds come from one pass over the prefixes (c_{j+1}, ..., c_{n-1})
of the tail, every tail coefficient but the last. With the prefix fixed,
the best last coefficient for a head c is a clamped ceiling of a linear
function of c, so the best head is the point of a lattice staircase seen
at the least slope from a fixed point, found by a Euclid-style walk in
O(log cap) steps however long the witness entries are; the lower bound is
the same problem with the head entry negated. A level thus runs one pass
over (2*cap+1)**(n-j-1) prefixes, one at the widest level, with two walks
per prefix; the prefix count is checked against a budget for every level
before the first one runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from .errors import InternalInconsistencyError
from .model import (
    Constraint,
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


def _walk(qx: int, qy: int, den: int, a: int, b: int, m: int, n: int) -> int:
    """Smallest t in [0, n) minimizing the slope from Q to (t, ceil((a*t+b)/m)).

    Q = (qx/den, qy/den) lies strictly left of t = 0. Shearing by a // m
    and shifting by the rounded b/m keep the slope order and leave
    0 <= a < m with a first point at height 0. If Q is at or above that
    height, t = 0 wins. Otherwise only the right ends of the steps (and
    the last point) can win; swapping the axes makes them a floor
    staircase of slope m/a, whose best point is the maximum slope from
    the swapped Q, and symmetrically back. Each swap is one Euclid step
    on (m, a), so the loop runs O(log n) times. Each frame remembers the
    one point its reduced problem leaves out, compared on the way back.
    """
    frames = []
    ceiling = True
    while True:
        k, a = divmod(a, m)
        s = -(-b // m) if ceiling else b // m
        b -= s * m
        qy -= k * qx + s * den
        if ceiling:
            if qy >= 0:
                t = 0
                break
            last = -(-(a * (n - 1) + b) // m)
            if last == 0:
                t = n - 1
                break
            # right ends of steps 0..last-1: t_v = (v*m - b) // a
            frames.append((True, qx, qy, a, b, m, n, last))
            qx, qy, a, b, m, n = qy, qx, m, -b, a, last
            ceiling = False
            continue
        last = (a * (n - 1) + b) // m
        t0 = 0
        if qy >= 0:
            # only points above Q can have a positive slope
            v = qy // den + 1
            if last < v:
                if last * den != qy:
                    t = n - 1  # every slope is negative
                else:  # slope 0 is the best: the first point at height last
                    t = -((b - last * m) // a) if last else 0
                break
            t0 = -((b - v * m) // a)
            b += a * t0 - v * m
            qx -= t0 * den
            qy -= v * den
            n -= t0
            last -= v
        if last == 0:
            t = t0
            break
        # left ends of steps 1..last: t_v = ceil((v*m - b) / a)
        frames.append((False, qx, qy, a, b, m, n, t0))
        qx, qy, a, b, m, n = qy - den, qx, m, m - b, a, last
        ceiling = True
    for ceiling, qx, qy, a, b, m, n, extra in reversed(frames):
        if ceiling:
            v, t = t, (t * m - b) // a
            if (extra * den - qy) * (t * den - qx) < (v * den - qy) * (
                (n - 1) * den - qx
            ):
                t = n - 1
        else:
            v = t + 1
            t = -((b - v * m) // a)
            t = extra + (t if (v * den - qy) * -qx > -qy * (t * den - qx) else 0)
    return t


def _heads(a: int, k: int, cap: int) -> tuple[int, int] | None:
    """The heads c in [1, cap] with a*c <= k, as (lo, hi), or None."""
    if a > 0:
        return (1, min(cap, k // a)) if k >= a else None
    if a < 0:
        lo = max(1, -(-k // a))
        return (lo, cap) if lo <= cap else None
    return (1, cap) if k >= 0 else None


def _precedes(new: tuple[int, int, int], old) -> bool:
    """(num/c, c) order on (num, c, g) candidates; None is last."""
    if old is None:
        return True
    lhs, rhs = new[0] * old[1], old[0] * new[1]
    return lhs < rhs or (lhs == rhs and new[1] < old[1])


def _best_head(a: int, py: int, px: int, y_last: int, x_last: int, cap: int):
    """Minimize (x_last*G(c) - px)/c over heads c in [1, cap], smallest c first.

    G(c) = max(-cap, ceil((a*c + py)/y_last)) is minus the best last
    coefficient for head c; c is admissible iff G(c) <= cap. Returns
    (x_last*G(c) - px, c, G(c)), or None when no head is admissible.
    The clamped heads (G = -cap) share one numerator, so the best of them
    is an end of their range; the rest is one lattice walk.
    """
    feasible = _heads(a, cap * y_last - py, cap)
    if feasible is None:
        return None
    lo, hi = feasible
    best = None
    clamped = _heads(a, -cap * y_last - py, cap)
    if clamped is not None:
        num = -cap * x_last - px
        best = (num, clamped[1] if num > 0 else clamped[0], -cap)
        if a > 0:
            lo = clamped[1] + 1
        else:
            hi = clamped[0] - 1
    if lo <= hi:
        c = lo + _walk(-lo * x_last, px, x_last, a, a * lo + py, y_last, hi - lo + 1)
        g = -(-(a * c + py) // y_last)
        candidate = (x_last * g - px, c, g)
        if _precedes(candidate, best):
            best = candidate
    return best


def _scan_items(d: int, level: int, width: int) -> int | None:
    """Lattice walks one bound runs at a level with ``width`` tail coordinates.

    One walk per prefix: (2*cap+1)**(width-1). The widest level has the
    empty prefix only, and counts as None when its cap is too large to
    build (see scan_size).
    """
    if width == 1:
        return None if scan_size(d, level, 1) is None else 1
    return scan_size(d, level, width - 1)


def _bounds(level, witness, tail, cap, budget) -> tuple[BoundResult, BoundResult]:
    """(upper, lower): one lattice walk per direction per prefix, one prefix loop.

    A prefix is every tail coefficient but the last. The lower bound with
    head -e is the upper bound's problem with the head entry negated, so
    both directions share _best_head and the prefix's partial dot products.
    Prefixes run in lexicographic order and, in each direction, a later one
    wins only on a strictly better (value, |head|), which reproduces the
    tie-break on the tail.
    """
    if tail.level != level + 1:
        raise ValueError(f"tail is at level {tail.level}, expected {level + 1}")
    if tail.n != witness.n:
        raise ValueError("tail and witness dimensions differ")
    if not 1 <= level <= witness.n - 1:
        raise ValueError(f"level {level} out of range for n={witness.n}")
    check_budget(_scan_items(cap, 1, tail.n - level), budget, f"bound at level {level}")
    a = witness.y[level - 1]
    y_mid, y_last = witness.y[level:-1], witness.y[-1]
    x_mid, x_last = tail.x[:-1], tail.x[-1]
    upper = lower = None
    for prefix in product(range(-cap, cap + 1), repeat=len(x_mid)):
        py = sum(map(mul, prefix, y_mid))
        px = sum(map(mul, prefix, x_mid))
        candidate = _best_head(a, py, px, y_last, x_last, cap)
        if candidate is not None and _precedes(candidate, upper):
            upper = candidate + (prefix,)
        candidate = _best_head(-a, py, px, y_last, x_last, cap)
        if candidate is not None and _precedes(candidate, lower):
            lower = candidate + (prefix,)
    if upper is None or lower is None:
        # Unreachable for a sorted witness: (head, -1, 0, ...) is always
        # admissible for the upper case and (-1, 0, ...) for the lower.
        raise InternalInconsistencyError(f"no admissible constraint at level {level}")
    (num, c, g, prefix), (lo_num, lo_c, lo_g, lo_prefix) = upper, lower
    return (
        BoundResult(Fraction(num, c), Constraint(level, (c, *prefix, -g))),
        BoundResult(Fraction(-lo_num, lo_c), Constraint(level, (-lo_c, *lo_prefix, -lo_g))),
    )


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
    return _bounds(level, witness, tail, cap, budget)[0]


def tightest_lower(
    level: int,
    witness: SortedWitness,
    tail: PartialSolution,
    cap: int,
    budget: int = DEFAULT_COMPRESS_BUDGET,
) -> BoundResult:
    """Maximum lower bound on x(level); never negative (all-zero tail)."""
    return _bounds(level, witness, tail, cap, budget)[1]


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
    upper, lower = _bounds(level, witness, tail, cap, budget)
    if lower.value > upper.value:
        raise InternalInconsistencyError(
            f"level {level}: tightest lower bound {lower.value} exceeds "
            f"tightest upper bound {upper.value}"
        )
    chosen = upper.value
    partial = PartialSolution(
        level=level,
        # from a list, not a generator: see model.validate
        x=(chosen.numerator, *[v * chosen.denominator for v in tail.x]),
    )
    y_tail = witness.y[level - 1 :]
    for coeffs in (upper.achieving.coeffs, lower.achieving.coeffs):
        if not (
            len(coeffs) == len(y_tail)
            and all(abs(c) <= cap for c in coeffs)
            and sum(map(mul, coeffs, y_tail)) <= 0
        ):
            raise InternalInconsistencyError(
                f"level {level}: reported constraint {coeffs} is not admissible"
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
