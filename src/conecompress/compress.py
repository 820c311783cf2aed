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
For a fixed head c_j and all tail coefficients but the last, the best
last coefficient is a clamped ceiling of a linear function, so the
remaining search over one more coefficient is a lattice staircase seen at
the least slope from a fixed point, found by a Euclid-style walk in
O(log cap) steps however long the witness entries are; the lower bound is
the same problem with the head entry negated. The widest level j = n-1
has no other tail coefficient and walks its heads, one walk per bound:
its cap, 2**31 at n = 7 and d = 1, is far too large to enumerate. Every
other level enumerates the heads c in [1, cap] and the earlier prefixes
(c_{j+1}, ..., c_{n-2}) and walks the last prefix coordinate c_{n-1} in
[-cap, cap]: a head has half the range of a prefix coordinate, so this
is cap*(2*cap+1)**(n-j-2) searches of at most one walk each per bound,
about half of walking the heads for each of the (2*cap+1)**(n-j-1)
prefixes. Each level's cap and count depend on (n, d) alone: plan gives
them, compress checks every count against a budget before the first
level runs, and step and the bound searches run a level without checking
again.

What does not depend on the item is computed once per level: the Euclid
chain of (y_{n-1}, y_n), which every walk of the level reads in both
directions and the deepest walk so far extends; the far point the walks
look from (see _best_last); and the quotient of 2*cap*y_n by y_{n-1},
so that one division per item and direction gives the walk's range. A
walk also returns its point's height, so the best last coefficient needs
no division of its own.

A level whose last two tail entries are proportional to the witness's,
x_{n-1}*y_n = x_n*y_{n-1} with y_{n-1} > 0, is a ray pair. There the
objective of a last prefix coordinate q grows with one residue,
-(y_{n-1}*q + beta) mod y_n, where beta is the head's and the earlier
prefix's dot product with the witness; its least value is -beta mod
gcd(y_{n-1}, y_n). The level keeps that gcd, the period y_n/gcd and an
inverse mod the period, and each item solves one linear congruence for its
best q, walking only when the solution lies past the item's range (see
_best_last). Generated instances are of this kind below the widest level.

Any other level with y_{n-1} > 0 keeps a residue table: the residues
y_{n-1}*q mod y_n for q in [-cap, cap], sorted, and their q. With
S = x_n*y_{n-1} - y_n*x_{n-1}, an item's objective at q is, up to a
positive factor and a constant, S*q + x_n*(-(y_{n-1}*q + beta) mod y_n).
One bisection finds the q of the least residue term and the next term
up, and one comparison certifies that q as the item's only minimiser;
the item walks only when that q lies outside its range or the
certificate fails (see _best_last). Hard-regime levels are of this kind,
and the table settles most of their items. A table's memory grows with the
cap and the entry size, which no budget counts, so a level whose table
would pass 64 MiB builds none and walks every item.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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

# The budget counts searches, not bytes, so a residue table that would pass
# this many bytes is not built, and its level walks (see _table_bytes).
_TABLE_BYTES = 1 << 26


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


def _walk(qx: int, qy: int, den: int, chain: list, b: int, n: int) -> tuple[int, int]:
    """Smallest t in [0, n) minimizing the slope from Q to (t, G(t)), and G(t).

    G(t) = ceil((a*t+b)/m), where chain[0] = (a // m, a % m, m) starts the
    Euclid chain of (a, m): each next entry is (*divmod(m, r), r) of the
    one before. The chain depends on (a, m) alone, so one list serves
    every walk with that pair and grows only as deep as some walk needs.
    Q = (qx/den, qy/den) lies strictly left of t = 0. Shearing by a // m
    and shifting by the rounded b/m keep the slope order and leave
    0 <= a < m with a first point at height 0. If Q is at or above that
    height, t = 0 wins. Otherwise only the right ends of the steps (and
    the last point) can win; swapping the axes makes them a floor
    staircase of slope m/a, whose best point is the maximum slope from
    the swapped Q, and symmetrically back. Each swap is one Euclid step
    on (m, a), so the loop runs O(log n) times and never past a zero
    remainder. Each frame remembers the one point its reduced problem
    leaves out, compared on the way back.
    """
    frames = []
    ceiling = True
    while True:
        if len(frames) == len(chain):
            _, r, m = chain[-1]
            chain.append((*divmod(m, r), r))
        k, a, m = chain[len(frames)]
        s = -(-b // m) if ceiling else b // m
        if not frames:
            k0, s0 = k, s
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
            qx, qy, b, n = qy, qx, -b, last
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
        qx, qy, b, n = qy - den, qx, m - b, last
        ceiling = True
    # h is t's height in the top frame: 0 on an exit there, else the step
    # the top frame's unwind picks (or its last point's height)
    h = 0
    for ceiling, qx, qy, a, b, m, n, extra in reversed(frames):
        if ceiling:
            h, t = t, (t * m - b) // a
            if (extra * den - qy) * (t * den - qx) < (h * den - qy) * (
                (n - 1) * den - qx
            ):
                t, h = n - 1, extra
        else:
            v = t + 1
            t = -((b - v * m) // a)
            t = extra + (t if (v * den - qy) * -qx > -qy * (t * den - qx) else 0)
    return t, k0 * t + s0 + h


def _precedes(new: tuple[int, int, int], old) -> bool:
    """(num/c, c) order on (num, c, ...) candidates; None is last."""
    if old is None:
        return True
    lhs, rhs = new[0] * old[1], old[0] * new[1]
    return lhs < rhs or (lhs == rhs and new[1] < old[1])


def _best_head(a, y_last, x_last, cap):
    """Minimize x_last*G(c)/c over the heads c in [1, cap], smallest c first.

    The search of the widest level, whose only prefix is the empty one.
    G(c) = max(-cap, ceil(a*c/y_last)) is minus the best last coefficient
    for head c. Head c is feasible when a*c <= cap*y_last (G(c) <= cap) and
    clamped when a*c <= -cap*y_last (G(c) = -cap): for a >= 0 no head is
    clamped, and for a < 0 every head is feasible and the clamped ones, if
    any, are the high end. Returns (x_last*G(c), c, G(c), ()), or None when no head is
    feasible. The clamped heads share one negative numerator, so the first
    of them is their best; the rest is one lattice walk from Q = (0, 0).
    """
    top = cap * y_last
    hi, best = cap, None
    if a > 0:
        hi = min(cap, top // a)
    elif a < 0 and -(top // a) <= cap:
        hi = -(top // a) - 1  # -(top // a) is the first clamped head
        best = (-cap * x_last, hi + 1, -cap, ())
    if hi >= 1:
        t, g = _walk(-x_last, 0, x_last, [(*divmod(a, y_last), y_last)], a, hi)
        candidate = (x_last * g, 1 + t, g, ())
        if _precedes(candidate, best):
            best = candidate
    return best


def _best_last(chain, far, hi, clamped_hi, beta, px, y_q, x_q, x_last, cap, ray, table):
    """Minimize x_last*G(q) - x_q*q - px over q in [-cap, hi], smallest q first.

    q is the last prefix coordinate, with the head and the earlier prefix
    fixed: beta is their dot product with the witness and px the earlier
    prefix's with the tail. G(q) = max(-cap, ceil((y_q*q + beta)/y_last))
    is minus the best last coefficient, and chain starts the Euclid chain
    of (y_q, y_last) (see _walk). The q <= hi are feasible (G(q) <= cap)
    and the q <= clamped_hi clamped (G(q) = -cap). Returns
    (x_last*G(q) - x_q*q - px, G(q), q), or None when hi < -cap.

    The clamped q share G, so their best is the right end when x_q > 0 and
    -cap otherwise; they lie left of the rest, so they win ties. The rest,
    q = lo + t for t in [0, N), is one walk from the far point
    Q = (-D, K - s*D), with s = x_q/x_last, K = cap + 1 and
    D = 4*cap**2*(x_last + x_q) + 1, passed as ``far`` = (-D*x_last,
    K*x_last - x_q*D) over the denominator x_last. Write L(t) = G(t) - s*t,
    the objective up to the constant s*lo and the factor x_last. The slope
    from Q to (t, G(t)) is s - A(t)/(t + D) with A(t) = K - L(t). On the
    walk's range -cap < G(t) <= cap and 0 <= t <= 2*cap, so
    0 < A(t) <= 2*cap*(1 + s). The walk returns the least slope, smallest
    t first, that is the largest A(t)/(t + D). That is the least L(t),
    smallest t first: distinct values of x_last*L(t) are integers, so
    A1 > A2 gives A1 - A2 >= 1/x_last, and then
    A1*(t2 + D) - A2*(t1 + D) >= D/x_last - A2*t1 > 0, as
    A2*t1 <= 4*cap**2*(x_last + x_q)/x_last < D/x_last; equal A go to the
    smaller t. With y_q = 0, G is constant, and the walk picks q = hi when
    x_q > 0 and its left end otherwise.

    On a ray pair, y_q > 0 and x_q*y_last = x_last*y_q, the rest is one
    congruence and the walk runs only when its solution lies past hi. ray
    is then (g, P, inv), with g = gcd(y_q, y_last), P = y_last/g and inv
    the inverse of y_q/g mod P, and None otherwise. Write R(q) =
    y_last*G(q) - y_q*q - beta = -(y_q*q + beta) mod y_last for an
    unclamped q. As x_q = x_last*y_q/y_last, the objective is
    x_last*(beta + R(q))/y_last - px, so it grows with R(q) alone. R(q) is
    congruent to -beta mod g, so it is at least r0 = -beta mod g, and it
    equals r0 exactly when (y_q/g)*q = -(beta + r0)/g mod P. The smallest
    such q at or past lo, q1, is therefore the smallest minimiser of the
    rest whenever q1 <= hi. The clamped q still win ties: a clamped q's
    objective is at least its unclamped one, which is at least the
    minimum.

    On any other pair with y_q > 0 whose table fits (see _table_bytes),
    table is (S, y_last, residues, qs), and None otherwise: the drift S = x_last*y_q - y_last*x_q, residues
    the values y_q*q mod y_last for q in [-cap, cap] in ascending order,
    ties by q, and qs their q (see _residues). With R(q) as above, an
    unclamped q has y_last*(x_last*G(q) - x_q*q) - x_last*beta =
    S*q + x_last*R(q) = Phi(q), so the rest minimises Phi. With
    T = -beta mod y_last, R(q) = (T - u) mod y_last for q's residue u, so
    the least R, R1, belongs to the last residue at or below T (the
    largest residue when none is), and the residue before it, cyclically,
    gives the next value, R2, counted with multiplicity. Let q1 be the q
    of R1. If q1 is in [lo, hi] and Phi(q1) < min(S*lo, S*hi) + x_last*R2,
    every other q in [lo, hi] has Phi(q) >= S*q + x_last*R2 >=
    min(S*lo, S*hi) + x_last*R2 > Phi(q1), so q1 is the only minimiser of
    the rest, no tie-break can move it, and G(q1) = (y_q*q1 + beta +
    R1)/y_last. The test is made as S*(q1 - e) < x_last*(R2 - R1), with e
    the end of [lo, hi] where S*q is least. Equal least residues give
    R2 = R1, and the test fails, as S*(q1 - e) >= 0. An item whose q1 is
    out of range, or whose test fails, walks.
    """
    if hi < -cap:
        return None
    lo, best = -cap, None
    if clamped_hi >= -cap:
        q = clamped_hi if x_q else -cap
        best = (-cap * x_last - x_q * q - px, -cap, q)
        lo = clamped_hi + 1
    if lo <= hi:
        q = hi + 1
        if ray is not None:
            div, period, inv = ray
            r = -beta % div
            q = lo + ((-(beta + r) // div * inv - lo) % period)
            g = (y_q * q + beta + r) // (div * period)  # div*period = y_last
        elif table is not None:
            drift, y_last, residues, qs = table
            t = -beta % y_last
            i = bisect_right(residues, t)
            q1 = qs[i - 1]
            if lo <= q1 <= hi:
                r1 = (t - residues[i - 1]) % y_last
                r2 = (t - residues[i - 2]) % y_last
                if drift * (q1 - (lo if drift > 0 else hi)) < x_last * (r2 - r1):
                    q, g = q1, (y_q * q1 + beta + r1) // y_last
        if q > hi:
            t, g = _walk(*far, x_last, chain, beta + lo * y_q, hi - lo + 1)
            q = lo + t
        num = x_last * g - x_q * q - px
        if best is None or num < best[0]:
            best = (num, g, q)
    return best


def _residues(y_q, y_last, cap):
    """The residues y_q*q mod y_last for q in [-cap, cap], sorted with ties
    by q, and their q: two parallel lists, so each residue is stored once.

    Each residue is the one before plus y_q mod y_last, less y_last when
    that passes it: one addition per q, however long the entries are.
    """
    stride = y_q % y_last
    u, unsorted = -cap * y_q % y_last, []
    for _ in range(2 * cap + 1):
        unsorted.append(u)
        u += stride
        if u >= y_last:
            u -= y_last
    order = sorted(range(2 * cap + 1), key=unsorted.__getitem__)
    return [unsorted[i] for i in order], [i - cap for i in order]


def _table_bytes(cap, y_last):
    """An upper estimate of the peak bytes _residues allocates at this cap.

    Each of the 2*cap+1 entries holds a residue below y_last, about
    bit_length/7.5 bytes of digits beside its header, and its q, list
    slots and sort keys, under 128 bytes together.
    """
    return (2 * cap + 1) * (y_last.bit_length() // 7 + 128)


def _prefixes(cap: int, y_mid, x_mid):
    """Each prefix in [-cap, cap]**len(y_mid), lexicographically, with its dot
    products with y_mid and x_mid.

    An odometer: only the digits that change are touched, and the two dot
    products follow them, so no range of the cap's size is ever built.
    """
    w = len(y_mid)
    prefix = [-cap] * w
    py, px = -cap * sum(y_mid), -cap * sum(x_mid)
    while True:
        yield tuple(prefix), py, px
        i = w - 1
        while i >= 0 and prefix[i] == cap:
            prefix[i] = -cap
            py -= 2 * cap * y_mid[i]
            px -= 2 * cap * x_mid[i]
            i -= 1
        if i < 0:
            return
        prefix[i] += 1
        py += y_mid[i]
        px += x_mid[i]


def _bounds(level, witness, tail, cap) -> tuple[BoundResult, BoundResult]:
    """(upper, lower): one head walk per direction at the widest level, else
    one _best_last per direction and item.

    The lower bound with head -c is the upper bound's problem with the
    head entry negated. Below the widest level an item is a head c and an
    earlier prefix (every tail coefficient but the last two). Heads run in
    ascending order, earlier prefixes in lexicographic order, and
    _best_last returns the smallest last prefix coordinate among ties, so
    a later item wins only on a strictly better (value, |head|), which
    reproduces the tie-break on the tail. Both directions and every head
    share the level's Euclid chain of (y_q, y_last), its far point and,
    when y_q > 0, its congruence data on a ray pair or else its residue
    table, when that fits in _TABLE_BYTES (see _best_last).
    """
    if tail.level != level + 1:
        raise ValueError("tail must start at level + 1")
    if tail.n != witness.n:
        raise ValueError("tail and witness dimensions differ")
    if not 1 <= level <= witness.n - 1:
        raise ValueError("level is outside 1..n-1 for the witness")
    a = witness.y[level - 1]
    y_last, x_last = witness.y[-1], tail.x[-1]
    if level == witness.n - 1:
        bests = [_best_head(sign * a, y_last, x_last, cap) for sign in (1, -1)]
    else:
        y_mid, y_q = witness.y[level:-2], witness.y[-2]
        x_mid, x_q = tail.x[:-2], tail.x[-2]
        chain = [(*divmod(y_q, y_last), y_last)]
        far_d = 4 * cap * cap * (x_last + x_q) + 1
        far = (-far_d * x_last, (cap + 1) * x_last - x_q * far_d)
        top, span = cap * y_last, 2 * cap * y_last
        ray = table = None
        if y_q:
            dq, dr = divmod(span, y_q)
            if x_q * y_last == x_last * y_q:
                div = gcd(y_q, y_last)
                ray = (div, y_last // div, pow(y_q // div, -1, y_last // div))
            elif _table_bytes(cap, y_last) <= _TABLE_BYTES:
                table = (x_last * y_q - y_last * x_q, y_last, *_residues(y_q, y_last, cap))
        bests = []
        for sign in (1, -1):
            best = None
            for c in range(1, cap + 1):
                ac = sign * a * c
                for prefix, py, px in _prefixes(cap, y_mid, x_mid):
                    # q is feasible iff y_q*q <= room and clamped iff the
                    # same holds with room - span; floor((room - span)/y_q)
                    # = fq - dq - (r < dr), so one division gives both
                    beta = py + ac
                    room = top - beta
                    if y_q:
                        fq, r = divmod(room, y_q)
                        cq = fq - dq - (r < dr)
                    else:  # G does not depend on q: every q or none
                        fq = cap if room >= 0 else -cap - 1
                        cq = cap if room >= span else -cap - 1
                    found = _best_last(
                        chain, far, min(cap, fq), min(cap, cq), beta, px, y_q, x_q, x_last, cap,
                        ray, table,
                    )
                    if found is not None and _precedes((found[0], c), best):
                        num, g, q = found
                        best = (num, c, g, (*prefix, q))
            bests.append(best)
    upper, lower = bests
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
    level: int, witness: SortedWitness, tail: PartialSolution, cap: int
) -> BoundResult:
    """Minimum upper bound on x(level) over all admissible constraints.

    A minimum always exists: the head paired with -1 on the next
    coordinate is admissible because the witness is sorted. Ties are
    broken by the smallest head, then the lexicographically smallest tail
    coefficients; tie-breaks affect only the reported constraint.
    """
    return _bounds(level, witness, tail, cap)[0]


def tightest_lower(
    level: int, witness: SortedWitness, tail: PartialSolution, cap: int
) -> BoundResult:
    """Maximum lower bound on x(level); never negative (all-zero tail)."""
    return _bounds(level, witness, tail, cap)[1]


def plan(n: int, d: int) -> tuple[tuple[int, int | None, int | None], ...]:
    """(level, cap, searches per bound) for each level, n-1 down to 1.

    The construction depends on (n, d) alone, so this is known before any
    work starts. The widest level runs one head walk per bound. Every
    other level, of width w = n - level, runs one search per head c in
    [1, cap] and earlier prefix in [-cap, cap]**(w-2):
    cap*(2*cap+1)**(w-2). cap and searches are None for a level whose
    count passes 2**16384 (see scan_size); its cap is never built, and no
    budget admits it.
    """
    levels = []
    for level in range(n - 1, 0, -1):
        width = n - level
        size = scan_size(d, level, max(width - 1, 1))
        if size is None:
            levels.append((level, None, None))
            continue
        cap = coefficient_cap(d, level)
        levels.append((level, cap, 1 if width == 1 else cap * size // (2 * cap + 1)))
    return tuple(levels)


def step(
    level: int, cap: int, witness: SortedWitness, tail: PartialSolution
) -> StepRecord:
    """Fix x(level): take the tightest upper bound and rescale to integers.

    cap is the level's coefficient cap, as plan gives it; step runs no
    budget check of its own. The reduced denominator of the chosen
    fraction divides the achieving head coefficient, so the rescale factor
    never exceeds the cap. A tightest lower bound above the tightest upper
    bound is impossible and reported as an internal inconsistency.
    """
    upper, lower = _bounds(level, witness, tail, cap)
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
    satisfies. Every level of the plan is checked against the budget
    before the first one runs.
    """
    witness = validate(problem)
    n, d = problem.n, problem.d
    levels = plan(n, d)
    for level, _, searches in levels:
        check_budget(searches, budget, f"level {level}")
    partial = PartialSolution(level=n, x=(1,))
    trace = []
    for level, cap, _ in levels:
        record = step(level, cap, witness, partial)
        trace.append(record)
        partial = record.partial_after
    x = unsort(partial.x, witness.perm)
    bound = bound_value(n, d)
    if max(x) > bound:
        raise InternalInconsistencyError(
            f"output {x} exceeds the guaranteed bound {bound}"
        )
    return CompressOutput(x=x, trace=tuple(trace), bound=bound, perm=witness.perm)
