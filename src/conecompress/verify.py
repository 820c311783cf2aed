"""Independent exact oracles for membership, bounds and known matrices.

These checks deliberately share no bound logic with the compressor. The
membership check decides over the full constraint set of the implicit
cone and reports its lexicographically first violated constraint as a
certificate. It finds it by a meet-in-the-middle search over the
coefficient vectors instead of visiting each one, and returns what a full
scan would. A partial search is never a verdict, so a constraint set whose
size, (2d+1)**n vectors, exceeds the budget raises instead of sampling.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, product
from operator import mul
from typing import Sequence

from .errors import ValidationError
from .model import Constraint, bound_value, check_budget, scan_size

DEFAULT_VERIFY_BUDGET = 10**7


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check; a failed membership check carries a certificate.

    A certificate is re-checkable with two dot products: the witness
    satisfies it, the candidate vector does not.
    """

    ok: bool
    certificate: Constraint | None = None


def _half(y: Sequence[int], x: Sequence[int], cap: int) -> tuple[list[int], list[int]]:
    """c.y and c.x for every c in [-cap, cap]**len(y), in lexicographic order."""
    coeffs = range(-cap, cap + 1)
    cy, cx = [0], [0]
    for yi, xi in zip(y, x):
        steps = [c * yi for c in coeffs]
        cy = [a + s for a in cy for s in steps]
        steps = [c * xi for c in coeffs]
        cx = [a + s for a in cx for s in steps]
    return cy, cx


def _scan(cap: int, y: Sequence[int], x: Sequence[int]) -> Verdict:
    """The lexicographically first c in [-cap, cap]**len(y) with c.y <= 0 < c.x.

    An exact meet-in-the-middle (Horowitz and Sahni, J. ACM 1974): c is a
    head of ceil(w/2) coordinates and a tail of floor(w/2), w = len(y).
    Only the tails are stored, sorted by t.y with a running maximum of
    t.x, so one bisection tells whether a head h has a tail with
    t.y <= -h.y and t.x > -h.x. Heads stream in lexicographic order, so
    the first head that has one, with its first such tail in lexicographic
    order, is the certificate a full scan would return; only it becomes a
    Constraint. The stored half is the smaller one, (2cap+1)**floor(w/2)
    entries: a width-1 scan stores only the empty tail.
    """
    w = len(y)
    h = w - w // 2
    coeffs = range(-cap, cap + 1)
    tail_y, tail_x = _half(y[h:], x[h:], cap)
    order = sorted(range(len(tail_y)), key=tail_y.__getitem__)
    sorted_y = [tail_y[j] for j in order]
    best_x = list(accumulate((tail_x[j] for j in order), max))
    y_last, x_last = y[h - 1], x[h - 1]
    for prefix in product(coeffs, repeat=h - 1):
        # a tail fits head (*prefix, c) when t.y <= hy and t.x + hx > 0
        hy = cap * y_last - sum(map(mul, prefix, y))
        hx = sum(map(mul, prefix, x)) - cap * x_last
        for c in coeffs:
            k = bisect_right(sorted_y, hy)
            if k and best_x[k - 1] + hx > 0:
                tail = next(
                    t
                    for t, ty, tx in zip(product(coeffs, repeat=w - h), tail_y, tail_x)
                    if ty <= hy and tx + hx > 0
                )
                certificate = Constraint(1, (*prefix, c, *tail))
                return Verdict(ok=False, certificate=certificate)
            hy -= y_last
            hx += x_last
    return Verdict(ok=True)


def cone_membership(
    x: Sequence[int],
    witness: Sequence[int],
    d: int,
    budget: int = DEFAULT_VERIFY_BUDGET,
) -> Verdict:
    """Exact membership test in the witness-induced cone.

    Checks x against every coefficient vector with entries in [-d, d]
    that the witness satisfies, by _scan's split search: about
    (2d+1)**ceil(n/2) bisections instead of (2d+1)**n dot products. The
    budget still bounds the (2d+1)**n vectors decided over. Membership
    here is sufficient for membership in the unknown cone, whose defining
    rows are all among those vectors. x and the witness must share one
    coordinate order. A partial solution p of compress's level j lies in
    that level's cone when cone_membership(p.x, y[j-1:], cap_j) holds,
    with y the sorted witness and cap_j the level's cap.
    """
    if len(x) != len(witness):
        raise ValidationError(
            f"vector has {len(x)} entries, witness has {len(witness)}"
        )
    check_budget(scan_size(d, 1, len(witness)), budget, "membership scan")
    return _scan(d, witness, x)


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
