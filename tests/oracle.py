"""Independent brute-force oracles used by the tests.

Deliberately dumb: full scans with an explicit total order, no closed-form
shortcuts, so they stay independent of the code paths they check.
"""

from fractions import Fraction
from itertools import product


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def naive_tightest(level, y_sorted, tail_x, cap, upper):
    """Scan every (head, tail) coefficient pair at this level.

    Returns (value, coeffs) minimizing the induced bound for the upper
    case / maximizing it for the lower case, tie-broken by smallest head
    magnitude, then lexicographically smallest tail. Returns None if no
    admissible constraint exists (cannot happen for a sorted witness).
    """
    n = len(y_sorted)
    width = n - level
    y_head = y_sorted[level - 1]
    y_tail = y_sorted[level:]
    heads = range(1, cap + 1) if upper else range(-1, -cap - 1, -1)
    best_key = None
    best = None
    for head in heads:
        for tau in product(range(-cap, cap + 1), repeat=width):
            if head * y_head + dot(tau, y_tail) > 0:
                continue
            value = Fraction(-dot(tau, tail_x), head)
            key = (value if upper else -value, abs(head), tau)
            if best_key is None or key < best_key:
                best_key = key
                best = (value, (head,) + tau)
    return best


def naive_membership(x, y, cap):
    """First (lexicographic) admissible constraint violated by x, or None."""
    for coeffs in product(range(-cap, cap + 1), repeat=len(y)):
        if dot(coeffs, y) <= 0 and dot(coeffs, x) > 0:
            return coeffs
    return None


def scan_tightest(level, y_sorted, tail_x, cap, upper):
    """Scan every tail coefficient vector and resolve the head in closed form.

    For a fixed tail, s = -tail.x and t = -tail.y; a head c is admissible
    iff c * y_head <= t and then induces the bound s / c. The best head
    is an end of the admissible range, chosen by the sign of s; equal
    values go to the head nearest zero, equal (value, head) pairs to the
    earlier tail. Same result as naive_tightest at the cost of one pass
    over the tails.
    """
    y_head = y_sorted[level - 1]
    y_tail = y_sorted[level:]
    best = None
    for tau in product(range(-cap, cap + 1), repeat=len(tail_x)):
        s = -dot(tau, tail_x)
        t = -dot(tau, y_tail)
        if y_head == 0:
            if t < 0:
                continue
            near = 1 if upper else -1
        else:
            near = min(cap, t // y_head) if upper else min(-1, t // y_head)
            if (near < 1) if upper else (near < -cap):
                continue
        if upper:
            c = near if s > 0 else 1
        else:
            c = -cap if s > 0 else near
        if best is not None:
            # heads share a sign, so cross multiplication keeps the order
            lhs, rhs = s * best[1], best[0] * c
            if lhs == rhs and abs(c) >= abs(best[1]):
                continue
            if lhs != rhs and (lhs > rhs if upper else lhs < rhs):
                continue
        best = (s, c, tau)
    s, c, tau = best
    return Fraction(s, c), (c,) + tau
