import hashlib
import importlib
import json
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conecompress import (
    DEFAULT_COMPRESS_BUDGET,
    ProblemInput,
    coefficient_cap,
    compress,
    cone_membership,
    generate,
    plan,
    tightest_lower,
    tightest_upper,
    validate,
)
from conecompress.compress import BoundResult, PartialSolution, step
from conecompress.errors import BudgetExceededError, InternalInconsistencyError
from conecompress.model import Constraint, SortedWitness

from oracle import dot, naive_tightest, scan_tightest

W4 = validate(ProblemInput(4, 1, (2, 3, 7, 29)))
HARD_DIGESTS, EASY_DIGESTS = (
    json.loads((Path(__file__).parent / "data" / f"{regime}_regime_trace_digests.json").read_text())
    for regime in ("hard", "easy")
)


def witness(*y):
    return SortedWitness(y=tuple(y), perm=tuple(range(len(y))))


def random_config(rng):
    n = rng.randint(2, 4)
    d = rng.randint(1, 2)
    y = sorted(rng.randint(0, 12) for _ in range(n))
    if y[-1] == 0:
        y[-1] = 1
    level = rng.randint(1, n - 1)
    tail = sorted(rng.randint(0, 9) for _ in range(n - level))
    if tail[-1] == 0:
        tail[-1] = 1
    return d, witness(*y), level, PartialSolution(level + 1, tuple(tail))


class TestTightestBounds:
    def test_upper_level3(self):
        r = tightest_upper(3, W4, PartialSolution(4, (1,)), 8)
        assert r.value == Fraction(1, 4)
        assert r.achieving.coeffs == (4, -1)

    def test_upper_level2(self):
        r = tightest_upper(2, W4, PartialSolution(3, (1, 4)), 2)
        assert r.value == Fraction(1, 2)
        assert r.achieving.coeffs == (2, -1, 0)

    def test_upper_level1(self):
        r = tightest_upper(1, W4, PartialSolution(2, (1, 2, 8)), 1)
        assert r.value == 1
        assert r.achieving.coeffs == (1, -1, 0, 0)

    def test_lower_level3(self):
        r = tightest_lower(3, W4, PartialSolution(4, (1,)), 8)
        assert r.value == Fraction(1, 5)
        assert r.achieving.coeffs == (-5, 1)

    def test_lower_level1(self):
        r = tightest_lower(1, W4, PartialSolution(2, (1, 2, 8)), 1)
        want = naive_tightest(1, W4.y, (1, 2, 8), 1, False)
        assert (r.value, r.achieving.coeffs) == want
        assert r.value == 0
        assert r.achieving.coeffs == (-1, 0, 0, 0)

    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_lower_equal_witness_entries(self, k):
        r = tightest_lower(2, witness(k, k, k), PartialSolution(3, (1,)), 2)
        want = naive_tightest(2, (k, k, k), (1,), 2, False)
        assert (r.value, r.achieving.coeffs) == want
        assert r.value <= 1

    def test_denominator_within_cap(self):
        rng = Random(31)
        for _ in range(40):
            d, w, level, tail = random_config(rng)
            cap = coefficient_cap(d, level)
            for fn in (tightest_upper, tightest_lower):
                r = fn(level, w, tail, cap)
                assert 1 <= r.value.denominator <= cap

    def test_rejects_misaligned_tail(self):
        with pytest.raises(ValueError):
            tightest_upper(2, W4, PartialSolution(4, (1,)), 2)


class TestOracleEquivalence:
    def test_random_configurations(self):
        rng = Random(202)
        for _ in range(40):
            d, w, level, tail = random_config(rng)
            cap = coefficient_cap(d, level)
            for upper in (True, False):
                fn = tightest_upper if upper else tightest_lower
                got = fn(level, w, tail, cap)
                want_value, want_coeffs = naive_tightest(
                    level, w.y, tail.x, cap, upper
                )
                assert got.value == want_value
                assert got.achieving.coeffs == want_coeffs


def sorted_tuples(length, top):
    """Non-decreasing tuples over [0, top] whose last entry is positive."""
    for v in product(range(top + 1), repeat=length):
        if v[-1] > 0 and all(a <= b for a, b in zip(v, v[1:])):
            yield v


@st.composite
def level_cases(draw):
    """A level problem with witness entries up to 10**1000.

    Entries come from a pool of at most three values plus zero, so zero
    heads and equal entries are common; equal tail entries and zero heads
    are what let a prefix reach the clamps at +-cap. Some pools hold small
    multiples of one base, so that every prefix's dot product is a
    multiple of the base and the head-range divisions are often exact.
    """
    width = draw(st.integers(1, 3))
    cap = draw(st.integers(1, (32768, 128, 8)[width - 1]))
    entry = st.one_of(st.integers(0, 12), st.integers(0, 10**300), st.integers(0, 10**1000))
    multiples = st.builds(
        lambda base, ks: [base * k for k in ks],
        st.one_of(st.integers(1, 12), st.integers(1, 10**1000)),
        st.lists(st.integers(1, 6), min_size=1, max_size=3),
    )
    pool = draw(st.one_of(st.lists(entry, min_size=1, max_size=3), multiples)) + [0]
    y = sorted(draw(st.lists(st.sampled_from(pool), min_size=width + 1, max_size=width + 1)))
    x = sorted(draw(st.lists(entry, min_size=width, max_size=width)))
    y[-1] = y[-1] or 1
    x[-1] = x[-1] or 1
    return tuple(y), tuple(x), cap


@st.composite
def ray_cases(draw):
    """A level problem whose tail is a multiple of the witness tail.

    Both are multiples of one base vector, so the last two coordinates are
    a ray pair whenever the base's second-to-last entry is positive; the
    head entry is at most the first tail entry, as in a sorted witness.
    """
    width = draw(st.integers(2, 3))
    cap = draw(st.integers(1, (128, 8)[width - 2]))
    small = st.integers(1, 30)
    big = st.one_of(small, st.integers(1, 10**300), st.integers(1, 10**1000))
    base = sorted(draw(st.lists(st.integers(0, 30), min_size=width, max_size=width)))
    base[-1] = base[-1] or 1
    mu, lam = draw(big), draw(big)
    y_tail = [mu * b for b in base]
    head = draw(st.integers(0, y_tail[0]))
    return (head, *y_tail), tuple(lam * b for b in base), cap


def upper_farey(a, b, n):
    """The smallest fraction p/q >= a/b with 1 <= q <= n, for 0 <= a <= b,
    as (p, q): a descent of the Stern-Brocot tree, many steps at a time.

    The neighbours lp/lq < a/b < rp/rq move towards a/b until a/b itself
    is reached or the next mediant's denominator passes n.
    """
    if a == 0 or a == b:
        return a // b, 1
    lp, lq, rp, rq = 0, 1, 1, 1
    while lq + rq <= n:
        side = a * (lq + rq) - b * (lp + rp)
        if side == 0:
            return lp + rp, lq + rq
        if side > 0:  # the mediant is below a/b: move the left neighbour
            k = min((a * lq - b * lp - 1) // (b * rp - a * rq), (n - lq) // rq)
            lp, lq = lp + k * rp, lq + k * rq
        else:
            k = min((b * rp - a * rq - 1) // (a * lq - b * lp), (n - rq) // lq)
            rp, rq = rp + k * lp, rq + k * lq
    return rp, rq


@st.composite
def farey_cases(draw):
    """A level problem whose tail is as compress makes it in the hard regime.

    The widest level sets x_q/x_last to the upper Farey approximation of
    y_q/y_last with denominators up to its cap, and every later rescale
    multiplies both; here that cap is 2*cap**2, the cap one level up. Such
    tails are not ray pairs, and they reach the residue table's certificate
    far more often than random ones.
    """
    width = draw(st.integers(2, 3))
    cap = draw(st.integers(1, (128, 8)[width - 2]))
    entry = st.one_of(st.integers(1, 10**12), st.integers(1, 10**1000))
    y_tail = sorted(draw(st.lists(entry, min_size=width, max_size=width)))
    head = draw(st.integers(0, y_tail[0]))
    p, q = upper_farey(y_tail[-2], y_tail[-1], 2 * cap * cap)
    k = draw(st.integers(1, 2 * cap))
    x_mid = draw(st.lists(st.integers(0, k * p), min_size=width - 2, max_size=width - 2))
    return (head, *y_tail), (*sorted(x_mid), k * p, k * q), cap


class TestKernel:
    def test_exhaustive_against_naive_scan(self):
        checked = 0
        for n in (2, 3):
            for y in sorted_tuples(n, 4):
                w = witness(*y)
                for level in range(1, n):
                    for x in sorted_tuples(n - level, 3):
                        tail = PartialSolution(level + 1, x)
                        for cap in (1, 2, 3):
                            for upper in (True, False):
                                fn = tightest_upper if upper else tightest_lower
                                got = fn(level, w, tail, cap)
                                want = naive_tightest(level, y, x, cap, upper)
                                assert (got.value, got.achieving.coeffs) == want
                                checked += 1
        assert checked == 2700

    @settings(max_examples=60, deadline=None)
    @given(level_cases(), st.booleans())
    def test_equals_closed_form_head_scan(self, case, upper):
        y, x, cap = case
        fn = tightest_upper if upper else tightest_lower
        got = fn(1, witness(*y), PartialSolution(2, x), cap)
        assert (got.value, got.achieving.coeffs) == scan_tightest(1, y, x, cap, upper)

    @settings(max_examples=40, deadline=None)
    @given(ray_cases(), st.booleans())
    def test_ray_levels_equal_the_tail_scan(self, case, upper):
        y, x, cap = case
        fn = tightest_upper if upper else tightest_lower
        got = fn(1, witness(*y), PartialSolution(2, x), cap)
        assert (got.value, got.achieving.coeffs) == scan_tightest(1, y, x, cap, upper)

    @settings(max_examples=40, deadline=None)
    @given(farey_cases(), st.booleans())
    def test_farey_tails_equal_the_tail_scan(self, case, upper):
        y, x, cap = case
        fn = tightest_upper if upper else tightest_lower
        got = fn(1, witness(*y), PartialSolution(2, x), cap)
        assert (got.value, got.achieving.coeffs) == scan_tightest(1, y, x, cap, upper)

    @pytest.mark.parametrize(
        "a, b, n, want",
        [(0, 5, 3, (0, 1)), (5, 5, 3, (1, 1)), (2, 4, 3, (1, 2)), (3, 7, 3, (1, 2)),
         (3, 7, 7, (3, 7)), (1, 10**6, 4, (1, 4)), (10**6 - 1, 10**6, 10, (1, 1))],
    )
    def test_upper_farey(self, a, b, n, want):
        assert upper_farey(a, b, n) == want
        scan = min(Fraction(-(-a * c // b), c) for c in range(1, n + 1))
        assert Fraction(*want) == scan

    def test_widest_level_gives_the_farey_neighbours(self):
        # far past any scan: cap 2**4096 and 2001-digit witness entries
        cap = 2**4096
        a, y_last = 10**2000 + 7, 3 * 10**2000 + 1
        w, tail = witness(a, y_last), PartialSolution(2, (1,))
        up = tightest_upper(1, w, tail, cap).value
        lo = tightest_lower(1, w, tail, cap).value
        assert lo < Fraction(a, y_last) < up
        assert up.numerator * lo.denominator - lo.numerator * up.denominator == 1
        assert max(up.denominator, lo.denominator) <= cap
        assert up.denominator + lo.denominator > cap


def count_searches(monkeypatch, names=("_best_head", "_best_last")):
    """Record every call to the named functions of compress, by name; by
    default the two searches that compress._bounds runs."""
    module = importlib.import_module("conecompress.compress")
    calls = []
    for name in names:
        search = getattr(module, name)

        def counted(*args, _search=search, _name=name):
            calls.append(_name)
            return _search(*args)

        monkeypatch.setattr(module, name, counted)
    return module, calls


class TestPlan:
    """A level's cap and work are what compress.plan gives for it."""

    def test_counts_per_level(self):
        # the widest level walks its heads once; level 2 runs one search per
        # head; level 1 one per head (cap 1) and earlier prefix (2*1+1)
        assert plan(4, 1) == ((3, 8, 1), (2, 2, 2), (1, 1, 3))
        assert plan(1, 5) == ()

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize(
        "y", [(0, 5, 7, 9), (3, 5, 7, 9), (9, 9, 9, 9)], ids=["zero-head", "distinct", "equal"]
    )
    def test_two_head_searches_per_planned_prefix(self, monkeypatch, width, y):
        # one head walk per direction at the widest level, else one
        # _best_last per direction, head and earlier prefix
        module, calls = count_searches(monkeypatch)
        level, cap, planned = plan(width + 1, 3)[-1]  # level 1 has cap d
        assert (level, cap, planned) == (1, 3, (1, 3, 3 * 7)[width - 1])
        w = witness(y[0], *y[-width:])
        module._bounds(1, w, PartialSolution(2, (1, 2, 4)[-width:]), cap)
        assert len(calls) == 2 * planned
        assert set(calls) == {"_best_head" if width == 1 else "_best_last"}

    @pytest.mark.parametrize(
        "problem",
        [
            ProblemInput(4, 1, (2, 3, 7, 29)),
            ProblemInput(5, 1, (3, 5, 8, 13, 21)),
            ProblemInput(4, 2, (1, 4, 6, 9)),
            generate(5, 1, 10, 1, scale=1, max_entry=10**12).public,
            ProblemInput(4, 1, (0, 0, 0, 5)),
            ProblemInput(4, 2, (7, 7, 7, 7)),
        ],
        ids=["n4-d1", "n5-d1", "n4-d2", "hard-regime", "zero-last-prefix", "equal"],
    )
    def test_whole_run_equals_the_plan(self, monkeypatch, problem):
        module, calls = count_searches(monkeypatch)
        out = compress(problem)
        levels = plan(problem.n, problem.d)
        assert [(rec.level, rec.cap) for rec in out.trace] == [
            (level, cap) for level, cap, _ in levels
        ]
        assert len(calls) == sum(2 * searches for _, _, searches in levels)

    @pytest.mark.parametrize(
        "problem, walks",
        [
            (generate(6, 1, 12, 0).public, 287),
            (generate(7, 1, 14, 1).public, 3113),
            (generate(5, 1, 10, 1, scale=1, max_entry=10**12).public, 25),
            (generate(6, 1, 12, 0, scale=1, max_entry=10**1000).public, 142),
        ],
        ids=["easy-n6-d1", "easy-n7-d1", "hard-regime", "hard-regime-bigwitness"],
    )
    def test_walks_per_run(self, monkeypatch, problem, walks):
        # below the widest level a generated instance is a ray pair, so an
        # item walks only when its congruence's solution is past its range;
        # the hard regime has no ray pair, and an item walks only when the
        # level's residue table does not certify its best last coordinate
        module, calls = count_searches(monkeypatch, ("_best_head", "_best_last", "_walk"))
        compress(problem)
        levels = plan(problem.n, problem.d)
        assert calls.count("_walk") == walks
        assert len(calls) - walks == sum(2 * searches for _, _, searches in levels)

    @pytest.mark.parametrize("n, d", [(7, 1), (6, 2)])
    def test_frontier(self, n, d):
        # levels n-2 and n-3 are the largest and fit the default budget;
        # one more coordinate takes level n-2 to cap 2**31, one search per head
        counts = [searches for _, _, searches in plan(n, d)]
        assert counts[1:3] == [32768, 32896] and max(counts) == 32896
        assert max(counts) <= DEFAULT_COMPRESS_BUDGET
        over = [c for _, _, c in plan(n + 1, d) if c > DEFAULT_COMPRESS_BUDGET]
        assert over[0] == 2147483648

    def test_huge_levels_are_not_built(self, monkeypatch):
        module = importlib.import_module("conecompress.compress")
        built, cap_of = [], module.coefficient_cap

        def recorded(d, level):
            built.append(level)
            return cap_of(d, level)

        monkeypatch.setattr(module, "coefficient_cap", recorded)
        levels = plan(101, 1)
        assert [level for level, _, _ in levels] == list(range(100, 0, -1))
        huge = [level for level, cap, searches in levels if searches is None]
        assert huge[0] == 100 and levels[-1] == (1, 1, 3**98)
        assert all(cap is None for level, cap, _ in levels if level in huge)
        assert huge == [level for level in range(100, 0, -1) if level not in built]

    @pytest.mark.parametrize(
        "n, d, budget",
        [(6, 2, 1000), (6, 3, 10**5), (8, 1, 10**8), (7, 2, 10**8), (20, 2, 10**9), (101, 1, 10**8)],
    )
    def test_compress_requires_the_first_count_over_budget(self, n, d, budget):
        first = next(s for _, _, s in plan(n, d) if s is None or s > budget)
        with pytest.raises(BudgetExceededError) as info:
            compress(ProblemInput(n, d, tuple(range(1, n + 1))), budget=budget)
        assert info.value.required == first


def brute_last(beta, px, y_q, y_last, x_q, x_last, cap):
    """(num, G, q) of the smallest q in [-cap, cap] minimizing the
    numerator over the feasible q, or None: a scan of _best_last's problem."""
    best = None
    for q in range(-cap, cap + 1):
        g = max(-cap, -(-(y_q * q + beta) // y_last))
        if g <= cap and (best is None or x_last * g - x_q * q - px < best[0]):
            best = (x_last * g - x_q * q - px, g, q)
    return best


class TestBestLast:
    def test_exhaustive_against_a_scan_of_the_last_coordinate(self, monkeypatch):
        module = importlib.import_module("conecompress.compress")
        walk, walked = module._walk, []

        def recorded(*args):
            walked.append(args)
            return walk(*args)

        monkeypatch.setattr(module, "_walk", recorded)
        seen = dict.fromkeys(
            (
                "none-feasible", "all-clamped", "some-clamped", "tie", "closed-form", "fallback",
                "certified S>0", "certified S<0", "q1-out-of-range", "certificate-failed",
                "equal-residues",
            ),
            0,
        )
        for cap, y_last, x_last in product((1, 2, 3, 4), (1, 2, 5, 6, 11), (1, 3, 6)):
            for y_q, x_q in product(
                sorted({0, 1, min(2, y_last), y_last - 1, y_last}), range(x_last + 1)
            ):
                chain = [(*divmod(y_q, y_last), y_last)]
                far_d = 4 * cap * cap * (x_last + x_q) + 1  # D of the docstring
                far = (-far_d * x_last, (cap + 1) * x_last - x_q * far_d)
                # the level's congruence data or residue table, as _bounds builds them
                ray = table = None
                s = x_last * y_q - y_last * x_q
                if y_q and s == 0:
                    g = gcd(y_q, y_last)
                    ray = (g, y_last // g, pow(y_q // g, -1, y_last // g))
                elif y_q:
                    table = (s, y_last, *module._residues(y_q, y_last, cap))
                    pairs = sorted((y_q * q % y_last, q) for q in range(-cap, cap + 1))
                    assert table[2:] == tuple(map(list, zip(*pairs)))
                reach = cap * (y_last + y_q) + 2
                for beta, px in product(range(-reach, reach + 1), (0, 5)):
                    qs = range(-cap, cap + 1)
                    feasible = [q for q in qs if y_q * q + beta <= cap * y_last]
                    clamped = [q for q in qs if y_q * q + beta <= -cap * y_last]
                    hi = max(feasible, default=-cap - 1)
                    clamped_hi = max(clamped, default=-cap - 1)
                    walked.clear()
                    got = module._best_last(
                        chain, far, hi, clamped_hi, beta, px, y_q, x_q, x_last, cap, ray, table
                    )
                    want = brute_last(beta, px, y_q, y_last, x_q, x_last, cap)
                    assert got == want, (cap, y_last, x_last, y_q, x_q, beta, px)
                    if want is None:
                        seen["none-feasible"] += 1
                        continue
                    if len(clamped) == len(qs):
                        seen["all-clamped"] += 1
                    elif clamped:
                        seen["some-clamped"] += 1
                    if ray is not None and len(clamped) < len(feasible):
                        # walks only when the congruence's solution is past hi
                        seen["fallback" if walked else "closed-form"] += 1
                    if table is not None and len(clamped) < len(feasible):
                        # the certificate, from a sort of -(y_q*q + beta) mod y_last
                        lo = clamped_hi + 1
                        (r1, q1), (r2, _) = sorted(
                            (-(y_q * q + beta) % y_last, q) for q in qs
                        )[:2]
                        if r1 == r2:
                            assert y_last // gcd(y_q, y_last) <= 2 * cap
                            outcome = "equal-residues"
                        elif not lo <= q1 <= hi:
                            outcome = "q1-out-of-range"
                        elif s * q1 + x_last * r1 < min(s * lo, s * hi) + x_last * r2:
                            outcome = "certified S>0" if s > 0 else "certified S<0"
                        else:
                            outcome = "certificate-failed"
                        assert bool(walked) != outcome.startswith("certified"), outcome
                        seen[outcome] += 1
                    nums = [
                        x_last * max(-cap, -(-(y_q * q + beta) // y_last)) - x_q * q - px
                        for q in feasible
                    ]
                    seen["tie"] += nums.count(want[0]) > 1
        assert all(seen.values()), seen


class TestResidueTable:
    """compress._residues holds 2*cap+1 residues, and a level builds it only
    when compress._table_bytes, an upper estimate of its peak, fits."""

    @pytest.mark.parametrize("digits", [2, 12, 100, 1000])
    def test_estimate_bounds_the_peak(self, digits):
        module = importlib.import_module("conecompress.compress")
        y_last, cap = 10**digits + 7, 3000
        tracemalloc.start()
        try:
            table = module._residues(10**digits // 3 + 1, y_last, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table[0]) == 2 * cap + 1
        assert peak <= module._table_bytes(cap, y_last)

    def test_limit(self):
        module = importlib.import_module("conecompress.compress")

        def fits(cap, y_last):
            return module._table_bytes(cap, y_last) <= module._TABLE_BYTES

        # (7,1) and (6,2) at level n-2 with 1000-digit entries, every
        # smaller level at the CLI's 4300-digit limit
        assert fits(plan(7, 1)[1][1], 10**1000) and fits(plan(6, 2)[1][1], 10**1000)
        assert fits(plan(6, 1)[1][1], 10**4300) and fits(plan(5, 2)[1][1], 10**4300)
        # shapes the default budget admits whose tables would hold millions
        # of entries: level n-2 of n=3, d=10**7, of (6,4) and of (4,7000),
        # and (6,3) at 1000 digits
        for n, d, y_last in [(3, 10**7, 2), (6, 4, 10**12), (4, 7000, 10**12), (6, 3, 10**1000)]:
            _, cap, searches = plan(n, d)[1]
            assert searches <= DEFAULT_COMPRESS_BUDGET and not fits(cap, y_last)

    def test_a_level_past_the_limit_walks(self, monkeypatch):
        module = importlib.import_module("conecompress.compress")
        w = validate(generate(3, 1, 6, 1, scale=1, max_entry=10**1000).public)
        tail = step(2, 2, w, PartialSolution(3, (1,))).partial_after
        cap, y_last = 1000, w.y[-1]
        assert tail.x[0] * y_last != tail.x[1] * w.y[-2]  # not a ray pair
        want = module._bounds(1, w, tail, cap)
        monkeypatch.setattr(module, "_TABLE_BYTES", module._table_bytes(cap, y_last) - 1)
        _, calls = count_searches(monkeypatch, ("_residues", "_walk"))
        tracemalloc.start()
        try:
            got = module._bounds(1, w, tail, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert calls.count("_walk") == 2 * cap and "_residues" not in calls
        assert peak < module._table_bytes(cap, y_last) // 10


class TestEuclidChain:
    """compress._walk shares one Euclid chain per level below the widest."""

    @pytest.mark.parametrize(
        "y",
        [(0, 7, 7, 29), (29, 29, 29), (0, 0, 29), (4, 8, 24), (2, 3, 7, 29)],
        ids=["zero-head", "equal-entries", "zeros", "divisors", "worked-example"],
    )
    def test_never_extended_past_a_zero_remainder(self, monkeypatch, y):
        module = importlib.import_module("conecompress.compress")
        walk, chains = module._walk, []

        def checked(qx, qy, den, chain, b, n):
            result = walk(qx, qy, den, chain, b, n)
            assert all(r != 0 for _, r, _ in chain[:-1])
            assert all(0 <= r < m for _, r, m in chain)
            chains.append(chain)
            return result

        monkeypatch.setattr(module, "_walk", checked)
        compress(ProblemInput(len(y), 2, y))
        assert chains
        for chain in chains:
            if chain[0][1] == 0:  # y_q == 0 or y_q == y_last
                assert len(chain) == 1

    def test_chain_is_shared_and_grows_lazily(self, monkeypatch):
        module = importlib.import_module("conecompress.compress")
        walk, seen = module._walk, []

        def recorded(qx, qy, den, chain, b, n):
            seen.append((chain, len(chain)))
            return walk(qx, qy, den, chain, b, n)

        monkeypatch.setattr(module, "_walk", recorded)
        # y_q = 13, y_last = 21: consecutive Fibonacci numbers, the longest chain
        module._bounds(1, witness(5, 13, 21), PartialSolution(2, (2, 3)), 50)
        chains = {id(chain): chain for chain, _ in seen}
        assert len(chains) == 1  # both directions and every head
        assert all(before <= len(chain) for chain, before in seen)
        (chain,) = chains.values()
        assert len(chain) > 2
        a, m = chain[0][0] * chain[0][2] + chain[0][1], chain[0][2]
        assert (a, m) == (13, 21)
        for k, r, divisor in chain:
            assert (k, r, divisor) == (*divmod(a, m), m)
            a, m = m, r


def trace_digest(out):
    """SHA-256 of x and of every level's bounds and achieving constraints."""
    steps = [
        [
            rec.level,
            str(rec.upper.value),
            list(rec.upper.achieving.coeffs),
            str(rec.lower.value),
            list(rec.lower.achieving.coeffs),
        ]
        for rec in out.trace
    ]
    text = json.dumps({"x": list(out.x), "steps": steps}, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenTraces:
    """Traces pinned by digest in both regimes; any change to an output, a
    bound or a tie-break shows here.

    Hard regime: scale 1, entries up to 10**1000, digests computed by the
    kernel that divided afresh in every walk, before the per-level Euclid
    chains; at the frontier shapes, entries up to 10**12, digests computed
    by the kernel that walked every item, before the residue table. Easy
    regime: generated at the default scale, where every level below the
    widest is a ray pair, digests computed by the kernel that walked every
    item, before the congruence solve of _best_last.
    """

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n, d", [(6, 1), (5, 2)])
    def test_full_trace_digest(self, n, d, seed):
        instance = generate(n, d, 2 * n, seed, scale=1, max_entry=10**1000)
        out = compress(instance.public)
        assert trace_digest(out) == HARD_DIGESTS[f"n{n}_d{d}_seed{seed}"]

    @pytest.mark.parametrize("n, d", [(7, 1), (6, 2)])
    def test_hard_regime_frontier_trace_digest(self, n, d):
        instance = generate(n, d, 2 * n, 1, scale=1, max_entry=10**12)
        out = compress(instance.public)
        assert trace_digest(out) == HARD_DIGESTS[f"n{n}_d{d}_seed1_digits12"]

    @pytest.mark.parametrize(
        "n, d, seed",
        [(6, 1, s) for s in range(6)] + [(5, 2, s) for s in range(6)] + [(7, 1, 1), (6, 2, 1)],
    )
    def test_easy_regime_trace_digest(self, n, d, seed):
        out = compress(generate(n, d, 2 * n, seed).public)
        assert trace_digest(out) == EASY_DIGESTS[f"n{n}_d{d}_seed{seed}"]


class TestStep:
    def test_level3(self):
        rec = step(3, 8, W4, PartialSolution(4, (1,)))
        assert rec.chosen == Fraction(1, 4)
        assert rec.scale == 4
        assert rec.partial_after.x == (1, 4)

    def test_level2(self):
        rec = step(2, 2, W4, PartialSolution(3, (1, 4)))
        assert rec.chosen == Fraction(1, 2)
        assert rec.scale == 2
        assert rec.partial_after.x == (1, 2, 8)

    def test_level1(self):
        rec = step(1, 1, W4, PartialSolution(2, (1, 2, 8)))
        assert rec.chosen == 1
        assert rec.scale == 1
        assert rec.partial_after.x == (1, 1, 2, 8)

    @pytest.mark.parametrize("name", ["tightest_upper", "tightest_lower"])
    @pytest.mark.parametrize(
        "coeffs",
        [(4, -1, 0), (9, -9), (1, 0)],
        ids=["wrong-width", "over-cap", "witness-violates"],
    )
    def test_inadmissible_achieving_constraint_is_internal_error(
        self, monkeypatch, name, coeffs
    ):
        # Level 3 of the worked example has cap 8 and witness tail (7, 29).
        # step gets both bounds from one _bounds call; replace one side.
        module = importlib.import_module("conecompress.compress")
        tail = PartialSolution(4, (1,))
        side = ["tightest_upper", "tightest_lower"].index(name)
        bounds = list(module._bounds(3, W4, tail, 8))
        bounds[side] = BoundResult(value=bounds[side].value, achieving=Constraint(3, coeffs))
        monkeypatch.setattr(module, "_bounds", lambda *args: tuple(bounds))
        with pytest.raises(InternalInconsistencyError, match="not admissible"):
            step(3, 8, W4, tail)

    def test_consistency_on_random_instances(self):
        rng = Random(404)
        for _ in range(30):
            n = rng.randint(2, 4)
            d = rng.randint(1, 2)
            y = tuple(rng.randint(0, 30) for _ in range(n))
            if all(v == 0 for v in y):
                y = y[:-1] + (5,)
            out = compress(ProblemInput(n, d, y))
            for rec in out.trace:
                assert rec.lower.value <= rec.upper.value
                assert rec.scale == rec.chosen.denominator
                assert 1 <= rec.scale <= rec.cap


class TestCompress:
    def test_worked_example(self):
        out = compress(ProblemInput(4, 1, (2, 3, 7, 29)))
        assert out.x == (1, 1, 2, 8)
        assert out.bound == 16

    def test_dimension_one(self):
        out = compress(ProblemInput(1, 3, (40,)))
        assert out.x == (1,)
        assert out.trace == ()

    def test_equal_entries(self):
        out = compress(ProblemInput(3, 1, (2, 2, 2)))
        assert out.x == (1, 1, 1)
        # every bound chosen along the way is exactly 1
        assert all(rec.chosen == 1 for rec in out.trace)

    def test_two_coordinates(self):
        out = compress(ProblemInput(2, 1, (2, 5)))
        assert out.x == (1, 1)

    def test_unsorted_witness(self):
        out = compress(ProblemInput(3, 1, (7, 2, 2)))
        assert out.x == (2, 1, 1)

    def test_witness_with_zeros(self):
        out = compress(ProblemInput(3, 1, (0, 0, 5)))
        assert out.x == (0, 0, 1)
        zero_step = out.trace[0]
        assert zero_step.chosen == 0 and zero_step.scale == 1

    def test_output_nondecreasing_for_sorted_witness(self):
        rng = Random(55)
        for _ in range(20):
            n = rng.randint(2, 5)
            y = tuple(sorted(rng.randint(0, 50) for _ in range(n)))
            if y[-1] == 0:
                y = y[:-1] + (1,)
            out = compress(ProblemInput(n, 1, y))
            assert all(a <= b for a, b in zip(out.x, out.x[1:]))

    def test_last_entry_within_running_cap_product(self):
        out = compress(ProblemInput(5, 2, (3, 14, 15, 92, 65)))
        for rec in out.trace:
            limit = 1
            for j in range(rec.level, 5):
                limit *= coefficient_cap(2, j)
            assert rec.partial_after.x[-1] <= limit

    def test_deterministic(self):
        p = ProblemInput(4, 2, (9, 1, 30, 14))
        assert compress(p) == compress(p)

    @pytest.mark.parametrize("k", [2, 10**6])
    def test_scaling_invariance(self, k):
        rng = Random(77)
        for _ in range(10):
            n = rng.randint(2, 4)
            y = tuple(rng.randint(0, 40) for _ in range(n))
            if all(v == 0 for v in y):
                y = (1,) + y[1:]
            a = compress(ProblemInput(n, 1, y))
            b = compress(ProblemInput(n, 1, tuple(k * v for v in y)))
            assert a == b

    def test_partials_stay_members(self):
        rng = Random(88)
        for _ in range(16):
            d = rng.randint(1, 2)
            n = rng.randint(2, 4 if d == 1 else 3)
            y = tuple(rng.randint(0, 25) for _ in range(n))
            if all(v == 0 for v in y):
                y = y[:-1] + (2,)
            problem = ProblemInput(n, d, y)
            w = validate(problem)
            out = compress(problem)
            for rec in out.trace:
                tail = w.y[rec.level - 1 :]
                assert cone_membership(rec.partial_after.x, tail, rec.cap).ok

    def test_budget_error_propagates(self):
        # level 4: cap 32768, one search per head
        with pytest.raises(BudgetExceededError) as info:
            compress(ProblemInput(6, 2, (1, 2, 3, 4, 5, 6)), budget=1000)
        assert info.value.required == 32768

    def test_astronomical_budget_requirement_reported_as_unknown(self):
        with pytest.raises(BudgetExceededError) as info:
            compress(ProblemInput(20, 2, tuple(range(1, 21))), budget=10**9)
        assert info.value.required is None

    def test_over_budget_level_rejected_before_any_level_runs(self, monkeypatch):
        # level 5 (one walk) fits, level 4 (one search per head, 839808) does not
        def no_step(*args, **kwargs):
            raise AssertionError("a level ran before the budget check")

        module = importlib.import_module("conecompress.compress")
        monkeypatch.setattr(module, "step", no_step)
        with pytest.raises(BudgetExceededError) as info:
            compress(ProblemInput(6, 3, (3, 5, 7, 11, 13, 17)), budget=10**5)
        assert info.value.required == 839808 == coefficient_cap(3, 4)


class TestPrefixes:
    """compress._prefixes: the prefix loop's odometer."""

    @pytest.mark.parametrize("cap", [1, 2, 3])
    @pytest.mark.parametrize("width", [0, 1, 2, 3])
    def test_lexicographic_order_and_dot_products(self, cap, width):
        prefixes = importlib.import_module("conecompress.compress")._prefixes
        y_mid, x_mid = (2, 9, 40)[:width], (1, 3, 7)[:width]
        got = list(prefixes(cap, y_mid, x_mid))
        assert [p for p, _, _ in got] == list(
            product(range(-cap, cap + 1), repeat=width)
        )
        for p, py, px in got:
            assert (py, px) == (dot(p, y_mid), dot(p, x_mid))

    def test_first_prefix_at_a_cap_past_machine_integers(self):
        prefixes = importlib.import_module("conecompress.compress")._prefixes
        cap = 2**70
        assert next(prefixes(cap, (1, 2), (3, 4))) == ((-cap, -cap), -3 * cap, -7 * cap)

    def test_memory_stays_small_at_a_large_cap(self):
        prefixes = importlib.import_module("conecompress.compress")._prefixes
        tracemalloc.start()
        try:
            it = prefixes(10**8, (1, 2), (3, 4))
            for _ in range(1000):
                next(it)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestPartialSolution:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PartialSolution(1, (-1, 2))

    def test_rejects_zero_last(self):
        with pytest.raises(ValueError):
            PartialSolution(1, (0, 0))

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            PartialSolution(1, (3, 1))

    def test_n_property(self):
        assert PartialSolution(3, (1, 4)).n == 4
