import importlib
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conecompress import (
    ProblemInput,
    coefficient_cap,
    compress,
    level_membership,
    step,
    tightest_lower,
    tightest_upper,
    validate,
)
from conecompress.compress import BoundResult, PartialSolution
from conecompress.errors import BudgetExceededError, InternalInconsistencyError
from conecompress.model import Constraint, SortedWitness

from oracle import naive_tightest, scan_tightest

W4 = validate(ProblemInput(4, 1, (2, 3, 7, 29)))


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

    def test_budget_error_carries_required_count(self):
        # the widest level has one (empty) prefix, so it needs one walk
        tightest_upper(3, W4, PartialSolution(4, (1,)), 8, budget=1)
        with pytest.raises(BudgetExceededError) as info:
            tightest_upper(2, W4, PartialSolution(3, (1, 4)), 8, budget=16)
        assert info.value.required == 17  # 2*8+1 prefixes
        w = witness(1, 2, 3, 4)
        with pytest.raises(BudgetExceededError) as info:
            tightest_upper(1, w, PartialSolution(2, (1, 2, 3)), 1, budget=8)
        assert info.value.required == 9  # (2*1+1)**2 prefixes

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
    """A level problem with witness entries up to 10**300.

    Entries come from a pool of at most three values plus zero, so zero
    heads and equal entries are common; equal tail entries and zero heads
    are what let a prefix reach the clamps at +-cap.
    """
    width = draw(st.integers(1, 3))
    cap = draw(st.integers(1, (32768, 128, 8)[width - 1]))
    entry = st.one_of(st.integers(0, 12), st.integers(0, 10**300))
    pool = draw(st.lists(entry, min_size=1, max_size=3)) + [0]
    y = sorted(draw(st.lists(st.sampled_from(pool), min_size=width + 1, max_size=width + 1)))
    x = sorted(draw(st.lists(entry, min_size=width, max_size=width)))
    y[-1] = y[-1] or 1
    x[-1] = x[-1] or 1
    return tuple(y), tuple(x), cap


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

    def test_widest_level_gives_the_farey_neighbours(self):
        # far past any scan: cap 2**4096 and 2001-digit witness entries
        cap = 2**4096
        a, y_last = 10**2000 + 7, 3 * 10**2000 + 1
        w, tail = witness(a, y_last), PartialSolution(2, (1,))
        up = tightest_upper(1, w, tail, cap, budget=1).value
        lo = tightest_lower(1, w, tail, cap, budget=1).value
        assert lo < Fraction(a, y_last) < up
        assert up.numerator * lo.denominator - lo.numerator * up.denominator == 1
        assert max(up.denominator, lo.denominator) <= cap
        assert up.denominator + lo.denominator > cap


class TestStep:
    def test_level3(self):
        rec = step(3, 1, W4, PartialSolution(4, (1,)))
        assert rec.chosen == Fraction(1, 4)
        assert rec.scale == 4
        assert rec.partial_after.x == (1, 4)

    def test_level2(self):
        rec = step(2, 1, W4, PartialSolution(3, (1, 4)))
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
        bounds = list(module._bounds(3, W4, tail, 8, module.DEFAULT_COMPRESS_BUDGET))
        bounds[side] = BoundResult(value=bounds[side].value, achieving=Constraint(3, coeffs))
        monkeypatch.setattr(module, "_bounds", lambda *args: tuple(bounds))
        with pytest.raises(InternalInconsistencyError, match="not admissible"):
            step(3, 1, W4, tail)

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
                assert level_membership(rec.partial_after, w, d).ok

    def test_budget_error_propagates(self):
        # level 4: cap 32768, one tail prefix coordinate
        with pytest.raises(BudgetExceededError) as info:
            compress(ProblemInput(6, 2, (1, 2, 3, 4, 5, 6)), budget=1000)
        assert info.value.required == 65537

    def test_astronomical_budget_requirement_reported_as_unknown(self):
        with pytest.raises(BudgetExceededError) as info:
            compress(ProblemInput(20, 2, tuple(range(1, 21))), budget=10**9)
        assert info.value.required is None

    def test_over_budget_level_rejected_before_any_level_runs(self, monkeypatch):
        # level 5 (one prefix) fits, level 4 (2*839808+1 prefixes) does not
        def no_step(*args, **kwargs):
            raise AssertionError("a level ran before the budget check")

        module = importlib.import_module("conecompress.compress")
        monkeypatch.setattr(module, "step", no_step)
        with pytest.raises(BudgetExceededError) as info:
            compress(ProblemInput(6, 3, (3, 5, 7, 11, 13, 17)), budget=10**6)
        assert info.value.required == 1679617 == 2 * coefficient_cap(3, 4) + 1

    def test_step_rejects_huge_level_without_materializing(self):
        w = validate(ProblemInput(101, 1, tuple(range(1, 102))))
        with pytest.raises(BudgetExceededError) as info:
            step(100, 1, w, PartialSolution(101, (1,)))
        assert info.value.required is None


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
