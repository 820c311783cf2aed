import sys
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, strategies as st

from conecompress import (
    HiddenInstance,
    PartialSolution,
    ProblemInput,
    SortedWitness,
    bound_value,
    coefficient_cap,
    compress,
    cone_membership,
    matrix_check,
    unsort,
    validate,
)
from conecompress.compress import _bounds
from conecompress.errors import BudgetExceededError, ValidationError
from conecompress.model import check_budget, scan_size, unlimited_int_digits


class TestValidate:
    def test_already_sorted(self):
        w = validate(ProblemInput(4, 1, (2, 3, 7, 29)))
        assert w.y == (2, 3, 7, 29)
        assert w.perm == (0, 1, 2, 3)

    def test_stable_sort(self):
        w = validate(ProblemInput(3, 1, (7, 2, 2)))
        assert w.y == (2, 2, 7)
        assert w.perm == (1, 2, 0)

    def test_zero_witness_rejected(self):
        with pytest.raises(ValidationError, match="witness must be non-zero"):
            validate(ProblemInput(2, 1, (0, 0)))

    def test_nonpositive_dimension(self):
        with pytest.raises(ValidationError, match="dimension n must be >= 1"):
            validate(ProblemInput(0, 1, ()))

    def test_nonpositive_cap(self):
        with pytest.raises(ValidationError, match="coefficient cap d must be >= 1"):
            validate(ProblemInput(2, 0, (1, 2)))

    def test_negative_entry(self):
        with pytest.raises(ValidationError, match=r"witness entry y\(2\) is negative"):
            validate(ProblemInput(2, 1, (1, -1)))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="witness length 2 does not equal"):
            validate(ProblemInput(3, 1, (1, 2)))

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=8))
    def test_sort_round_trip(self, y):
        if all(v == 0 for v in y):
            y[0] = 1
        w = validate(ProblemInput(len(y), 1, tuple(y)))
        assert list(w.y) == sorted(y)
        assert unsort(w.y, w.perm) == tuple(y)


class TestCoefficientCap:
    def test_small_values(self):
        assert [coefficient_cap(1, j) for j in (1, 2, 3)] == [1, 2, 8]
        assert coefficient_cap(1, 4) == 128
        assert coefficient_cap(3, 2) == 18

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_recurrence_matches_closed_form(self, d):
        prev = coefficient_cap(d, 1)
        assert prev == d
        for j in range(2, 9):
            cur = coefficient_cap(d, j)
            assert cur == 2 * prev * prev
            prev = cur

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError, match="coefficient cap d must be >= 1"):
            coefficient_cap(0, 1)
        with pytest.raises(ValueError):
            coefficient_cap(1, 0)


class TestScanSize:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_exact_against_direct_computation(self, d, level, width):
        direct = (2 * coefficient_cap(d, level) + 1) ** width
        assert scan_size(d, level, width) == direct

    def test_known_cap(self):
        # coefficient_cap(c, 1) == c, so level 1 sizes a scan at cap c
        assert scan_size(8, 1, 2) == 17**2
        assert scan_size(2**31, 1, 1) == 2**32 + 1

    def test_threshold_is_exact(self):
        # d = 1: 2*cap+1 = 2**(2**(level-1)) + 1, just past 2**16384 at level 15
        assert scan_size(1, 14, 1) == 2**8192 + 1
        assert scan_size(1, 14, 2) is None
        assert scan_size(1, 15, 1) is None
        assert scan_size(2**16383 - 1, 1, 1) == 2**16384 - 1
        assert scan_size(2**16383, 1, 1) is None

    def test_huge_sizes_do_not_materialize(self):
        assert scan_size(1, 100, 1) is None
        assert scan_size(10**9, 64, 1) is None
        assert scan_size(1, 2**64, 3) is None
        assert scan_size(10**20000, 1, 1) is None

    def test_rejects_bad_arguments(self):
        for args in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(ValueError):
                scan_size(*args)


class TestCheckBudget:
    def test_within_budget(self):
        check_budget(81, 81, "scan")

    def test_over_budget_carries_required(self):
        with pytest.raises(BudgetExceededError) as info:
            check_budget(81, 80, "scan")
        assert info.value.required == 81
        assert "81 items" in str(info.value)

    def test_uncountable_is_over_any_budget(self):
        with pytest.raises(BudgetExceededError) as info:
            check_budget(None, 10**100, "scan")
        assert info.value.required is None

    def test_message_states_counts_past_the_decimal_digit_limit(self):
        items = 10**5000
        with pytest.raises(BudgetExceededError) as info:
            check_budget(items, 1, "scan")
        assert info.value.required == items
        with unlimited_int_digits():
            assert str(items) in str(info.value)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no digit limit"
)
class TestUnlimitedIntDigits:
    @pytest.fixture(autouse=True)
    def default_limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(before)

    def test_block_lifts_and_restores(self):
        with unlimited_int_digits():
            assert sys.get_int_max_str_digits() == 0
            with unlimited_int_digits():
                assert sys.get_int_max_str_digits() == 0
            assert sys.get_int_max_str_digits() == 0  # the inner block changed nothing
        assert sys.get_int_max_str_digits() == 4300

    def test_restores_on_an_exception(self):
        with pytest.raises(KeyError):
            with unlimited_int_digits():
                raise KeyError
        assert sys.get_int_max_str_digits() == 4300

    def test_decorator_lifts_for_each_call(self):
        @unlimited_int_digits()
        def digits(v):
            return len(str(v)), sys.get_int_max_str_digits()

        assert digits(10**5000) == (5001, 0)
        assert sys.get_int_max_str_digits() == 4300
        with unlimited_int_digits():
            assert digits(1) == (1, 0)
            assert sys.get_int_max_str_digits() == 0
        assert sys.get_int_max_str_digits() == 4300


HUGE = 10**5000  # past Python's default 4300-digit limit on int -> str


class TestMessagesPastTheDecimalDigitLimit:
    """Each error names the failed check, however long the offending number."""

    @pytest.mark.parametrize(
        "call, words",
        [
            (lambda: compress(ProblemInput(2, 1, (1, -HUGE))), r"y\(2\) is negative"),
            (lambda: matrix_check([[HUGE, 0]], (1, 1), 1), "row 0 entry 0 is outside"),
            (lambda: validate(ProblemInput(-HUGE, 1, ())), "dimension n"),
            (lambda: validate(ProblemInput(HUGE, 1, (1,))), "witness length 1"),
            (lambda: validate(ProblemInput(1, -HUGE, (1,))), "coefficient cap d"),
            (lambda: coefficient_cap(-HUGE, 1), "coefficient cap d"),
            (lambda: bound_value(-HUGE, 1), "dimension n"),
            (lambda: bound_value(1, -HUGE), "coefficient cap d"),
            (
                lambda: HiddenInstance(ProblemInput(1, 1, (1,)), ((0,),), (1,), 0, -HUGE),
                "scale must be",
            ),
            (
                lambda: HiddenInstance(
                    ProblemInput(1, HUGE, (1,)), ((-HUGE - 1,),), (1,), 0, 1
                ),
                r"row 0 has an entry outside \[-d, d\]",
            ),
        ],
        ids=[
            "compress-negative-entry",
            "matrix-entry",
            "validate-n",
            "validate-length",
            "validate-d",
            "cap-d",
            "bound-n",
            "bound-d",
            "hidden-scale",
            "hidden-entry",
        ],
    )
    def test_validation_error_names_the_check(self, call, words):
        with pytest.raises(ValidationError, match=words):
            call()

    def test_level_error_names_the_level(self):
        with pytest.raises(ValueError, match="level must be >= 1"):
            coefficient_cap(1, -HUGE)

    @pytest.mark.parametrize(
        "call, words",
        [
            (lambda: scan_size(-HUGE, 1, 1), "requires d, level and width >= 1"),
            (lambda: PartialSolution(-HUGE, (1,)), "level must be >= 1"),
            (lambda: PartialSolution(1, (-HUGE, 1)), "x has a negative entry"),
            (lambda: PartialSolution(1, (HUGE, 1)), "x must be non-decreasing"),
            (
                lambda: _bounds(HUGE, SortedWitness((1, 2), (0, 1)), PartialSolution(2, (1,)), 1),
                "tail must start at level",
            ),
        ],
        ids=["scan-size", "partial-level", "partial-negative", "partial-order", "bounds-level"],
    )
    def test_value_error_names_the_field(self, call, words):
        with pytest.raises(ValueError, match=words):
            call()


class TestBoundValue:
    def test_examples(self):
        assert bound_value(4, 1) == 16
        assert bound_value(1, 7) == 1
        assert bound_value(3, 2) == 16

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_product_of_caps(self, n, d):
        prod = Fraction(1)
        for j in range(1, n):
            prod *= coefficient_cap(d, j)
        assert bound_value(n, d) == prod

    def test_always_integral(self):
        for n in range(1, 7):
            for d in (1, 2, 3):
                assert bound_value(n, d).denominator == 1


class TestUnsort:
    def test_identity(self):
        assert unsort((1, 1, 2, 8), (0, 1, 2, 3)) == (1, 1, 2, 8)

    def test_inverse_placement(self):
        assert unsort((1, 2, 3), (1, 2, 0)) == (3, 1, 2)

    def test_single(self):
        assert unsort((5,), (0,)) == (5,)

    def test_malformed(self):
        with pytest.raises(ValidationError, match="not a permutation"):
            unsort((1, 2), (0, 0))
        with pytest.raises(ValidationError, match="not a permutation"):
            unsort((1, 2), (0,))


def test_membership_invariant_under_permutation():
    # The constraint set only reorders when coordinates reorder, so a
    # vector passes in sorted order iff its unsorted placement passes in
    # the original order. Brute force at n <= 4, d = 1.
    rng = Random(99)
    for _ in range(25):
        n = rng.randint(2, 4)
        y = tuple(rng.choice([0, 1, 2, 2, 5, 9]) for _ in range(n))
        if all(v == 0 for v in y):
            y = y[:-1] + (3,)
        w = validate(ProblemInput(n, 1, y))
        for x_sorted in product(range(4), repeat=n):
            ok_sorted = cone_membership(x_sorted, w.y, 1).ok
            ok_original = cone_membership(unsort(x_sorted, w.perm), y, 1).ok
            assert ok_sorted == ok_original
