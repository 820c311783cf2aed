import tracemalloc
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conecompress import (
    ProblemInput,
    bound_check,
    bound_value,
    coefficient_cap,
    cone_membership,
    generate,
    matrix_check,
    validate,
)
from conecompress.compress import PartialSolution
from conecompress.model import Constraint
from conecompress.errors import BudgetExceededError, ValidationError

from oracle import dot, naive_membership

Y4 = (2, 3, 7, 29)


class TestConeMembership:
    def test_worked_example_solution(self):
        assert cone_membership((1, 1, 2, 8), Y4, 1).ok

    def test_reflexive(self):
        rng = Random(3)
        for _ in range(10):
            n = rng.randint(1, 4)
            y = tuple(rng.randint(0, 9) for _ in range(n))
            if all(v == 0 for v in y):
                y = (1,) + y[1:]
            assert cone_membership(y, y, rng.randint(1, 2)).ok

    def test_violation_certificate(self):
        verdict = cone_membership((2, 1, 2, 8), Y4, 1)
        assert not verdict.ok
        assert verdict.certificate.coeffs == (1, -1, 0, 0)
        # certificate re-validates with two dot products
        assert dot(verdict.certificate.coeffs, Y4) <= 0
        assert dot(verdict.certificate.coeffs, (2, 1, 2, 8)) > 0

    def test_certificate_is_lexicographic_first(self):
        rng = Random(21)
        for _ in range(30):
            n = rng.randint(2, 4)
            y = tuple(rng.randint(0, 9) for _ in range(n))
            if all(v == 0 for v in y):
                y = y[:-1] + (4,)
            x = tuple(rng.randint(0, 9) for _ in range(n))
            verdict = cone_membership(x, y, 1)
            want = naive_membership(x, y, 1)
            if want is None:
                assert verdict.ok
            else:
                assert verdict.certificate.coeffs == want

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="vector has 2 entries"):
            cone_membership((1, 2), Y4, 1)

    def test_budget_gate(self):
        with pytest.raises(BudgetExceededError) as info:
            cone_membership((1,) * 10, (1,) * 10, 2, budget=10**4)
        assert info.value.required == 5**10


class TestLevelMembership:
    """A partial solution of level j is checked in that level's cone:
    cone_membership on the witness tail from j at the level's cap."""

    def test_partials_from_worked_example(self):
        w = validate(ProblemInput(4, 1, Y4))
        assert cone_membership((1, 4), w.y[2:], coefficient_cap(1, 3)).ok
        assert cone_membership((1, 2, 8), w.y[1:], coefficient_cap(1, 2)).ok

    def test_violation(self):
        w = validate(ProblemInput(4, 1, Y4))
        verdict = cone_membership((1, 3), w.y[2:], coefficient_cap(1, 3))
        assert not verdict.ok
        assert verdict.certificate.coeffs == (4, -1)

    def test_level_one_agrees_with_full_membership(self):
        # level 1's cap is d, so its cone is the full cone
        rng = Random(9)
        for _ in range(20):
            n = rng.randint(2, 4)
            y = tuple(sorted(rng.randint(0, 9) for _ in range(n)))
            if y[-1] == 0:
                y = y[:-1] + (2,)
            w = validate(ProblemInput(n, 1, y))
            x = tuple(sorted(rng.randint(0, 6) for _ in range(n)))
            if x[-1] == 0:
                x = x[:-1] + (1,)
            verdict = cone_membership(x, w.y, coefficient_cap(1, 1))
            assert verdict.ok == (naive_membership(x, w.y, 1) is None)

    def test_certificate_is_lexicographic_first_at_upper_levels(self):
        # d=1 gives cap 2 at level 2 and cap 8 at level 3.
        rng = Random(31)
        seen = {2: set(), 8: set()}
        for _ in range(60):
            n = rng.randint(3, 4)
            level = rng.randint(2, n - 1)
            y = tuple(sorted(rng.randint(0, 30) for _ in range(n)))
            if y[-1] == 0:
                y = y[:-1] + (5,)
            w = validate(ProblemInput(n, 1, y))
            x = tuple(sorted(rng.randint(0, 12) for _ in range(n - level + 1)))
            if x[-1] == 0:
                x = x[:-1] + (1,)
            if rng.random() < 0.3:  # the witness tail is always a member
                x = w.y[level - 1 :]
            cap = coefficient_cap(1, level)
            verdict = cone_membership(x, w.y[level - 1 :], cap)
            want = naive_membership(x, w.y[level - 1 :], cap)
            seen[cap].add(verdict.ok)
            if want is None:
                assert verdict.ok
            else:
                assert verdict.certificate.coeffs == want
        assert seen == {2: {True, False}, 8: {True, False}}


@st.composite
def witnesses(draw, n):
    """n entries: small ones with zeros and repeats, or 1000-digit ones."""
    huge = st.integers(0, 10**1000)
    pool = draw(st.lists(huge, min_size=1, max_size=2))
    entries = draw(
        st.sampled_from(
            [st.integers(0, 3), huge, st.sampled_from([0, *pool]), st.sampled_from(pool)]
        )
    )
    return tuple(draw(st.lists(entries, min_size=n, max_size=n)))


@st.composite
def candidates(draw, y):
    """x near a multiple of y, which makes c.y = 0 and c.x = 0 ties common,
    or x with entries of either sign."""
    if draw(st.booleans()):
        k = draw(st.integers(-2, 3))
        return tuple(k * v + draw(st.sampled_from((-1, 0, 0, 1))) for v in y)
    entries = draw(st.sampled_from([st.integers(-3, 3), st.integers(-(10**1000), 10**1000)]))
    return tuple(draw(st.lists(entries, min_size=len(y), max_size=len(y))))


@st.composite
def membership_cases(draw):
    """(x, y, d) for n = 1..7 and d = 1..3, at most 20000 coefficient vectors
    so that the oracle's full scan stays quick."""
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, max(d for d in (1, 2, 3) if (2 * d + 1) ** n <= 20000)))
    y = draw(witnesses(n))
    return draw(candidates(y)), y, d


@st.composite
def level_membership_cases(draw):
    """(partial, witness) at level 2 (cap 2 at d = 1) or level 3 (cap 8)."""
    level = draw(st.sampled_from((2, 3)))
    width = draw(st.integers(2, 5 if level == 2 else 3))
    n = level + width - 1
    y = draw(witnesses(n).filter(any))
    witness = validate(ProblemInput(n, 1, y))
    x = sorted(max(v, 0) for v in draw(candidates(witness.y[level - 1 :])))
    x[-1] = max(x[-1], 1)
    return PartialSolution(level, tuple(x)), witness


class TestAgainstTheFullScan:
    """The split search returns the full scan's verdict and certificate."""

    @settings(max_examples=300, deadline=None)
    @given(membership_cases())
    def test_cone_membership(self, case):
        x, y, d = case
        verdict = cone_membership(x, y, d)
        want = naive_membership(x, y, d)
        assert verdict.ok == (want is None)
        if want is not None:
            assert verdict.certificate == Constraint(1, want)

    @settings(max_examples=150, deadline=None)
    @given(level_membership_cases())
    def test_level_membership(self, case):
        p, witness = case
        cap = coefficient_cap(1, p.level)
        verdict = cone_membership(p.x, witness.y[p.level - 1 :], cap)
        want = naive_membership(p.x, witness.y[p.level - 1 :], cap)
        assert verdict.ok == (want is None)
        if want is not None:
            assert verdict.certificate.coeffs == want

    def test_only_the_smaller_half_is_stored(self):
        # At n = 3, d = 100 the full scan held one 201-entry box. The split
        # stores the 201 one-coordinate tails; storing the two-coordinate
        # half would take 201**2 = 40401 entries, hundreds of times more.
        y = (3, 7, 11)
        tracemalloc.start()
        try:
            box = tuple(range(-100, 101))
            box_peak = tracemalloc.get_traced_memory()[1]
            del box
            tracemalloc.reset_peak()
            assert cone_membership(y, y, 100).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * box_peak


class TestMatrixCheck:
    def test_admissible_rows_accept_solution(self):
        rows = ((1, -1, 0, 0), (0, 1, -1, 0), (1, 1, 1, -1))
        assert all(dot(r, Y4) <= 0 for r in rows)
        assert matrix_check(rows, (1, 1, 2, 8), 1).ok

    def test_zero_matrix(self):
        assert matrix_check(((0, 0), (0, 0)), (5, 7), 1).ok

    def test_violating_row_is_certificate(self):
        verdict = matrix_check(((1, 0, 0, 0),), (1, 1, 2, 8), 1)
        assert not verdict.ok
        assert verdict.certificate.coeffs == (1, 0, 0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="row 0 has 2 entries"):
            matrix_check(((1, 0),), (1, 1, 2), 1)

    def test_entry_out_of_range(self):
        with pytest.raises(ValidationError, match=r"row 0 entry 0 is outside \[-d, d\]"):
            matrix_check(((2, 0),), (1, 1), 1)


class TestBoundCheck:
    def test_examples(self):
        assert bound_check((1, 1, 2, 8), 4, 1).ok
        assert bound_check((16,), 4, 1).ok  # the bound is inclusive
        assert not bound_check((17, 1, 1, 1), 4, 1).ok

    def test_bit_length_shortcut_agrees_with_the_bound(self):
        for n in range(1, 8):
            for d in range(1, 9):
                b = int(bound_value(n, d))  # an integer for every n, d
                near = range(b - 3, b + 4)
                far = (0, 1, b // 2, b * 2, b * 2**40, b // 2**40 or 1)
                for m in (*near, *far):
                    assert bound_check((m,), n, d).ok == (m <= b), (n, d, m)

    def test_large_cases_never_build_the_bound(self, monkeypatch):
        def unbuildable(n, d):
            raise AssertionError("bound_value called")

        monkeypatch.setattr("conecompress.verify.bound_value", unbuildable)
        # the bound at (40, 3) has about 2**39 * log2(6) bits
        assert bound_check((1,) * 40, 40, 3).ok
        assert bound_check((0, 10**5000), 40, 3).ok
        # at (4, 1) the bound is 16
        assert not bound_check((1, 10**5000), 4, 1).ok
        assert not bound_check((2**64,), 5, 1).ok


def test_membership_implies_any_admissible_matrix_passes():
    # Every admissible row is itself one of the scanned constraints, so
    # full membership is sound for whatever matrix the instance hides.
    for seed in range(15):
        inst = generate(n=3, d=2, m=4, seed=seed, max_entry=9)
        y = inst.public.y
        for x in product(range(3), repeat=3):
            if cone_membership(x, y, 2).ok:
                assert matrix_check(inst.hidden_matrix, x, 2).ok


def test_certificates_revalidate_on_random_vectors():
    rng = Random(123)
    for _ in range(40):
        n = rng.randint(2, 4)
        d = rng.randint(1, 2)
        y = tuple(rng.randint(0, 9) for _ in range(n))
        if all(v == 0 for v in y):
            y = (2,) + y[1:]
        x = tuple(rng.randint(0, 9) for _ in range(n))
        verdict = cone_membership(x, y, d)
        if verdict.ok:
            continue
        c = verdict.certificate.coeffs
        assert all(abs(v) <= d for v in c)
        assert dot(c, y) <= 0
        assert dot(c, x) > 0
