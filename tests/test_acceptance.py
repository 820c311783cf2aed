"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
import json
import time
from fractions import Fraction
from random import Random

from conecompress import (
    ProblemInput,
    bound_check,
    bound_value,
    coefficient_cap,
    compress,
    cone_membership,
    generate,
    matrix_check,
    tightest_lower,
    tightest_upper,
    validate,
)
from conecompress import io
from conecompress.cli import main
from conecompress.compress import PartialSolution
from conecompress.model import SortedWitness

from oracle import naive_tightest

# Suite 3 grid: 200 seeded hidden instances over n in [2,5], d in [1,2],
# scale in {1, 10**6}. Suite 4 grid: 50 instances with n <= 4, d = 1.
SUITE3 = [
    (2 + i % 4, 1 + (i // 4) % 2, (1, 10**6)[(i // 8) % 2], i) for i in range(200)
]
SUITE4 = [(2 + i % 3, 1, 1, 1000 + i) for i in range(50)]

_instances = {}
_outputs = {}


def instance_for(n, d, scale, seed):
    key = (n, d, scale, seed)
    if key not in _instances:
        _instances[key] = generate(n=n, d=d, m=n, seed=seed, scale=scale)
    return _instances[key]


def output_for(n, d, scale, seed):
    key = (n, d, scale, seed)
    if key not in _outputs:
        _outputs[key] = compress(instance_for(*key).public)
    return _outputs[key]


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL: {title}", flush=True)
                raise
            print(f"criterion {number} PASS: {title}", flush=True)

        return wrapper

    return decorate


@criterion(1, "worked-example golden reproduction, exact, < 1 s")
def test_criterion_1_golden_reproduction():
    start = time.perf_counter()
    out = compress(ProblemInput(4, 1, (2, 3, 7, 29)))
    elapsed = time.perf_counter() - start
    assert out.x == (1, 1, 2, 8)
    by_level = {rec.level: rec for rec in out.trace}
    assert list(by_level) == [3, 2, 1]
    assert by_level[3].chosen == Fraction(1, 4)
    assert by_level[3].scale == 4
    assert by_level[3].partial_after.x == (1, 4)
    assert by_level[2].chosen == Fraction(1, 2)
    assert by_level[2].scale == 2
    assert by_level[2].partial_after.x == (1, 2, 8)
    assert by_level[1].chosen == 1
    assert by_level[1].partial_after.x == (1, 1, 2, 8)
    assert elapsed < 1.0


@criterion(2, "bound formula and cap sequence, exact")
def test_criterion_2_bound_formula():
    assert bound_value(4, 1) == 16
    assert tuple(coefficient_cap(1, j) for j in (1, 2, 3)) == (1, 2, 8)
    for d in (1, 2, 3):
        recur = d
        for j in range(1, 9):
            closed = Fraction((2 * d) ** (2 ** (j - 1)), 2)
            assert closed.denominator == 1
            assert coefficient_cap(d, j) == recur == closed
            recur = 2 * recur * recur


@criterion(3, "200 hidden instances: well-formed, matrix, bound, membership ok, < 120 s")
def test_criterion_3_hidden_instance_suite():
    start = time.perf_counter()
    for n, d, scale, seed in SUITE3:
        inst = instance_for(n, d, scale, seed)
        x = output_for(n, d, scale, seed).x
        assert len(x) == n and any(x) and all(isinstance(v, int) and v >= 0 for v in x)
        assert matrix_check(inst.hidden_matrix, x, d).ok
        assert bound_check(x, n, d).ok
        assert cone_membership(x, inst.public.y, d).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0


@criterion(4, "inductive invariant: every intermediate partial is a member, < 30 s")
def test_criterion_4_inductive_invariant():
    start = time.perf_counter()
    checked = 0
    for n, d, scale, seed in SUITE4:
        inst = instance_for(n, d, scale, seed)
        out = output_for(n, d, scale, seed)
        w = validate(inst.public)
        for rec in out.trace:
            tail = w.y[rec.level - 1 :]
            assert cone_membership(rec.partial_after.x, tail, rec.cap).ok
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 0
    assert elapsed < 30.0


@criterion(5, "closed-form bounds equal the naive full scan on 100 configurations")
def test_criterion_5_oracle_equivalence():
    rng = Random(505)
    for _ in range(100):
        n = rng.randint(2, 4)
        d = rng.randint(1, 2)
        y = sorted(rng.randint(0, 12) for _ in range(n))
        if y[-1] == 0:
            y[-1] = 1
        w = SortedWitness(y=tuple(y), perm=tuple(range(n)))
        level = rng.randint(1, n - 1)
        tail = sorted(rng.randint(0, 9) for _ in range(n - level))
        if tail[-1] == 0:
            tail[-1] = 1
        p = PartialSolution(level + 1, tuple(tail))
        cap = coefficient_cap(d, level)
        for upper in (True, False):
            fn = tightest_upper if upper else tightest_lower
            got = fn(level, w, p, cap)
            want_value, want_coeffs = naive_tightest(level, w.y, p.x, cap, upper)
            assert got.value == want_value
            assert got.achieving.coeffs == want_coeffs


@criterion(6, "step consistency and combined-constraint bounds on suites 3-4")
def test_criterion_6_step_consistency():
    steps = 0
    for n, d, scale, seed in SUITE3 + SUITE4:
        out = output_for(n, d, scale, seed)
        prev = (1,)
        for rec in out.trace:
            assert rec.lower.value <= rec.upper.value
            cu = rec.upper.achieving.coeffs
            cl = rec.lower.achieving.coeffs
            head_u, tail_u = cu[0], cu[1:]
            head_l, tail_l = cl[0], cl[1:]
            combined = [li * head_u - ui * head_l for ui, li in zip(tail_u, tail_l)]
            assert all(abs(v) <= 2 * rec.cap**2 for v in combined)
            assert sum(c * xv for c, xv in zip(combined, prev)) <= 0
            prev = rec.partial_after.x
            steps += 1
    assert steps > 0


@criterion(7, "determinism and witness-scaling invariance, exact")
def test_criterion_7_determinism_and_scaling():
    for n, d, scale, seed in SUITE3[:20]:
        public = instance_for(n, d, scale, seed).public
        first = compress(public)
        second = compress(public)
        assert first == second
        assert io.dumps(io.encode_result(first)) == io.dumps(io.encode_result(second))
        for k in (2, 10**6):
            scaled = ProblemInput(n, d, tuple(k * v for v in public.y))
            assert compress(scaled) == first


@criterion(8, "CLI contract: 1000-case round-trip fuzz, exit codes, trace replay")
def test_criterion_8_cli_contract(tmp_path, capsys):
    # round-trip fuzz: emitted files parse back to the same document
    rng = Random(808)
    for case in range(1000):
        n = rng.randint(1, 6)
        if case % 2:
            obj = generate(
                n=n,
                d=rng.randint(1, 3),
                m=rng.randint(1, 4),
                seed=rng.randrange(2**64),
                scale=rng.choice([1, 7, 10**6]),
                max_entry=rng.randint(1, 10**4),
            )
        else:
            y = tuple(rng.randrange(10**30) for _ in range(n))
            if all(v == 0 for v in y):
                y = (1,) + y[1:]
            obj = ProblemInput(n=n, d=rng.randint(1, 10**6), y=y)
        doc = io.encode_instance(obj)
        assert io.encode_instance(io.decode_instance(doc)) == doc
        assert json.loads(io.dumps(doc)) == doc

    # trace replay reconstructs x exactly, including for unsorted witnesses
    for y in ((2, 3, 7, 29), (29, 7, 3, 2), (5, 0, 5, 1)):
        result = compress(ProblemInput(4, 1, y))
        decoded = io.decode_result(io.encode_result(result))
        assert io.replay(decoded) == result.x

    # documented exit codes, one invocation each
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.err

    inst = tmp_path / "inst.json"
    io.write_json(inst, {"n": 4, "d": 1, "y": ["2", "3", "7", "29"]})
    result_path = tmp_path / "result.json"
    assert run("compress", str(inst), str(result_path))[0] == 0

    bad_x = tmp_path / "bad_x.json"
    io.write_json(bad_x, {"x": ["2", "1", "2", "8"]})
    assert run("verify", str(inst), str(bad_x), "--mode", "lambda")[0] == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert run("compress", str(broken), str(result_path))[0] == 2

    zero = tmp_path / "zero.json"
    io.write_json(zero, {"n": 2, "d": 1, "y": ["0", "0"]})
    assert run("compress", str(zero), str(result_path))[0] == 3

    big = tmp_path / "big.json"
    io.write_json(big, {"n": 6, "d": 2, "y": [str(v) for v in range(1, 7)]})
    code, err = run("compress", str(big), str(result_path), "--budget", "1000")
    assert code == 4
    assert json.loads(err)["error"]["required"] == "32768"

    assert run("verify", str(inst), str(bad_x), "--mode", "matrix")[0] == 5

    import conecompress.cli as cli_module

    original = cli_module.generate
    try:
        def explode(**kwargs):
            from conecompress.errors import RejectionCapError

            raise RejectionCapError("forced for the exit-code contract")

        cli_module.generate = explode
        assert run("generate", "--n", "2", "--d", "1", "--m", "1", "--seed", "0")[0] == 6
    finally:
        cli_module.generate = original


@criterion(9, "new frontier: (7,1) and (6,2) certified; (8,1) and (7,2) exit 4")
def test_criterion_9_new_frontier(tmp_path, capsys):
    # a partial's membership at (7,1) level 5 would need 65537**3 vectors, so the
    # outputs are certified by the full cone, the hidden matrix and the bound
    for n, d, vectors in ((7, 1, 2187), (6, 2, 15625)):
        inst = generate(n, d, 2 * n, 0)
        x = compress(inst.public).x
        assert (2 * d + 1) ** n == vectors
        assert cone_membership(x, inst.public.y, d).ok
        assert matrix_check(inst.hidden_matrix, x, d).ok
        assert bound_check(x, n, d).ok
    for n, d in ((8, 1), (7, 2)):
        path = tmp_path / f"n{n}d{d}.json"
        io.write_json(path, {"n": n, "d": d, "y": [str(v) for v in range(1, n + 1)]})
        code = main(["compress", str(path), str(tmp_path / "r.json")])
        error = json.loads(capsys.readouterr().err)["error"]
        # level n-2 runs one search per head: cap = 2**31
        assert (code, error["required"]) == (4, "2147483648")
