import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import conecompress
from conecompress import ProblemInput, compress, generate
from conecompress import cli, io
from conecompress.cli import main
from conecompress.compress import BoundResult, CompressOutput, StepRecord
from conecompress.model import Constraint, PartialSolution
from conecompress.errors import (
    BudgetExceededError,
    ConeCompressError,
    FormatError,
    InternalInconsistencyError,
    MissingHiddenSectionError,
    RejectionCapError,
    ValidationError,
)


@pytest.fixture
def worked_instance(tmp_path):
    path = tmp_path / "instance.json"
    io.write_json(path, {"n": 4, "d": 1, "y": ["2", "3", "7", "29"]})
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """Run ``python -m conecompress`` on the package these tests import."""
    source = str(Path(conecompress.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "conecompress", *map(str, argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestCompressCommand:
    def test_worked_example(self, worked_instance, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "compress", worked_instance, out_path)
        assert code == 0
        summary = json.loads(out)
        assert summary["x"] == ["1", "1", "2", "8"]
        assert summary["max_x"] == "8"
        assert summary["bound"] == {"num": "16", "den": "1"}
        doc = io.read_json(out_path)
        result = io.decode_result(doc)
        assert result.x == (1, 1, 2, 8)
        assert io.replay(result) == (1, 1, 2, 8)

    def test_dimension_one(self, tmp_path, capsys):
        inst = tmp_path / "one.json"
        io.write_json(inst, {"n": 1, "d": 3, "y": ["40"]})
        out_path = tmp_path / "r.json"
        code, out, _ = run_cli(capsys, "compress", inst, out_path)
        assert code == 0
        assert json.loads(out)["x"] == ["1"]
        assert io.read_json(out_path)["steps"] == []

    def test_budget_exit(self, tmp_path, capsys):
        inst = tmp_path / "big.json"
        io.write_json(inst, {"n": 6, "d": 2, "y": [str(v) for v in range(1, 7)]})
        code, _, err = run_cli(
            capsys, "compress", inst, tmp_path / "r.json", "--budget", "1000"
        )
        assert code == 4
        error = json.loads(err)["error"]
        assert error["code"] == "budget"
        assert error["required"] == "32768"  # level 4: one search per head, cap 32768


class TestVerifyCommand:
    def test_budget_exit(self, worked_instance, tmp_path, capsys):
        xfile = tmp_path / "x.json"
        io.write_json(xfile, {"x": ["1", "1", "2", "8"]})
        code, out, err = run_cli(capsys, "verify", worked_instance, xfile, "--budget", "80")
        assert (code, out) == (4, "")
        error = json.loads(err)["error"]
        assert error["code"] == "budget"
        assert error["required"] == "81"  # 3**4 coefficient vectors

    def test_all_modes_pass(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        inst = generate(n=4, d=1, m=3, seed=11, max_entry=20)
        io.write_json(inst_path, io.encode_instance(inst))
        result_path = tmp_path / "result.json"
        assert run_cli(capsys, "compress", inst_path, result_path)[0] == 0
        for mode in ("lambda", "matrix", "bound", "all"):
            code, out, _ = run_cli(
                capsys, "verify", inst_path, result_path, "--mode", mode
            )
            assert code == 0, mode
            doc = json.loads(out)
            assert all(v["ok"] for v in doc["verdicts"].values())
        code, out, _ = run_cli(capsys, "verify", inst_path, result_path)
        assert set(json.loads(out)["verdicts"]) == {"lambda", "matrix", "bound"}

    def test_x_that_is_zero_or_the_wrong_length_is_invalid(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        io.write_json(inst_path, io.encode_instance(generate(n=4, d=1, m=3, seed=11)))
        zero, short = tmp_path / "zero.json", tmp_path / "short.json"
        io.write_json(zero, {"x": ["0", "0", "0", "0"]})
        io.write_json(short, {"x": ["1", "1", "2"]})
        cases = [(zero, mode, "zero vector") for mode in ("lambda", "matrix", "bound", "all")]
        for xfile, mode, words in cases + [(short, "bound", "x has 3 entries")]:
            code, out, err = run_cli(capsys, "verify", inst_path, xfile, "--mode", mode)
            assert (code, out) == (3, ""), mode
            error = json.loads(err)["error"]
            assert error["code"] == "validation"
            assert words in error["message"]

    def test_worked_example_with_admissible_matrix(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        io.write_json(
            inst_path,
            {
                "n": 4,
                "d": 1,
                "y": ["2", "3", "7", "29"],
                "hidden": {
                    "matrix": [
                        ["1", "-1", "0", "0"],
                        ["1", "1", "-1", "0"],
                        ["0", "1", "1", "-1"],
                    ],
                    "planted": ["2", "3", "7", "29"],
                    "seed": 0,
                    "scale": "1",
                },
            },
        )
        xfile = tmp_path / "x.json"
        io.write_json(xfile, {"x": ["1", "1", "2", "8"]})
        code, out, _ = run_cli(capsys, "verify", inst_path, xfile, "--mode", "all")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["verdicts"]) == {"lambda", "matrix", "bound"}
        assert all(v["ok"] for v in doc["verdicts"].values())

    def test_membership_failure_prints_certificate(self, worked_instance, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        io.write_json(bad, {"x": ["2", "1", "2", "8"]})
        code, out, err = run_cli(
            capsys, "verify", worked_instance, bad, "--mode", "lambda"
        )
        assert code == 1
        assert json.loads(out)["verdicts"]["lambda"]["certificate"] == ["1", "-1", "0", "0"]
        assert json.loads(err)["error"]["code"] == "verification"

    def test_bound_failure(self, worked_instance, tmp_path, capsys):
        bad = tmp_path / "big.json"
        io.write_json(bad, {"x": ["17", "17", "17", "17"]})
        code, _, _ = run_cli(capsys, "verify", worked_instance, bad, "--mode", "bound")
        assert code == 1

    def test_matrix_mode_needs_hidden_section(self, worked_instance, tmp_path, capsys):
        xfile = tmp_path / "x.json"
        io.write_json(xfile, {"x": ["1", "1", "2", "8"]})
        code, _, err = run_cli(
            capsys, "verify", worked_instance, xfile, "--mode", "matrix"
        )
        assert code == 5
        assert json.loads(err)["error"]["code"] == "missing-hidden"


class TestGenerateCommand:
    def test_writes_instance_with_hidden_section(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, _, _ = run_cli(
            capsys, "generate", "--n", 4, "--d", 1, "--m", 3, "--seed", 0, "--out", out
        )
        assert code == 0
        parsed = io.decode_instance(io.read_json(out))
        assert parsed.public.n == 4
        assert len(parsed.hidden_matrix) == 3

    def test_stdout_byte_identical_across_runs(self, capsys):
        args = ("generate", "--n", 4, "--d", 1, "--m", 3, "--seed", 0)
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_usage_error_for_zero_dimension(self, capsys):
        code, _, _ = run_cli(capsys, "generate", "--n", 0, "--d", 1, "--m", 1, "--seed", 0)
        assert code == 2

    def test_rejection_cap_exit(self, capsys, monkeypatch):
        def explode(**kwargs):
            raise RejectionCapError("row 0: no admissible row after 0 draws")

        monkeypatch.setattr("conecompress.cli.generate", explode)
        code, _, err = run_cli(capsys, "generate", "--n", 2, "--d", 1, "--m", 1, "--seed", 0)
        assert code == 6
        assert json.loads(err)["error"]["code"] == "rejection-cap"


class TestBoundCommand:
    @pytest.mark.parametrize(
        "n,d,expected", [(4, 1, "16"), (1, 9, "1"), (3, 2, "16"), (5, 1, "2048")]
    )
    def test_integral_values_print_as_integers(self, capsys, n, d, expected):
        code, out, _ = run_cli(capsys, "bound", "--n", n, "--d", d)
        assert code == 0
        assert out.strip() == expected

    @pytest.mark.parametrize(
        "n", [22, 1000000000, pytest.param("1" + "0" * 2999, id="3000-digits")]
    )
    def test_refuses_a_bound_too_long_to_print(self, capsys, n):
        # n = 22 would print for seconds; 2**(n-1) is never built for 10**9;
        # the message names the options, so a 3000-digit --n is not echoed
        code, out, err = run_cli(capsys, "bound", "--n", n, "--d", 1)
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert error["code"] == "validation"
        assert "--n and --d" in error["message"]
        assert "past 2**21 bits" in error["message"]
        assert len(err.encode()) < 1024


class TestTraceCommand:
    def test_narrative_contains_worked_example_milestones(self, worked_instance, capsys):
        code, out, _ = run_cli(capsys, "trace", worked_instance)
        assert code == 0
        for fragment in ("x(3)=1/4", "multiply by 4", "x(3)=1, x(4)=4", "Initialize x(4)=1"):
            assert fragment in out
        numbered = [l for l in out.splitlines() if l[:1].isdigit()]
        assert len(numbered) == 1 + 2 * 3

    def test_single_dimension_narrative(self, tmp_path, capsys):
        inst = tmp_path / "one.json"
        io.write_json(inst, {"n": 1, "d": 1, "y": ["9"]})
        code, out, _ = run_cli(capsys, "trace", inst)
        assert code == 0
        numbered = [l for l in out.splitlines() if l[:1].isdigit()]
        assert numbered == ["1. Initialize x(1)=1."]

    def test_two_coordinates(self, tmp_path, capsys):
        inst = tmp_path / "two.json"
        io.write_json(inst, {"n": 2, "d": 1, "y": ["2", "5"]})
        code, out, _ = run_cli(capsys, "trace", inst)
        assert code == 0
        assert "Set x(1)=1" in out


class TestExitCodesForBadInput:
    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "compress", path, tmp_path / "r.json")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "parse"

    def test_schema_error(self, tmp_path, capsys):
        path = tmp_path / "schema.json"
        io.write_json(path, {"n": 2, "d": 1, "y": [2, 5]})  # not decimal strings
        code, _, _ = run_cli(capsys, "compress", path, tmp_path / "r.json")
        assert code == 2

    @pytest.mark.parametrize("text", ["7\n", "7 ", " 7", "+7", "07", "-0x7", ""])
    def test_decimal_strings_match_in_full(self, text):
        with pytest.raises(FormatError):
            io.decode_instance({"n": 1, "d": 1, "y": [text]})

    def test_validation_error(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        io.write_json(path, {"n": 2, "d": 1, "y": ["0", "0"]})
        code, _, err = run_cli(capsys, "compress", path, tmp_path / "r.json")
        assert code == 3
        assert json.loads(err)["error"]["code"] == "validation"

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize(
        "argv, names",
        [
            ((), "command"),
            (("compress",), "instance, out"),
            (("generate", "--n", "x", "--d", 1, "--m", 1, "--seed", 0), "--n"),
            (("generate", "--n", 1, "--d", 1, "--m", 1, "--seed", -1), "--seed"),
            (("verify", "a", "b", "--mode", "nope"), "--mode"),
        ],
        ids=["no-command", "no-files", "n-not-an-integer", "negative-seed", "bad-mode"],
    )
    def test_usage_errors_are_one_json_error(self, capsys, argv, names):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["code"] == "usage"
        assert names in error["message"]

    def test_option_errors_name_the_option_not_the_value(self, capsys):
        huge = "-" + "9" * 6000
        code, _, err = run_cli(capsys, "compress", "a", "b", "--budget", huge)
        assert code == 2
        message = json.loads(err)["error"]["message"]
        assert "--budget" in message and "999" not in message

    def test_help_prints_on_stdout(self, capsys):
        code, out, err = run_cli(capsys, "compress", "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: conecompress compress")

    def test_instance_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 1, "d": 1, "y": ["\xe9"]}')
        code, _, err = run_cli(capsys, "compress", path, tmp_path / "r.json")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "parse"

    def test_json_nested_too_deeply(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, _, err = run_cli(capsys, "compress", path, tmp_path / "r.json")
        assert code == 2
        assert "nested too deeply" in json.loads(err)["error"]["message"]

    def test_output_in_a_missing_directory(self, worked_instance, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        code, stdout, err = run_cli(capsys, "compress", worked_instance, out)
        assert (code, stdout) == (2, "")
        assert "cannot write" in json.loads(err)["error"]["message"]


class TestErrorsDoNotEchoTheInput:
    """A format error names the field and its JSON type, never the value,
    so a huge number or string in a file still makes a short message."""

    HUGE = "9" * 6000

    @pytest.mark.parametrize(
        "entry",
        [HUGE, '"%s"' % ("x" * 200000), '"%sx"' % HUGE, "[%s]" % HUGE],
        ids=["native-number", "long-string", "long-non-decimal-string", "array"],
    )
    def test_instance_entry(self, tmp_path, capsys, entry):
        path = tmp_path / "instance.json"
        path.write_text('{"n": 1, "d": 1, "y": [%s]}' % entry)
        code, out, err = run_cli(capsys, "compress", path, tmp_path / "r.json")
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1000
        assert "instance.y[0]" in json.loads(err)["error"]["message"]

    def test_x_file_entry(self, worked_instance, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text('{"x": [%s, "1", "2", "8"]}' % self.HUGE)
        code, out, err = run_cli(capsys, "verify", worked_instance, path)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1000
        assert json.loads(err)["error"]["code"] == "parse"

    @pytest.mark.parametrize("field", ["trace_version", "bound", "level", "scale"])
    def test_result_fields(self, field):
        doc = json.loads(io.dumps(io.encode_result(compress(ProblemInput(4, 1, (2, 3, 7, 29))))))
        zeros = "0" * 6000
        if field == "trace_version":
            doc["trace_version"] = 10**6000
        elif field == "bound":  # not reduced
            doc["bound"] = {"num": "6" + zeros, "den": "4" + zeros}
        elif field == "level":
            doc["steps"][0]["level"] = 10**6000
        else:  # does not match the upper bound's denominator
            doc["steps"][0]["scale"] = self.HUGE
        with pytest.raises(FormatError) as info:
            io.decode_result(doc)
        assert len(str(info.value)) < 1000


class TestFileRoundTrips:
    def test_instance_round_trip_examples(self):
        rng = Random(6)
        for _ in range(50):
            n = rng.randint(1, 6)
            if rng.random() < 0.5:
                obj = generate(
                    n=n,
                    d=rng.randint(1, 3),
                    m=rng.randint(1, 4),
                    seed=rng.randrange(2**32),
                    scale=rng.choice([1, 2, 10**6]),
                    max_entry=rng.randint(1, 10**6),
                )
            else:
                y = tuple(rng.randrange(10**30) for _ in range(n))
                if all(v == 0 for v in y):
                    y = (1,) + y[1:]
                obj = ProblemInput(n=n, d=rng.randint(1, 10**9), y=y)
            doc = io.encode_instance(obj)
            assert io.encode_instance(io.decode_instance(doc)) == doc
            assert json.loads(io.dumps(doc)) == doc

    def test_result_round_trip(self):
        rng = Random(8)
        for _ in range(20):
            n = rng.randint(1, 4)
            y = tuple(rng.randint(0, 60) for _ in range(n))
            if all(v == 0 for v in y):
                y = y[:-1] + (3,)
            result = compress(ProblemInput(n, rng.randint(1, 2), y))
            doc = io.encode_result(result)
            decoded = io.decode_result(doc)
            assert decoded == result
            assert io.encode_result(decoded) == doc
            assert io.replay(decoded) == result.x

    def test_result_replay_detects_tampering(self):
        result = compress(ProblemInput(4, 1, (2, 3, 7, 29)))
        doc = io.encode_result(result)
        doc["x"][0] = "2"
        with pytest.raises(FormatError):
            io.replay(io.decode_result(doc))
        doc = io.encode_result(result)
        doc["steps"][0]["scale"] = "5"
        with pytest.raises(FormatError):
            io.replay(io.decode_result(doc))
        doc = io.encode_result(result)
        doc["max_x"] = "999"
        with pytest.raises(FormatError, match="max_x"):
            io.replay(io.decode_result(doc))
        doc = io.encode_result(result)
        assert doc["steps"][0]["cap"] == "8"
        doc["steps"][0]["upper"]["constraint"] = ["99", "-1"]
        with pytest.raises(FormatError, match="upper: constraint"):
            io.replay(io.decode_result(doc))
        for perm in ([0, 0, 1, 2], [0, 1, 2]):
            doc = io.encode_result(result)
            doc["perm"] = perm
            with pytest.raises(FormatError, match="perm"):
                io.replay(io.decode_result(doc))


class TestErrorClasses:
    EXIT_CODES = {
        FormatError: (2, "parse"),
        ValidationError: (3, "validation"),
        BudgetExceededError: (4, "budget"),
        MissingHiddenSectionError: (5, "missing-hidden"),
        RejectionCapError: (6, "rejection-cap"),
        InternalInconsistencyError: (7, "internal"),
    }

    def test_one_class_per_exit_code(self, monkeypatch, capsys):
        subclasses, todo = set(), [ConeCompressError]
        while todo:
            for sub in todo.pop().__subclasses__():
                subclasses.add(sub)
                todo.append(sub)
        assert subclasses == set(self.EXIT_CODES)
        # the bare base class is the fallback for any other package error
        table = {**self.EXIT_CODES, ConeCompressError: (7, "internal")}
        for error, (exit_code, code) in table.items():
            assert (error.exit_code, error.code) == (exit_code, code), error

            def fail(*args, error=error):
                raise error("raised inside a command handler")

            monkeypatch.setattr(cli, "bound_value", fail)
            code_seen, _, err = run_cli(capsys, "bound", "--n", 2, "--d", 1)
            assert code_seen == exit_code, error
            error_doc = json.loads(err)["error"]
            assert error_doc["code"] == code
            assert error_doc["message"] == "raised inside a command handler"


class TestNumbersPastTheDecimalDigitLimit:
    """Python refuses int<->str conversions past 4300 digits by default."""

    def test_library_decoders_and_encoders_take_huge_entries(self):
        big = "9" * 5000
        doc = {"n": 1, "d": 1, "y": [big]}
        problem = io.decode_instance(doc)
        assert problem.y == (10**5000 - 1,)
        assert io.encode_instance(problem) == doc
        result = compress(ProblemInput(2, 1, (10**5000, 3 * 10**5000)))
        assert io.decode_result(io.encode_result(result)) == result
        assert io.decode_x_file({"x": [big]}) == (10**5000 - 1,)

    @settings(max_examples=4, deadline=None)
    @given(
        digits=st.integers(10**4, 10**5),
        seed=st.integers(0, 2**32),
        n=st.integers(1, 3),
        hidden=st.booleans(),
    )
    def test_instance_file_round_trip(self, digits, seed, n, hidden):
        rng = Random(seed)
        planted = tuple(rng.randrange(10 ** (digits - 1), 10**digits) for _ in range(n))
        scale = rng.randrange(1, 1000)
        public = ProblemInput(n=n, d=rng.randrange(1, 10**digits), y=planted)
        obj = public
        if hidden:
            public = ProblemInput(n=n, d=public.d, y=tuple(scale * v for v in planted))
            obj = conecompress.HiddenInstance(
                public=public,
                hidden_matrix=((-1,) * n,),
                planted=planted,
                seed=seed,
                scale=scale,
            )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "instance.json"
            io.write_json(path, io.encode_instance(obj))
            assert io.decode_instance(io.read_json(path)) == obj
            assert io.dumps(io.encode_instance(obj)) == path.read_text()

    @settings(max_examples=4, deadline=None)
    @given(digits=st.integers(10**4, 10**5), seed=st.integers(0, 2**32), n=st.integers(1, 3))
    def test_result_file_round_trip(self, digits, seed, n):
        # compress cannot produce such entries (its caps stop near 2**16384),
        # so the trace is built with replay's arithmetic: each level takes a
        # reduced fraction num/den and multiplies the tail by den. The last
        # entry, the product of the dens, has about ``digits`` digits. Each
        # constraint has one coefficient per coordinate level..n, within den.
        rng = Random(seed)
        partial = PartialSolution(n, (1,))
        steps = []
        den_digits = digits // max(n - 1, 1)
        for level in range(n - 1, 0, -1):
            den = rng.randrange(10 ** (den_digits - 1), 10**den_digits)
            num = partial.x[0] * den - 1  # coprime to den, and <= the next entry
            value = Fraction(num, den)
            coeffs = (den, -1, *[0] * (n - level - 1))
            bound = BoundResult(value, Constraint(level, coeffs))
            partial = PartialSolution(level, (num, *[v * den for v in partial.x]))
            steps.append(StepRecord(level, den, bound, bound, partial))
        perm = tuple(rng.sample(range(n), n))
        result = CompressOutput(
            x=conecompress.unsort(partial.x, perm),
            trace=tuple(steps),
            bound=Fraction(rng.randrange(1, 10**digits), 3),
            perm=perm,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "result.json"
            io.write_json(path, io.encode_result(result))
            decoded = io.decode_result(io.read_json(path))
            assert decoded == result
            assert io.replay(decoded) == result.x
            assert io.decode_x_file(io.read_json(path)) == result.x

    def test_bound_prints_every_digit(self):
        proc = run_module("bound", "--n", 15, "--d", 1)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(proc.stdout.strip()) == 4928  # 2**16369

    def test_compress_reads_and_writes_huge_entries(self, tmp_path):
        big = "9" * 5000
        inst = tmp_path / "big.json"
        io.write_json(inst, {"n": 3, "d": 1, "y": ["2", "3", big]})
        out = tmp_path / "r.json"
        proc = run_module("compress", inst, out)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["x"] == ["1", "1", "2"]

    def test_budget_error_reports_a_huge_required_count(self, tmp_path):
        inst = tmp_path / "wide.json"
        io.write_json(inst, {"n": 14, "d": 7, "y": [str(v) for v in range(1, 15)]})
        proc = run_module("compress", inst, tmp_path / "r.json")
        assert proc.returncode == 4
        error = json.loads(proc.stderr)["error"]
        assert error["code"] == "budget"
        # level 13 needs one walk; level 12 one search per head, cap = 14**2048/2
        assert error["required"] == str(14**2048 // 2)
        assert len(error["required"]) == 2347

    def test_generate_takes_a_huge_scale(self):
        proc = run_module(
            "generate", "--n", 3, "--d", 1, "--m", 2, "--seed", 0, "--scale", "1" + "0" * 5000
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        library = generate(3, 1, 2, 0, scale=10**5000)
        assert proc.stdout == io.dumps(io.encode_instance(library))


def test_internal_error_exit(worked_instance, tmp_path, capsys, monkeypatch):
    def broken(problem, budget):
        raise InternalInconsistencyError("tightest lower bound above upper")

    monkeypatch.setattr("conecompress.cli.compress", broken)
    code, out, err = run_cli(capsys, "compress", worked_instance, tmp_path / "r.json")
    assert (code, out) == (7, "")
    assert json.loads(err)["error"]["code"] == "internal"


def test_console_entry_point_runs():
    proc = run_module("bound", "--n", 4, "--d", 1)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "16"


def _valid_instance_docs():
    docs = [
        {"n": 4, "d": 1, "y": ["2", "3", "7", "29"]},
        # with a budget of 1000, verify is over it (5**5 vectors) and compress
        # not; at n = 6 compress is over it too (32768 searches at level 4)
        {"n": 5, "d": 2, "y": ["3", "14", "15", "92", "65"]},
        {"n": 6, "d": 2, "y": ["1", "2", "3", "4", "5", "6"]},
    ]
    for seed in range(3):
        docs.append(io.encode_instance(generate(n=3, d=1, m=2, seed=seed, max_entry=20)))
    return docs


VALID_INSTANCES = _valid_instance_docs()
SMALL = st.integers(0, 50).map(str)
DECIMALS = st.one_of(
    SMALL,
    st.integers(-3, 10**30).map(str),
    st.integers(0, 3).map(lambda k: "9" * (5000 + k)),  # past Python's digit limit
    st.text(max_size=4),
    st.integers(-5, 5),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def instance_docs(draw):
    """A valid instance document, or one with one field changed or dropped."""
    doc = dict(draw(st.sampled_from(VALID_INSTANCES)))
    change = draw(st.sampled_from([None, None, "y", "d", "hidden", "drop"]))
    if change == "y":
        doc["y"] = draw(st.lists(SMALL, min_size=1, max_size=5) | st.lists(DECIMALS, max_size=5))
        doc["n"] = draw(st.just(len(doc["y"])) | st.integers(-1, 7))
    elif change == "d":
        doc["d"] = draw(st.integers(1, 3) | st.integers(-1, 0) | st.just(10**40) | JSON_VALUES)
    elif change == "hidden":
        doc["hidden"] = draw(
            st.fixed_dictionaries(
                {
                    "matrix": st.lists(st.lists(DECIMALS, max_size=4), max_size=2),
                    "planted": st.lists(DECIMALS, max_size=4),
                    "seed": st.integers(-1, 3),
                    "scale": DECIMALS,
                }
            )
            | JSON_VALUES
        )
    elif change == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@st.composite
def x_docs(draw):
    instance = draw(st.sampled_from(VALID_INSTANCES))
    x = draw(
        st.just(["1"] * instance["n"])
        | st.lists(SMALL, min_size=instance["n"], max_size=instance["n"])
        | st.lists(DECIMALS, max_size=5)
    )
    return {"x": x}


@st.composite
def file_bytes(draw, docs):
    """Mostly a document from ``docs``; else any JSON, any bytes, or deep nesting."""
    kind = draw(st.sampled_from(["doc", "doc", "doc", "json", "bytes", "deep"]))
    if kind == "bytes":
        return draw(st.binary(max_size=16))
    if kind == "deep":
        return b"[" * 100000
    return json.dumps(draw(docs if kind == "doc" else JSON_VALUES)).encode()


class TestCliContractProperty:
    """Any instance and x-file content: a documented exit code, never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(["compress", "verify"]),
        mode=st.sampled_from(["lambda", "matrix", "bound", "all"]),
        instance=file_bytes(instance_docs()),
        x_file=file_bytes(x_docs()),
    )
    def test_malformed_and_random_documents(self, command, mode, instance, x_file):
        with tempfile.TemporaryDirectory() as tmp:
            inst_path, x_path = Path(tmp) / "instance.json", Path(tmp) / "x.json"
            inst_path.write_bytes(instance)
            x_path.write_bytes(x_file)
            if command == "compress":
                argv = [command, inst_path, Path(tmp) / "r.json"]
            else:
                argv = [command, inst_path, x_path, "--mode", mode]
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*map(str, argv), "--budget", "1000"])
        assert code in (0, 1, 2, 3, 4, 5)
        if code == 0:
            assert err.getvalue() == ""
            return
        error = json.loads(err.getvalue())
        assert list(error) == ["error"]
        if code == 1:
            # only a well-formed verify whose verdicts say so may fail with 1
            assert command == "verify"
            assert error["error"]["code"] == "verification"
            assert not all(v["ok"] for v in json.loads(out.getvalue())["verdicts"].values())


HUGE_VALUES = st.sampled_from(["1" + "0" * 5000, "-" + "9" * 5000, str(2**64), str(2**64 - 1)])
SMALL_VALUES = st.integers(-2, 6).map(str) | st.sampled_from(["", "x", "1.5", "0x10"])
# --n and --m stay small: generate's work grows with them
OPTION_VALUES = {
    "--n": SMALL_VALUES,
    "--m": SMALL_VALUES,
    "--d": SMALL_VALUES | HUGE_VALUES,
    "--seed": SMALL_VALUES | HUGE_VALUES,
    "--scale": SMALL_VALUES | HUGE_VALUES,
    "--max-entry": SMALL_VALUES | HUGE_VALUES,
    "--budget": SMALL_VALUES | HUGE_VALUES,
    "--mode": st.sampled_from(["lambda", "matrix", "bound", "all", "none"]),
}


@st.composite
def argvs(draw):
    """A command line from the CLI's own words, with paths as placeholders.

    Free tokens hold no digit and no "o", so that no abbreviation of
    --out and no stray number reaches an option.
    """
    command = draw(st.sampled_from(["compress", "verify", "generate", "bound", "trace", "x"]))
    option = st.sampled_from(sorted(OPTION_VALUES)).flatmap(
        lambda name: OPTION_VALUES[name].map(lambda value: [name, value])
    )
    token = st.one_of(
        st.sampled_from(["INSTANCE", "RESULT", "MISSING", "OUT"]).map(lambda t: [t]),
        option,
        option.map(lambda pair: pair[:1]),
        st.sampled_from(["--out", "-h", "--help", "--", "-"]).map(lambda t: [t]),
        st.text(alphabet="xyz-=", max_size=4).map(lambda t: [t]),
    )
    tokens = draw(st.lists(token, max_size=7))
    if draw(st.booleans()):
        tokens.insert(0, ["--out", "OUT"])
    return [command, *(t for pair in tokens for t in pair)]


class TestCliArgvProperty:
    """Any command line: a code from the exit-code table, and stderr either
    empty or one JSON error."""

    @settings(max_examples=200, deadline=None)
    @given(argv=argvs())
    def test_random_command_lines(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {
                "INSTANCE": Path(tmp) / "instance.json",
                "RESULT": Path(tmp) / "result.json",
                "MISSING": Path(tmp) / "missing.json",
                "OUT": Path(tmp) / "out.json",
            }
            instance = generate(n=4, d=1, m=3, seed=11, max_entry=20)
            io.write_json(paths["INSTANCE"], io.encode_instance(instance))
            io.write_json(paths["RESULT"], io.encode_result(compress(instance.public)))
            argv = [str(paths.get(a, a)) for a in argv]
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2, 3, 4, 5, 6)
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert list(json.loads(err.getvalue())) == ["error"]
