"""Command-line front end: compress, verify, generate, bound, trace.

All structured output is JSON on stdout; failures additionally print a
machine-readable error object on stderr. Exit codes are part of the
contract: 0 ok, 1 verification failed, 2 parse, usage or file error,
3 validation error, 4 enumeration budget exceeded, 5 hidden section
missing, 6 generator rejection cap reached, 7 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io
from .compress import DEFAULT_COMPRESS_BUDGET, CompressOutput, compress
from .errors import (
    BudgetExceededError,
    ConeCompressError,
    FormatError,
    MissingHiddenSectionError,
    RejectionCapError,
    ValidationError,
)
from .generate import DEFAULT_MAX_ENTRY, DEFAULT_SCALE, HiddenInstance, generate
from .model import Constraint, ProblemInput, bound_value, unlimited_int_digits
from .verify import DEFAULT_VERIFY_BUDGET, Verdict, bound_check, cone_membership, matrix_check

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_MISSING_HIDDEN = 5
EXIT_REJECTION_CAP = 6
EXIT_INTERNAL = 7

# Printing a number takes time quadratic in its length. The bound for
# n = 21, d = 1 has 315647 digits and prints in about 2 s; each further n
# about quadruples that. `bound` refuses an estimate past this many bits.
_BOUND_PRINT_BITS = 2**21


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _u64(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= v < 2**64:
        raise argparse.ArgumentTypeError(f"must fit in 64 bits, got {v}")
    return v


def _print_error(code: str, message: str, **extra: object) -> None:
    doc = {"error": {"code": code, "message": message, **extra}}
    print(json.dumps(doc, indent=2), file=sys.stderr)


def _public_of(parsed: ProblemInput | HiddenInstance) -> ProblemInput:
    return parsed.public if isinstance(parsed, HiddenInstance) else parsed


def cmd_compress(args: argparse.Namespace) -> int:
    parsed = io.decode_instance(io.read_json(args.instance))
    result = compress(_public_of(parsed), args.budget)
    io.write_json(args.out, io.encode_result(result))
    summary = {
        "x": [str(v) for v in result.x],
        "max_x": str(max(result.x)),
        "bound": io.encode_fraction(result.bound),
        "out": str(args.out),
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _verdict_doc(verdict: Verdict) -> dict:
    doc: dict = {"ok": verdict.ok}
    if verdict.certificate is not None:
        doc["certificate"] = [str(c) for c in verdict.certificate.coeffs]
        doc["level"] = verdict.certificate.level
    return doc


def cmd_verify(args: argparse.Namespace) -> int:
    parsed = io.decode_instance(io.read_json(args.instance))
    public = _public_of(parsed)
    x = io.decode_x_file(io.read_json(args.x_file), where=str(args.x_file))

    verdicts: dict[str, Verdict] = {}
    if args.mode in ("lambda", "all"):
        verdicts["lambda"] = cone_membership(x, public.y, public.d, args.budget)
    if args.mode == "matrix" or (args.mode == "all" and isinstance(parsed, HiddenInstance)):
        if not isinstance(parsed, HiddenInstance):
            raise MissingHiddenSectionError(
                "matrix verification needs the instance's hidden section"
            )
        verdicts["matrix"] = matrix_check(parsed.hidden_matrix, x, public.d)
    if args.mode in ("bound", "all"):
        verdicts["bound"] = bound_check(x, public.n, public.d)

    docs = {k: _verdict_doc(v) for k, v in verdicts.items()}
    print(json.dumps({"mode": args.mode, "verdicts": docs}, indent=2))
    if all(v.ok for v in verdicts.values()):
        return EXIT_OK
    _print_error("verification", "one or more checks failed", verdicts=docs)
    return EXIT_VERIFICATION_FAILED


def cmd_generate(args: argparse.Namespace) -> int:
    instance = generate(
        n=args.n,
        d=args.d,
        m=args.m,
        seed=args.seed,
        scale=args.scale,
        max_entry=args.max_entry,
    )
    doc = io.encode_instance(instance)
    if args.out is None:
        sys.stdout.write(io.dumps(doc))
    else:
        io.write_json(args.out, doc)
        print(json.dumps({"out": str(args.out)}, indent=2))
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    n, d = args.n, args.d
    width = (2 * d).bit_length()
    too_long = n - 1 >= _BOUND_PRINT_BITS.bit_length()  # keeps the shift below small
    if too_long or ((1 << (n - 1)) - 1) * width > _BOUND_PRINT_BITS:
        raise ValidationError(
            f"the bound for n={n}, d={d} has about (2**{n - 1} - 1) * {width} "
            f"bits, more than the {_BOUND_PRINT_BITS} this command prints"
        )
    value = bound_value(n, d)
    if value.denominator == 1:
        print(value.numerator)
    else:
        print(f"{value.numerator}/{value.denominator}")
    return EXIT_OK


def _format_constraint(constraint: Constraint) -> str:
    parts = []
    for offset, coeff in enumerate(constraint.coeffs):
        if coeff == 0:
            continue
        idx = constraint.level + offset
        if not parts:
            parts.append(f"{coeff}*x({idx})")
        elif coeff < 0:
            parts.append(f"- {-coeff}*x({idx})")
        else:
            parts.append(f"+ {coeff}*x({idx})")
    return " ".join(parts) + " <= 0"


def _narrative(result: CompressOutput, public: ProblemInput) -> list[str]:
    n = public.n
    lines = [f"instance: n={n}, d={public.d}"]
    sorted_y = tuple(public.y[p] for p in result.perm)
    lines.append("witness (sorted): " + ", ".join(str(v) for v in sorted_y))
    item = 1
    lines.append(f"{item}. Initialize x({n})=1.")
    for rec in result.trace:
        item += 1
        lines.append(
            f"{item}. Level {rec.level}, coefficient cap {rec.cap}: "
            f"tightest upper bound {rec.upper.value} from "
            f"{_format_constraint(rec.upper.achieving)}; "
            f"tightest lower bound {rec.lower.value} from "
            f"{_format_constraint(rec.lower.achieving)}."
        )
        item += 1
        partial = ", ".join(
            f"x({rec.level + k})={v}" for k, v in enumerate(rec.partial_after.x)
        )
        lines.append(
            f"{item}. Set x({rec.level})={rec.chosen}; "
            f"multiply by {rec.scale}: {partial}."
        )
    lines.append(
        "output: ["
        + ", ".join(str(v) for v in result.x)
        + f"], maximum {max(result.x)}, bound {result.bound}"
    )
    return lines


def cmd_trace(args: argparse.Namespace) -> int:
    parsed = io.decode_instance(io.read_json(args.instance))
    public = _public_of(parsed)
    result = compress(public, args.budget)
    for line in _narrative(result, public):
        print(line)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecompress",
        description=(
            "Find a small integral vector in an unknown polyhedral cone, "
            "given only the dimension, a coefficient cap and one witness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress an instance file to a result file")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("out", help="result JSON file to write")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_COMPRESS_BUDGET)
    p.set_defaults(handler=cmd_compress)

    p = sub.add_parser("verify", help="verify a solution against an instance")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("x_file", help="result file or JSON object with an 'x' field")
    p.add_argument(
        "--mode", choices=("lambda", "matrix", "bound", "all"), default="all"
    )
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_VERIFY_BUDGET)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("generate", help="generate a seeded hidden instance")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--seed", type=_u64, required=True)
    p.add_argument("--scale", type=_positive_int, default=DEFAULT_SCALE)
    p.add_argument("--max-entry", type=_positive_int, default=DEFAULT_MAX_ENTRY)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("bound", help="print the guaranteed bound for (n, d)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("trace", help="print a step-by-step narrative")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_COMPRESS_BUDGET)
    p.set_defaults(handler=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    with unlimited_int_digits():
        try:
            return args.handler(args)
        except FormatError as exc:
            _print_error("parse", str(exc))
            return EXIT_PARSE
        except MissingHiddenSectionError as exc:
            _print_error("missing-hidden", str(exc))
            return EXIT_MISSING_HIDDEN
        except BudgetExceededError as exc:
            required = None if exc.required is None else str(exc.required)
            _print_error("budget", str(exc), required=required)
            return EXIT_BUDGET
        except RejectionCapError as exc:
            _print_error("rejection-cap", str(exc))
            return EXIT_REJECTION_CAP
        except ValidationError as exc:
            _print_error("validation", str(exc))
            return EXIT_VALIDATION
        except ConeCompressError as exc:
            _print_error("internal", str(exc))
            return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
