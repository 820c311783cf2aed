"""Instance and result files: JSON with decimal-string numbers.

Witness and solution entries overflow 64-bit integers even at small
dimensions, so every arbitrary-precision value is serialized as a decimal
string; only structural fields (n, d, seed, levels, trace_version) are
native JSON integers. Emission is canonical, so identical objects produce
identical bytes. The public encoders, decoders, ``dumps`` and
``read_json`` accept numbers of any length, native JSON integers such as
a huge ``d`` included: each lifts Python's int<->str digit limit for its
document.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

from .compress import BoundResult, CompressOutput, StepRecord
from .errors import FormatError
from .generate import HiddenInstance
from .model import (
    Constraint,
    PartialSolution,
    ProblemInput,
    unlimited_int_digits,
    unsort,
    validate,
)

TRACE_VERSION = 1

_DECIMAL = re.compile(r"-?(0|[1-9][0-9]*)")


def _int_field(obj: dict, key: str, where: str) -> int:
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise FormatError(f"{where}: field {key!r} must be an integer")
    return v


_JSON_TYPES = {
    type(None): "null",
    bool: "boolean",
    int: "number",
    float: "number",
    str: "string",
    list: "array",
    dict: "object",
}


def _str_int(v: object, where: str) -> int:
    # Messages name the field and the JSON type, never the value: a value
    # can be a number or string of any length.
    if isinstance(v, str) and _DECIMAL.fullmatch(v):
        return int(v)
    if isinstance(v, str):
        got = "another string"
    else:
        got = "a JSON " + _JSON_TYPES.get(type(v), "value")
    raise FormatError(f"{where}: expected a decimal string, got {got}")


def _str_list(obj: dict, key: str, where: str) -> list[int]:
    v = obj.get(key)
    if not isinstance(v, list):
        raise FormatError(f"{where}: field {key!r} must be a list")
    return [_str_int(e, f"{where}.{key}[{i}]") for i, e in enumerate(v)]


@unlimited_int_digits()
def encode_instance(obj: ProblemInput | HiddenInstance) -> dict:
    if isinstance(obj, HiddenInstance):
        public, hidden = obj.public, obj
    else:
        public, hidden = obj, None
    doc: dict = {
        "n": public.n,
        "d": public.d,
        "y": [str(v) for v in public.y],
    }
    if hidden is not None:
        doc["hidden"] = {
            "matrix": [[str(v) for v in row] for row in hidden.hidden_matrix],
            "planted": [str(v) for v in hidden.planted],
            "seed": hidden.seed,
            "scale": str(hidden.scale),
        }
    return doc


@unlimited_int_digits()
def decode_instance(data: object) -> ProblemInput | HiddenInstance:
    """Parse an instance document; every load passes input validation."""
    if not isinstance(data, dict):
        raise FormatError("instance document must be a JSON object")
    n = _int_field(data, "n", "instance")
    d = _int_field(data, "d", "instance")
    y = tuple(_str_list(data, "y", "instance"))
    public = ProblemInput(n=n, d=d, y=y)
    validate(public)
    if "hidden" not in data:
        return public
    hidden = data["hidden"]
    if not isinstance(hidden, dict):
        raise FormatError("instance: field 'hidden' must be an object")
    matrix = hidden.get("matrix")
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise FormatError("instance.hidden: field 'matrix' must be a list of rows")
    rows = tuple(
        tuple(_str_int(v, f"instance.hidden.matrix[{i}][{k}]") for k, v in enumerate(row))
        for i, row in enumerate(matrix)
    )
    planted = tuple(_str_list(hidden, "planted", "instance.hidden"))
    seed = _int_field(hidden, "seed", "instance.hidden")
    scale = _str_int(hidden.get("scale"), "instance.hidden.scale")
    return HiddenInstance(
        public=public, hidden_matrix=rows, planted=planted, seed=seed, scale=scale
    )


@unlimited_int_digits()
def encode_fraction(value: Fraction) -> dict:
    """{"num", "den"} decimal strings: the one writer of a fraction."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _encode_bound_result(br: BoundResult) -> dict:
    return {
        **encode_fraction(br.value),
        "constraint": [str(c) for c in br.achieving.coeffs],
    }


@unlimited_int_digits()
def encode_result(result: CompressOutput) -> dict:
    return {
        "trace_version": TRACE_VERSION,
        "x": [str(v) for v in result.x],
        "perm": list(result.perm),
        "bound": encode_fraction(result.bound),
        "max_x": str(max(result.x)),
        "steps": [
            {
                "level": rec.level,
                "cap": str(rec.cap),
                "upper": _encode_bound_result(rec.upper),
                "lower": _encode_bound_result(rec.lower),
                "scale": str(rec.scale),
                "partial": [str(v) for v in rec.partial_after.x],
            }
            for rec in result.trace
        ],
    }


def _decode_fraction(obj: object, where: str) -> Fraction:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object with num/den")
    num = _str_int(obj.get("num"), f"{where}.num")
    den = _str_int(obj.get("den"), f"{where}.den")
    if den < 1:
        raise FormatError(f"{where}: denominator must be positive")
    if gcd(abs(num), den) != 1:
        raise FormatError(f"{where}: fraction is not reduced")
    return Fraction(num, den)


def _decode_bound_result(
    obj: object, level: int, width: int, cap: int, where: str
) -> BoundResult:
    value = _decode_fraction(obj, where)
    coeffs = tuple(_str_list(obj, "constraint", where))
    if len(coeffs) != width or any(abs(c) > cap for c in coeffs):
        raise FormatError(
            f"{where}: constraint needs {width} coefficients within the step's cap"
        )
    return BoundResult(value=value, achieving=Constraint(level, coeffs))


@unlimited_int_digits()
def decode_result(data: object) -> CompressOutput:
    if not isinstance(data, dict):
        raise FormatError("result document must be a JSON object")
    version = _int_field(data, "trace_version", "result")
    if version != TRACE_VERSION:
        raise FormatError(f"result: trace_version must be {TRACE_VERSION}")
    x = tuple(_str_list(data, "x", "result"))
    perm_raw = data.get("perm")
    if not isinstance(perm_raw, list) or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in perm_raw
    ):
        raise FormatError("result: field 'perm' must be a list of integers")
    if sorted(perm_raw) != list(range(len(x))):
        raise FormatError("result: field 'perm' must be a permutation of 0..n-1")
    perm = tuple(perm_raw)
    bound = _decode_fraction(data.get("bound"), "result.bound")
    max_x = _str_int(data.get("max_x"), "result.max_x")
    if not x or max_x != max(x):
        raise FormatError("result: field 'max_x' is not the largest entry of x")
    steps_raw = data.get("steps")
    if not isinstance(steps_raw, list):
        raise FormatError("result: field 'steps' must be a list")
    n = len(x)
    if len(steps_raw) != max(n - 1, 0):
        raise FormatError(
            f"result: expected {max(n - 1, 0)} steps for n={n}, got {len(steps_raw)}"
        )
    steps = []
    for idx, raw in enumerate(steps_raw):
        where = f"result.steps[{idx}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{where}: expected an object")
        level = _int_field(raw, "level", where)
        if level != n - 1 - idx:
            raise FormatError(f"{where}: level must be {n - 1 - idx}")
        cap = _str_int(raw.get("cap"), f"{where}.cap")
        width = n - level + 1
        upper = _decode_bound_result(raw.get("upper"), level, width, cap, f"{where}.upper")
        lower = _decode_bound_result(raw.get("lower"), level, width, cap, f"{where}.lower")
        scale = _str_int(raw.get("scale"), f"{where}.scale")
        if scale != upper.value.denominator:
            raise FormatError(
                f"{where}: scale does not match the upper bound's denominator"
            )
        partial_x = tuple(_str_list(raw, "partial", where))
        try:
            partial = PartialSolution(level=level, x=partial_x)
        except ValueError as exc:
            raise FormatError(f"{where}: bad partial solution: {exc}") from exc
        steps.append(
            StepRecord(
                level=level, cap=cap, upper=upper, lower=lower, partial_after=partial
            )
        )
    return CompressOutput(x=x, trace=tuple(steps), bound=bound, perm=perm)


@unlimited_int_digits()
def decode_x_file(data: object, where: str = "x-file") -> tuple[int, ...]:
    """Pull the solution vector out of a result file or bare {"x": [...]}."""
    if not isinstance(data, dict) or "x" not in data:
        raise FormatError(f"{where}: expected an object with an 'x' field")
    return tuple(_str_list(data, "x", where))


def replay(result: CompressOutput) -> tuple[int, ...]:
    """Re-run the trace's rescale-and-assign arithmetic; must rebuild x."""
    current: list[int] = [1]
    for rec in result.trace:
        current = [rec.upper.value.numerator] + [v * rec.scale for v in current]
        if tuple(current) != rec.partial_after.x:
            raise FormatError(
                f"step at level {rec.level}: partial solution does not replay"
            )
    rebuilt = unsort(tuple(current), result.perm)
    if rebuilt != result.x:
        raise FormatError("replayed steps do not reconstruct x")
    return rebuilt


@unlimited_int_digits()
def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


@unlimited_int_digits()
def read_json(path: str | Path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply") from exc


def write_json(path: str | Path, doc: dict) -> None:
    text = dumps(doc)
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc
