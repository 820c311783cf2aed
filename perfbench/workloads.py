"""Workloads: seeded instance pools, the timed operation and its certification.

Every workload draws its instances from a fixed pool per ``(n, d)`` shape,
``generate(n, d, m=2n, seed=k)`` for k < ``pool``, so that reference
digests of the outputs can be stored with the benchmark
(``reference.json``, written by ``make_reference.py``). The run seed picks
the order in which the pool is visited. README.md records why each
workload exists.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from random import Random


@dataclass(frozen=True)
class Workload:
    name: str
    # (n, d, weight): a shape appears ``weight`` times per round of the schedule
    shapes: tuple[tuple[int, int, int], ...]
    pool: int
    scale: int | None = None
    digits: int | None = None  # witness entries drawn from [0, 10**digits]
    cli: bool = False  # operation is CLI compress + verify, else library compress

    def describe(self) -> dict:
        """The parameters the reference digests depend on."""
        return {
            "shapes": [[n, d] for n, d, _ in self.shapes],
            "pool": self.pool,
            "m": "2n",
            **{k: v for k, v in (("scale", self.scale), ("digits", self.digits)) if v},
        }


# Weights put the median latency inside one group of similar shapes, not
# in the gap between two groups, where a small shift would move it far.
# (6, 1) runs twice as often as (5, 2). On batch the four cheapest shapes,
# about 6 ms each at the seed, run twice as often as (4, 2) (10 ms) and
# (4, 3) and (3, 8) (22 ms).
WORKLOADS = {
    "frontier": Workload("frontier", ((6, 1, 2), (5, 2, 1)), pool=16),
    "bigwitness": Workload(
        "bigwitness", ((6, 1, 2), (5, 2, 1)), pool=16, scale=1, digits=1000
    ),
    "batch": Workload(
        "batch",
        ((3, 1, 2), (3, 2, 2), (3, 3, 2), (4, 1, 2), (4, 2, 1), (4, 3, 1), (3, 8, 1)),
        # eight files per shape: writing 224 took 100-150 ms, the noisiest
        # part of the set-up
        pool=8,
        cli=True,
    ),
}


@dataclass(frozen=True)
class Instance:
    n: int
    d: int
    index: int
    hidden: object  # conecompress.HiddenInstance
    path: str
    result: str


def hidden_instances(lib: dict, workload: Workload, n: int, d: int) -> list:
    """The pool of one shape: ``generate(n, d, m=2n, seed=k)`` for k < pool."""
    kwargs = {}
    if workload.scale is not None:
        kwargs["scale"] = workload.scale
    if workload.digits is not None:
        kwargs["max_entry"] = 10**workload.digits
    return [lib["generate"].generate(n, d, 2 * n, k, **kwargs) for k in range(workload.pool)]


def build_instances(lib: dict, workload: Workload, workdir: Path) -> dict:
    """Generate every pool and write one instance file per instance."""
    pools = {}
    for n, d, _ in workload.shapes:
        pools[(n, d)] = []
        for k, hidden in enumerate(hidden_instances(lib, workload, n, d)):
            path = workdir / f"n{n}d{d}-{k}.json"
            lib["io"].write_json(path, lib["io"].encode_instance(hidden))
            result = workdir / f"n{n}d{d}-{k}.result.json"
            pools[(n, d)].append(Instance(n, d, k, hidden, str(path), str(result)))
    return pools


def schedule(workload: Workload, seed: int):
    """Endless seeded order of (shape, pool index); each shape walks its
    whole pool in a fresh shuffled order before repeating an instance."""
    rng = Random(seed)
    rounds = [(n, d) for n, d, weight in workload.shapes for _ in range(weight)]
    queues: dict = {shape: [] for shape in rounds}
    while True:
        for shape in rounds:
            if not queues[shape]:
                queues[shape] = rng.sample(range(workload.pool), workload.pool)
            yield shape, queues[shape].pop()


def _cli(lib: dict, argv: list[str]) -> tuple[int, str]:
    with redirect_stdout(StringIO()) as out, redirect_stderr(StringIO()):
        code = lib["cli"].main(argv)
    return code, out.getvalue()


def operate(lib: dict, workload: Workload, inst: Instance):
    """The timed operation: what a user of the workload waits for."""
    if not workload.cli:
        return lib["compress"].compress(inst.hidden.public)
    compressed = _cli(lib, ["compress", inst.path, inst.result])
    verified = _cli(lib, ["verify", inst.path, inst.result, "--mode", "all"])
    return compressed, verified


def follow_up(lib: dict, workload: Workload, inst: Instance, result) -> tuple[int, str]:
    """Untimed, traced: the CLI check of the result file; returns verify's
    exit code and stdout. A batch operation already ran it; a library
    operation writes its result file and runs it here."""
    if workload.cli:
        return result[1]
    lib["io"].write_json(inst.result, lib["io"].encode_result(result))
    return _cli(lib, ["verify", inst.path, inst.result, "--mode", "all"])


def digest(out) -> str:
    """Hash of x and each level's tightest bounds with their constraints."""

    def bound(b):
        return [str(b.value.numerator), str(b.value.denominator), [str(c) for c in b.achieving.coeffs]]

    doc = [[str(v) for v in out.x], [[r.level, bound(r.upper), bound(r.lower)] for r in out.trace]]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def certify(lib, workload, inst, result, verified, reference, certified: set) -> str | None:
    """Return why the operation's output is wrong, or None if it is right.

    The CLI verify must have passed all three checks, the result file
    must replay, and the library output (if any) and the records decoded
    from the file must both hash to the reference. x is certified
    independently with ``cone_membership``, ``matrix_check`` against the
    hidden matrix and ``bound_check``, once per instance: a later output
    with the same reference digest has the same x.
    """
    if workload.cli and result[0][0] != 0:
        return f"compress exited {result[0][0]}"
    code, text = verified
    if code != 0:
        return f"verify exited {code}"
    verdicts = json.loads(text)["verdicts"]
    if sorted(verdicts) != ["bound", "lambda", "matrix"] or not all(
        v["ok"] for v in verdicts.values()
    ):
        return f"verify verdicts {verdicts}"
    record = lib["io"].decode_result(lib["io"].read_json(inst.result))
    lib["io"].replay(record)
    outputs = [record] if workload.cli else [result, record]
    if any(digest(out) != reference[f"{inst.n},{inst.d}"][inst.index] for out in outputs):
        return "output differs from the reference digest"
    key = (inst.n, inst.d, inst.index)
    if key not in certified:
        public, verify = inst.hidden.public, lib["verify"]
        if not verify.cone_membership(record.x, public.y, public.d).ok:
            return "x is not in the witness cone"
        if not verify.matrix_check(inst.hidden.hidden_matrix, record.x, public.d).ok:
            return "x violates the hidden matrix"
        if not verify.bound_check(record.x, public.n, public.d).ok:
            return "x exceeds the bound"
        certified.add(key)
    return None


def items_planned(lib: dict, n: int, d: int) -> tuple[int, int, int]:
    """Items the seed code enumerates per compress, as (top, second, rest).

    Level j has width w = n - j and cap c = coefficient_cap(d, j). Each of
    its two passes (upper, lower) scans c heads when w = 1 and (2c+1)**w
    tail vectors otherwise.
    """
    per_level = []
    for level in range(n - 1, 0, -1):
        cap, width = lib["model"].coefficient_cap(d, level), n - level
        per_level.append(2 * (cap if width == 1 else (2 * cap + 1) ** width))
    return per_level[0], sum(per_level[1:2]), sum(per_level[2:])
