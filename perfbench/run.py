#!/usr/bin/env python3
"""Benchmark of conecompress: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else. The run sets up ``SETUPS`` times in a
row (fresh import, instance generation, instance files, one warm-up
operation per shape), keeps the last set-up and reports the median as
``setup_s``. The timed phase runs operations back to back until their
summed latency reaches ``--seconds``, certifying each one outside the
timed region (see ``workloads.certify``).

A calibration loop (``calibrate.py``) is sampled on a timer throughout.
Every time metric is in reference seconds: each set-up's or operation's
wall-clock time scaled by the loop's speed while it ran, so that a change
of the machine's speed during or between runs does not read as a change
of the program. The ``info`` line holds the wall-clock figures and the
calibration's spread; the run record holds both times of every
operation.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics: every other operation runs with spans recorded around
the package's public functions (``spans.TRACED``), the ones between run
without, and the difference of their median latencies is the tracing
overhead. The traced run also probes the sizes just past the frontier.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A human-readable summary and a
JSON ``info`` line with the environment and input properties precede it.
Run records (and spans, when traced) go to ``perfbench/_run/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
from contextlib import suppress
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from calibrate import Calibration
from spans import ATTR, END, NAME, OP, START, Tracer, layer_metrics
from workloads import (
    WORKLOADS,
    build_instances,
    certify,
    follow_up,
    items_planned,
    operate,
    schedule,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
RUN_DIR = BENCH_DIR / "_run"
SETUPS = 5
PROBE_REPS = 20
STEADY = 0.25  # the time metrics' bound in BENCHMARK.json
MODULES = ("model", "compress", "verify", "io", "cli", "generate", "errors")

END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ProgramMissing(Exception):
    """The checkout has no importable conecompress under src/."""


def import_program() -> dict:
    """Import conecompress afresh from ``src/``, so that each set-up pays
    for module-level work and starts with empty module-level caches."""
    for name in [m for m in sys.modules if m.split(".")[0] == "conecompress"]:
        del sys.modules[name]
    try:
        package = importlib.import_module("conecompress")
        modules = {m: importlib.import_module(f"conecompress.{m}") for m in MODULES}
    except ImportError as exc:
        raise ProgramMissing(f"cannot import conecompress from {SRC}: {exc}") from exc
    origin = Path(package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissing(f"conecompress was imported from {origin}, not from {SRC}")
    modules["package"] = package
    return modules


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    value; the maximum (percentile 100) when there are fewer than 11."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def probe(lib: dict) -> tuple[dict, dict]:
    """Try the sizes just past the frontier under the default budget."""
    metrics, outcomes, rejections = {}, {}, []
    budget_error = lib["errors"].BudgetExceededError
    for n, d in ((7, 1), (6, 2)):
        problem = lib["generate"].generate(n, d, 2 * n, 0).public
        times = []
        for _ in range(PROBE_REPS):
            start = perf_counter()
            try:
                lib["compress"].compress(problem)
            except budget_error as exc:
                times.append(perf_counter() - start)
                required = -1 if exc.required is None else exc.required
                outcome = "BudgetExceededError"
            else:
                # feasible now: one timing is enough, and nothing was rejected
                times.append(perf_counter() - start)
                required, outcome = 0, "solved"
                break
        metrics[f"compress.reject_required_n{n}d{d}"] = (required, "count")
        outcomes[f"n{n}d{d}"] = {"outcome": outcome, "median_s": median(times)}
        if outcome != "solved":
            rejections.append(median(times))
    # a solved size leaves this median; its time is in the info line only
    metrics["compress.reject_s"] = (median(rejections) if rejections else 0.0, "s")
    return metrics, outcomes


def set_up(workload, workdir: Path, tracer: Tracer | None):
    """Fresh import, instance pools and files, one warm-up operation per shape."""
    lib = import_program()
    if tracer:
        tracer.attach(lib)
        tracer.op = "setup"
        tracer.enable()
    try:
        workdir.mkdir(parents=True)
        pools = build_instances(lib, workload, workdir)
        for pool in pools.values():
            try:
                operate(lib, workload, pool[0])
            except Exception:
                pass  # a failing operation is counted in the timed phase
    finally:
        if tracer:
            tracer.disable()
    return lib, pools


def one_operation(lib, workload, inst, digests, certified, cal, tracer=None):
    """Time one operation, run its CLI check (traced when ``tracer`` is
    given), then certify it untimed. Returns ((wall-clock seconds,
    reference seconds), problem or None)."""
    # a new result file, as on a first run of the CLI: rewriting an existing
    # one makes ext4 flush it on close, which stalled operations by up to 30 ms
    with suppress(FileNotFoundError):
        os.remove(inst.result)
    if tracer:
        tracer.enable()
    try:
        mark = cal.mark()
        try:
            result = operate(lib, workload, inst)
        finally:
            elapsed = cal.timed(mark)
        verified = follow_up(lib, workload, inst, result)
    except Exception as exc:  # a failing operation counts against the program
        return elapsed, f"raised {exc!r}"
    finally:
        if tracer:
            tracer.disable()
    try:
        return elapsed, certify(lib, workload, inst, result, verified, digests, certified)
    except Exception as exc:
        return elapsed, f"certification raised {exc!r}"


def spread(values: list[float]) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def run(args: argparse.Namespace):
    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    if reference["params"][workload.name] != workload.describe():
        raise SystemExit("reference.json was made for other workload parameters")
    digests = reference["digests"][workload.name]

    tracer = Tracer() if args.trace else None
    workdir = RUN_DIR / f"work-{workload.name}-{os.getpid()}"
    setup_times, latencies, traced_latencies, plain_latencies = [], [], [], []
    failures, certified, traced_ops = [], set(), set()
    items, result_bytes = [0, 0, 0], 0
    with Calibration(workload.digits) as cal:
        try:
            for _ in range(SETUPS):
                shutil.rmtree(workdir, ignore_errors=True)
                mark = cal.mark()
                lib, pools = set_up(workload, workdir, tracer)
                setup_times.append(cal.timed(mark))

            planned = {shape: items_planned(lib, *shape) for shape in pools}
            order = schedule(workload, args.seed)
            busy, wall_limit = 0.0, perf_counter() + 2 * args.seconds + 30
            while busy < args.seconds and perf_counter() < wall_limit:
                shape, index = next(order)
                inst = pools[shape][index]
                op = len(latencies)
                traced = tracer is not None and op % 2 == 0
                if traced:
                    tracer.op = op
                elapsed, problem = one_operation(
                    lib, workload, inst, digests, certified, cal, tracer if traced else None
                )
                busy += elapsed[0]
                latencies.append(elapsed)
                if problem:
                    failures.append(f"n={inst.n} d={inst.d} #{inst.index}: {problem}")
                if traced:
                    traced_latencies.append(elapsed[0])
                    traced_ops.add(op)
                    items = [a + b for a, b in zip(items, planned[shape])]
                    if os.path.exists(inst.result):
                        result_bytes += os.path.getsize(inst.result)
                else:
                    plain_latencies.append(elapsed[0])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(latencies)
    completed = attempted - len(failures)
    # wall-clock and reference seconds per operation, and per set-up
    wall, times = [t[0] for t in latencies], [t[1] for t in latencies]
    setups = [t[1] for t in setup_times]
    percentile, tail_value = tail(times)
    witness_bits = sorted(
        max(inst.hidden.public.y).bit_length() for pool in pools.values() for inst in pool
    )
    moved = spread(cal.samples)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loop": "closed, one client, one process",
        "mix": [{"n": n, "d": d, "weight": w} for n, d, w in workload.shapes],
        "operation": "cli compress + cli verify" if workload.cli else "library compress",
        "instances": {"pool_per_shape": workload.pool, "distinct": sum(map(len, pools.values()))},
        "witness_bits": {"median": median(witness_bits), "max": witness_bits[-1]},
        "attempted": attempted,
        "failed": len(failures),
        "fail_rate": len(failures) / attempted,
        "failures": failures[:5],
        "busy_s": busy,
        "tail_percentile": percentile,
        "tail_samples": attempted,
        "calibration": {
            "median_s": median(cal.samples),
            "reference_s": cal.reference_s,
            "samples": len(cal.samples),
            "spread": moved,
            # wall-clock times of two runs compare only if both are steady
            # and their calibration medians agree within the bound
            "steady": moved <= STEADY,
        },
        "wall_clock": {
            "latency_p50_s": median(wall),
            "latency_tail_s": tail(wall)[1],
            "throughput_ops_s": completed / busy,
            "setup_s": median(t[0] for t in setup_times),
        },
        "setups_s": setups,
    }

    if not tracer:
        metrics = {
            "latency_p50_s": median(times),
            "latency_tail_s": tail_value,
            "throughput_ops_s": completed / sum(times),
            "setup_s": median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    else:
        metrics = layer_report(
            lib, tracer, traced_ops, items, result_bytes, traced_latencies, plain_latencies, info
        )
    return info, metrics, latencies, tracer


def layer_report(lib, tracer, traced_ops, items, result_bytes, traced_latencies, plain_latencies, info) -> dict:
    n_ops = len(traced_ops)
    spans = tracer.spans
    metrics = {k: (v, "s") for k, v in layer_metrics(spans, traced_ops, n_ops).items()}
    top, second, rest = (v / n_ops for v in items)
    compress_s = metrics["compress.total_s"][0]
    metrics.update({
        "compress.items_planned": (top + second + rest, "count"),
        "compress.items_planned_top": (top, "count"),
        "compress.items_planned_second": (second, "count"),
        "compress.items_planned_rest": (rest, "count"),
        "compress.items_per_s": ((top + second + rest) / compress_s, "1/s"),
    })
    vectors = sum(
        (2 * s[ATTR][1] + 1) ** s[ATTR][0]
        for s in spans
        if s[NAME] == "verify.cone_membership" and s[OP] in traced_ops
    )
    generate_ns = sum(
        s[END] - s[START] for s in spans if s[NAME] == "generate.generate" and s[OP] == "setup"
    ) / SETUPS
    traced_p50 = median(traced_latencies)
    untraced_p50 = median(plain_latencies) if plain_latencies else traced_p50
    metrics.update({
        "verify.membership_vectors": (vectors / n_ops, "count"),
        "io.result_bytes": (result_bytes / n_ops, "bytes"),
        "generate.s": (generate_ns / 1e9, "s"),
        "trace.latency_p50_s": (traced_p50, "s"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
    })
    probe_metrics, outcomes = probe(lib)
    metrics.update(probe_metrics)
    info["traced_ops"] = n_ops
    info["spans"] = len(spans)
    info["probe"] = outcomes
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        info, metrics, latencies, tracer = run(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    RUN_DIR.mkdir(exist_ok=True)
    record = {"info": info, "metrics": metrics, "latencies_s": latencies}
    if tracer:
        record["spans"] = tracer.spans
    record_path = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record) + "\n")

    print(f"workload {info['workload']}, seed {args.seed}, trace {args.trace}: "
          f"{info['attempted']} operations, {info['busy_s']:.3f} s busy")
    if not tracer:
        print(f"  fail_rate         {info['fail_rate']:.6g} ({info['failed']}/{info['attempted']})")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "latency_tail_s":
            extra = f" (p{info['tail_percentile']:.1f} of {info['tail_samples']} samples)"
        print(f"  {name:<30} {value:.6g} {unit}{extra}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
