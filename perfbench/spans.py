"""In-memory spans around calls into conecompress, recorded from outside.

The benchmark does not change the program to trace it. It replaces the
public functions listed in ``TRACED`` with wrappers, in every module of
the package that binds them (``from .model import validate`` gives the
``compress`` module its own name for the same function), so each call
records one span: name, start, end, parent span and operation id. Spans
stay in memory and are written out when the run ends.

Functions called once per enumerated vector (``best_head_coefficient``,
``Constraint.dot``) are left unwrapped: a span per item would cost more
than the work it measures.
"""

from __future__ import annotations

from time import perf_counter_ns


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _step_attr(args, kwargs):
    """(level, n) of a ``step(level, d, witness, tail, budget)`` call."""
    return _arg(args, kwargs, 0, "level"), _arg(args, kwargs, 2, "witness").n


def _membership_attr(args, kwargs):
    """(n, d) of a ``cone_membership(x, witness, d, budget)`` call."""
    return len(_arg(args, kwargs, 0, "x")), _arg(args, kwargs, 2, "d")


# (module, function, attribute recorder or None)
TRACED = (
    ("model", "validate", None),
    ("compress", "compress", None),
    ("compress", "step", _step_attr),
    ("compress", "tightest_upper", None),
    ("compress", "tightest_lower", None),
    ("verify", "cone_membership", _membership_attr),
    ("verify", "matrix_check", None),
    ("verify", "bound_check", None),
    ("io", "read_json", None),
    ("io", "write_json", None),
    ("io", "decode_instance", None),
    ("io", "decode_x_file", None),
    ("io", "decode_result", None),
    ("io", "encode_result", None),
    ("cli", "main", None),
    ("generate", "generate", None),
)

# span fields
NAME, START, END, PARENT, OP, ATTR = range(6)


class Tracer:
    """Span recorder whose wrappers are patched in only while enabled."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: object = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def attach(self, modules: dict) -> None:
        """Build wrappers for a freshly imported package (see ``TRACED``)."""
        self.disable()
        self._patches = []
        for layer, fname, attr in TRACED:
            raw = getattr(modules[layer], fname)
            wrapped = self._wrap(f"{layer}.{fname}", raw, attr)
            for module in modules.values():
                for key, value in vars(module).items():
                    if value is raw:
                        self._patches.append((module, key, raw, wrapped))

    def enable(self) -> None:
        for module, key, _, wrapped in self._patches:
            setattr(module, key, wrapped)

    def disable(self) -> None:
        for module, key, raw, _ in self._patches:
            setattr(module, key, raw)

    def _wrap(self, name, fn, attr):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [
                name,
                perf_counter_ns(),
                0,
                stack[-1] if stack else -1,
                self.op,
                attr(args, kwargs) if attr else None,
            ]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = perf_counter_ns()

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children (ns)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


# span name -> metric, by inclusive duration or by self time
INCLUSIVE = {
    "compress.compress": "compress.total_s",
    "compress.tightest_upper": "compress.upper_s",
    "compress.tightest_lower": "compress.lower_s",
    "model.validate": "model.validate_s",
    "verify.cone_membership": "verify.membership_s",
    "verify.matrix_check": "verify.matrix_s",
    "verify.bound_check": "verify.bound_s",
    "io.read_json": "io.read_s",
    "io.encode_result": "io.encode_s",
    "io.write_json": "io.write_s",
}
SELF = {
    "io.decode_instance": "io.decode_s",
    "io.decode_x_file": "io.decode_s",
    "io.decode_result": "io.decode_s",
    "cli.main": "cli.self_s",
}
LEVELS = ("compress.level_top_s", "compress.level_second_s", "compress.level_rest_s")
LAYER_KEYS = (*LEVELS, "compress.overhead_s", *INCLUSIVE.values(), "io.decode_s", "cli.self_s")


def layer_metrics(spans: list[list], ops: set, n_ops: int) -> dict[str, float]:
    """Per-operation seconds of each traced layer, over the spans of ``ops``.

    ``compress.level_*`` are whole ``step`` spans (the level's scans
    included), split by distance from the top level n-1.
    ``compress.overhead_s`` is ``compress`` minus its ``step`` children.
    ``cli.self_s`` and ``io.decode_s`` are self times, so the decoders'
    ``validate`` children count only in ``model.validate_s``.
    """
    own = self_times(spans)
    step_sum = [0] * len(spans)
    totals = dict.fromkeys(LAYER_KEYS, 0)
    for i, s in enumerate(spans):
        if s[OP] not in ops:
            continue
        name, dur = s[NAME], s[END] - s[START]
        if name == "compress.step":
            level, n = s[ATTR]
            totals[LEVELS[min(n - 1 - level, 2)]] += dur
            if s[PARENT] >= 0:
                step_sum[s[PARENT]] += dur
        elif name in INCLUSIVE:
            totals[INCLUSIVE[name]] += dur
        elif name in SELF:
            totals[SELF[name]] += own[i]
    for i, s in enumerate(spans):
        if s[OP] in ops and s[NAME] == "compress.compress":
            totals["compress.overhead_s"] += s[END] - s[START] - step_sum[i]
    per_op = max(n_ops, 1) * 1e9
    return {k: v / per_op for k, v in totals.items()}
