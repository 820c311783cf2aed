"""The names and argument positions the benchmark's tracer relies on.

perfbench/spans.py wraps the package functions listed in its ``TRACED``
table by name and reads some of their arguments by position. Renaming or
deleting one of them, or reordering those parameters, breaks the traced
benchmark run without breaking any other test.
"""

import importlib
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans() -> dict:
    """Run spans.py from its source, so no bytecode cache is written there."""
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return namespace


TRACED = _load_spans()["TRACED"]


@pytest.mark.parametrize(
    "layer,name",
    [(layer, name) for layer, name, _ in TRACED],
    ids=[f"{layer}.{name}" for layer, name, _ in TRACED],
)
def test_traced_function_exists(layer, name):
    module = importlib.import_module(f"conecompress.{layer}")
    assert callable(getattr(module, name, None))


@pytest.mark.parametrize(
    "layer,name,first,third",
    [("compress", "step", "level", "witness"), ("verify", "cone_membership", "x", "d")],
)
def test_positional_arguments_the_tracer_reads(layer, name, first, third):
    fn = getattr(importlib.import_module(f"conecompress.{layer}"), name)
    params = list(inspect.signature(fn).parameters)
    assert (params[0], params[2]) == (first, third)
