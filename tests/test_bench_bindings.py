"""The benchmark tracer (perfbench/tracer.py) wraps package functions by
name; every name it lists must exist, so that renaming or deleting a traced
function fails here and not only in the benchmark's smoke run.  The tracer
is read as source and executed in a fresh namespace: nothing is patched and
no bytecode is written next to it."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    mod = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         mod.__dict__)
    return mod


tracer = _tracer()


def _target(module: str, attr: str):
    """The function the tracer would wrap, found as the tracer finds it."""
    mod = importlib.import_module("deligne_kit." + module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(mod, cls_name))[meth]
    return getattr(mod, attr)


@pytest.mark.parametrize("name, module, attr",
                         tracer.SPANS + tracer.COUNTERS,
                         ids=[s[0] for s in tracer.SPANS + tracer.COUNTERS])
def test_traced_function_exists(name, module, attr):
    assert callable(_target(module, attr))


@pytest.mark.parametrize("prefix, attr, pos", tracer.KEYED_SPANS,
                         ids=[s[0] for s in tracer.KEYED_SPANS])
def test_keyed_span_finds_its_task_argument(prefix, attr, pos):
    params = list(inspect.signature(_target("tasks", attr)).parameters)
    assert params[pos] == "task"
