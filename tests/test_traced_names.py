"""The benchmark tracer wraps names of the package by their owner's
``__dict__``; every name it pins must still be there."""

import pathlib
import types

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    # compiled from its source, so importing it writes nothing next to it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing_module()
    assert tracing.TARGETS
    for owner, attr, _ in tracing.TARGETS:
        obj = tracing.resolve_owner(owner)
        assert attr in vars(obj), f"{owner} has no {attr} of its own"
        assert callable(vars(obj)[attr]), f"{owner}.{attr} is not callable"
