"""The benchmark tracer: spans, self time, counters, absent targets."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer  # noqa: E402


def fake_module():
    mod = types.ModuleType("fake")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    def outer(x):
        try:
            return mod.inner(x) * 2
        except ValueError:
            return mod.inner(-x) * 2

    mod.inner, mod.outer = inner, outer
    return mod


def test_spans_nest_and_count():
    mod = fake_module()
    originals = (mod.inner, mod.outer)
    tracer = Tracer()
    assert tracer.wrap(mod, "outer", "top")
    assert tracer.wrap(mod, "inner", "leaf", after=lambda t, args, result: t.counts.__setitem__("arg", args[0]))
    assert mod.outer(3) == 8
    assert [s.name for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1].parent == 0 and tracer.spans[0].parent == -1
    assert tracer.counts["arg"] == 3
    assert tracer.self_time(["outer"]) == pytest.approx(tracer.total("outer") - tracer.total("inner"))
    tracer.restore()
    assert (mod.inner, mod.outer) == originals


def test_errors_are_recorded_and_reraised():
    mod = fake_module()
    tracer = Tracer()
    tracer.wrap(mod, "outer", "top")
    tracer.wrap(mod, "inner", "leaf")
    assert mod.outer(-2) == 6  # the first inner call raised, the retry succeeded
    assert tracer.calls("inner") == 2
    assert tracer.children_errors("outer") == 1
    assert tracer.spans[1].error == "ValueError"


def test_missing_target_is_absent_not_an_error():
    mod = fake_module()
    tracer = Tracer()
    assert not tracer.wrap(mod, "removed_in_a_later_version", "top")
    assert not tracer.count_calls(mod, "also_gone", "n")
    assert not tracer.wrapped("fake", "removed_in_a_later_version")
    assert tracer.wrapped("fake", "outer")
    assert mod.outer(1) == 4
