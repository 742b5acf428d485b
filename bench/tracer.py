"""In-memory spans around calls into the mgsched modules.

The tracer replaces module attributes with timing wrappers from outside the
program; nothing under ``src/`` knows about it.  A wrapper whose target no
longer exists is recorded as absent instead of failing the run, so a later
change that removes or renames a function only loses that function's metrics.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "error")

    def __init__(self, name: str, layer: str, start: float, parent: int):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "layer": self.layer, "start": self.start, "end": self.end,
                "parent": self.parent, "error": self.error}


class Tracer:
    """Spans (name, layer, start, end, parent index) and counters, kept in
    memory until :meth:`restore`; one tracer covers one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _target(self, module, attr: str):
        target = getattr(module, attr, None)
        if not callable(target):
            self.absent[f"{module.__name__}.{attr}"] = "no such callable in this version"
            return None
        return target

    def wrap(self, module, attr: str, layer: str, after=None) -> bool:
        """Record a span named ``attr`` around every call of ``module.attr``.

        ``after(tracer, args, result)`` runs on each successful return and
        adds counters measured where the work happens.
        """
        target = self._target(module, attr)
        if target is None:
            return False

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(attr, layer, perf_counter(), self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = target(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, target))
        return True

    def count_calls(self, module, attr: str, counter: str) -> bool:
        """Count calls of ``module.attr`` without a span (for hot leaf calls)."""
        target = self._target(module, attr)
        if target is None:
            return False
        counts = self.counts

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return target(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, target))
        return True

    def restore(self) -> None:
        for module, attr, target in reversed(self._patched):
            setattr(module, attr, target)
        self._patched.clear()

    # -- aggregation -----------------------------------------------------

    def wrapped(self, module_name: str, attr: str) -> bool:
        return f"{module_name}.{attr}" not in self.absent

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.spans if span.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def self_time(self, names) -> float:
        """Duration of the named spans minus the part their direct child
        spans cover."""
        names = set(names)
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        return sum(span.duration - child_time[i] for i, span in enumerate(self.spans) if span.name in names)

    def children_errors(self, parent_name: str) -> int:
        """Spans that raised while directly inside a span named ``parent_name``."""
        return sum(
            1 for span in self.spans
            if span.error is not None and span.parent >= 0 and self.spans[span.parent].name == parent_name
        )
