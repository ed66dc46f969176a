"""Span recorder for the traced benchmark run.

Spans are recorded around calls into the library's layers, from the
benchmark's own files: the benchmark opens spans around the calls it makes,
and a `Rebinding` replaces the names one library module imports from the
next with `Tracer.wrap`ped ones, so calls made inside the library are seen
too. Spans stay in memory and are written out when the run ends.

The untraced run uses `NULL_TRACER`, whose spans are no-ops, so end-to-end
timings carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None  # id of the enclosing span, None for a root
    op: int  # operation the span belongs to (root spans open one)


class Tracer:
    """Records nested spans of one thread; never used concurrently."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ops = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._ops += 1
        sp = Span(
            len(self.spans),
            name,
            time.perf_counter(),
            0.0,
            parent.id if parent else None,
            parent.op if parent else self._ops,
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.__dict__) + "\n")


class _NullTracer:
    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, name: str, fn):
        return fn


NULL_TRACER = _NullTracer()


class Rebinding:
    """Rebinds module attributes for the length of a `with` block."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, make):
        """Replace `module.attr` by `make(original)`."""
        original = getattr(module, attr)
        self._undo.append((module, attr, original))
        setattr(module, attr, make(original))

    def observe(self, module, attr: str, callback):
        """Call `callback(args, result)` after each call of `module.attr`."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                callback(args, result)
                return result

            return wrapper

        self.wrap(module, attr, make)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children are disjoint and nested inside
    their parent; subtracting their durations leaves the parent's own time.
    """
    own = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            own[sp.parent] -= sp.end - sp.start
    return own


def totals_by_name(spans: list[Span]) -> dict[str, LayerTotals]:
    own = self_times(spans)
    out: dict[str, LayerTotals] = {}
    for sp, own_s in zip(spans, own):
        t = out.setdefault(sp.name, LayerTotals())
        t.calls += 1
        t.total_s += sp.end - sp.start
        t.self_s += own_s
    return out
