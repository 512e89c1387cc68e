"""In-memory span tracing of the program's public methods.

A traced instance patches the public methods of the program's layer
classes (and of the benchmark's own load driver) for the duration of one
instance, *before* the stack is built, so every object the build wires
together -- including bound methods captured at construction, such as the
buffer pool's flush planner -- records spans.  Each span records its
name, start, end, the span open when it began (its parent) and the
``Request.seq`` of the device request it serves, if any.

Methods that return storage programs (generators) are timed on each
resume: a span opens when the consumer sends into the program and closes
when the program yields its next command, so the waits between resumes
are charged to whoever ran in between.

A layer's self time is the duration of its spans minus the time their
child spans cover; traced time that no span covers is the remainder.
Layer self times plus the remainder add up to the traced time.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

__all__ = ["Tracer", "LAYERS"]

#: Every layer a span name may start with, in report order, then the
#: remainder line for traced time outside any span.
LAYERS = (
    "session", "flash", "ftl", "core", "storage", "hostq", "workloads",
    "harness",
)

_START, _END, _PARENT, _SEQ, _NAME = range(5)


class Tracer:
    """Collects spans in memory; patches and restores traced classes."""

    def __init__(self, request_type: type) -> None:
        #: A span whose request argument has this type carries its ``seq``.
        self._request_type = request_type
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: ``(start, end)`` of each traced interval (set-up, run).
        self.windows: list[tuple[float, float]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            if name.split(".", 1)[0] not in LAYERS:
                raise ValueError(f"span {name!r} names no known layer")
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return name_id

    def _open(self, name_id: int, seq: int) -> int:
        stack = self._stack
        parent = stack[-1] if stack else -1
        if seq < 0 and parent >= 0:
            seq = self.spans[parent][_SEQ]
        index = len(self.spans)
        self.spans.append([time.perf_counter(), 0.0, parent, seq, name_id])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        index = self._open(self._name_id(name), -1)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def window_timer(self):
        """Marks one traced interval of the instance (its set-up or run)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.windows.append((start, time.perf_counter()))

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _wrap(self, name: str, function, request_arg: int = 1):
        name_id = self._name_id(name)
        request_type = self._request_type
        opened, closed = self._open, self._close

        if inspect.isgeneratorfunction(function):

            def resumes(program):
                value = None
                while True:
                    index = opened(name_id, -1)
                    try:
                        item = program.send(value)
                    except StopIteration as stop:
                        closed(index)
                        return stop.value
                    except BaseException:
                        closed(index)
                        raise
                    closed(index)
                    value = yield item

            @wraps(function)
            def program_wrapper(*args, **kwargs):
                return resumes(function(*args, **kwargs))

            return program_wrapper

        @wraps(function)
        def wrapper(*args, **kwargs):
            seq = -1
            if len(args) > request_arg and type(args[request_arg]) is request_type:
                seq = args[request_arg].seq
            index = opened(name_id, seq)
            try:
                return function(*args, **kwargs)
            finally:
                closed(index)

        return wrapper

    @contextmanager
    def patched(self, targets):
        """Wrap ``(layer, class, method names)`` targets; restore on exit."""
        saved = []
        try:
            for layer, cls, names in targets:
                for method in names:
                    original = cls.__dict__[method]
                    saved.append((cls, method, original))
                    span_name = f"{layer}.{cls.__name__}.{method}"
                    setattr(cls, method, self._wrap(span_name, original))
            yield self
        finally:
            for cls, method, original in reversed(saved):
                setattr(cls, method, original)

    def wrap_callable(self, name: str, function):
        """A traced version of one plain callable (not a method)."""
        return self._wrap(name, function, request_arg=0)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Host self seconds per layer, plus the ``remainder``.

        Spans open only inside the traced intervals, so the layers plus
        the remainder add up to the intervals' total.
        """
        spans = self.spans
        if self._stack:
            raise RuntimeError("self_times with spans still open")
        child = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        totals = {layer: 0.0 for layer in LAYERS}
        top = 0.0
        for index, span in enumerate(spans):
            duration = span[_END] - span[_START]
            layer = self._names[span[_NAME]].split(".", 1)[0]
            totals[layer] += duration - child[index]
            if span[_PARENT] < 0:
                top += duration
        totals["remainder"] = sum(end - start for start, end in self.windows) - top
        return totals

    def counts(self) -> dict[str, int]:
        """Number of spans recorded per span name."""
        result = {name: 0 for name in self._names}
        for span in self.spans:
            result[self._names[span[_NAME]]] += 1
        return result

    def write_tsv(self, path: Path) -> None:
        """Write every span, one tab-separated line each.

        The first line is a JSON list of span names; each span line holds
        its parent's line index (or -1), its name's index in that list,
        start and end in nanoseconds from the first traced interval, and
        the request ``seq`` (or -1).  Span ``i`` is data line ``i``.
        """
        origin = self.windows[0][0]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(self._names) + "\n")
            for start, end, parent, seq, name_id in self.spans:
                out.write(
                    f"{parent}\t{name_id}\t{round((start - origin) * 1e9)}"
                    f"\t{round((end - origin) * 1e9)}\t{seq}\n"
                )
