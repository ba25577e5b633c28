"""In-memory span recorder built on *instance* method wrappers.

The benchmark records spans from its own files, around the calls into
each layer of ``repro`` (choosing-metrics section 4): ``Recorder.wrap``
replaces one attribute on one object with a timing closure and
``Recorder.remove`` puts every original back. Classes and module
globals are never touched, so an untraced run executes no benchmark
code inside the program at all.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``op`` the step, batch
or request id the loop set before the call. A span's self time is its
duration minus the durations of its direct children, so self times
summed over all spans equal the summed duration of the roots.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

TRACE_SCHEMA = "bench.e2e.trace/v1"
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op")


class NullRecorder:
    """What an untraced run passes to the loops: records nothing."""

    op = -1

    def span(self, name: str):
        return nullcontext()


class Recorder:
    """Collects spans from wrapped instance methods and manual scopes."""

    def __init__(self):
        self.spans: list = []
        self.op = -1  # set by the driving loop: step / batch / request id
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    # ------------------------------------------------------------------ #

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.op)

    @contextmanager
    def span(self, name: str):
        """Manual scope for the benchmark's own loops (section, idle)."""
        idx = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` as a span called ``name``."""
        original = getattr(obj, attr)
        was_instance_attr = attr in vars(obj)

        def timed(*args, **kwargs):
            idx = self._open()
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx, name, start)

        setattr(obj, attr, timed)
        self._installed.append((obj, attr, was_instance_attr, original))

    def remove(self) -> None:
        """Undo every ``wrap`` (idempotent), newest first."""
        while self._installed:
            obj, attr, was_instance_attr, original = self._installed.pop()
            if was_instance_attr:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

    # ------------------------------------------------------------------ #

    def fold(self) -> dict[str, dict]:
        """Per span name: ``count``, inclusive ``total_s`` and ``self_s``."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - children) / 1e9
        return out

    def write(self, path, **header) -> None:
        """Dump the spans with times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0
        doc = {
            "schema": TRACE_SCHEMA, **header, "fields": list(SPAN_FIELDS),
            "spans": [[n, s - t0, e - t0, p, op] for n, s, e, p, op in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
