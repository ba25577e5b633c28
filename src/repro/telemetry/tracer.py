"""Recording spans and events: ``trace()``, ``emit_event()``, two consumers.

Usage in instrumented code, from any module::

    from repro.telemetry import emit_event, trace

    with trace("tt.forward.segment_gemm", core=k):
        res = np.matmul(...)
    emit_event("cache.repair", module=name, rows=3)

A span records into whichever consumers are listening when it is opened:

- the **aggregate tree** (:class:`Tracer`, on between
  :func:`enable_tracing` and :func:`disable_tracing`) times it with
  ``perf_counter_ns`` and folds the duration into count/total/min/max
  statistics keyed by the span's position under its parent — "where does
  time go on average", with no unbounded span list;
- the **telemetry stream** (:class:`RequestTracer`) explains one slow
  request: a :class:`TraceContext` started at admission follows a sampled
  request through queue and ladder down into the ``tt.*`` kernel spans.
  Every span is written once, when it closes, as one ``repro.trace/v1``
  JSONL record (:mod:`repro.telemetry.trace_reader` reads it back), and
  handed to the flight recorder's ring. The serving path is
  single-threaded, so no context is threaded through the layers:
  ``RequestTracer.scope(ctxs)`` activates the sampled requests of the
  batch being served, and every span opened inside it lands in each of
  them.

An event is a span that closes the moment it opens: :func:`emit_event`
writes a zero-duration ``event:<type>`` record under the innermost open
span of each active trace, or — outside every sampled request — one
record with ``trace_id`` and ``parent_id`` null.

With neither listening (the default) ``trace()`` costs one call, two
truth tests and a shared no-op context manager, which the overhead-guard
test bounds at <5% of a small training run; with only the aggregate tree
listening the request clock is never read. ``emit_event`` is as free
while no stream file, flight recorder or sampled request listens.

Request-trace ids carry no entropy of their own: trace ids are
splitmix64 hashes of ``(seed, request_id)`` and span ids are per-trace
open-order counters (a stream-wide counter for trace-less events).
Timestamps come from the clock given to :meth:`RequestTracer.configure`;
the CLI passes ``monotonic_ms``, so records carry real ``perf_counter``
milliseconds and differ from run to run. Aggregate-tree nodes are named
by dotted path plus bracketed attributes
(``tt.forward.segment_gemm[core=1]``); stream records keep ``attrs``
apart (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import json
import os
from time import perf_counter_ns

from repro.telemetry.events import _json_safe
from repro.telemetry.flightrec import get_flight_recorder
from repro.telemetry.trace_reader import TRACE_SCHEMA

__all__ = [
    "SpanNode",
    "Tracer",
    "TraceContext",
    "RequestTracer",
    "trace",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "get_request_tracer",
    "annotate_span",
    "emit_event",
    "finish_request",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """The admission sanitizer's mixer: deterministic 64-bit avalanche."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


# ---------------------------------------------------------------------- #
# Consumer 1: the aggregate tree
# ---------------------------------------------------------------------- #

class SpanNode:
    """Aggregated statistics for one span position in the tree."""

    __slots__ = ("name", "count", "total_ns", "min_ns", "max_ns", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_ns = 0
        self.min_ns: int | None = None
        self.max_ns = 0
        self.children: dict[str, SpanNode] = {}

    def record(self, elapsed_ns: int) -> None:
        self.count += 1
        self.total_ns += elapsed_ns
        if self.min_ns is None or elapsed_ns < self.min_ns:
            self.min_ns = elapsed_ns
        if elapsed_ns > self.max_ns:
            self.max_ns = elapsed_ns

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    @property
    def self_ns(self) -> int:
        """Time spent here and in no child span (derived, never recorded)."""
        return self.total_ns - sum(c.total_ns for c in self.children.values())

    def as_dict(self) -> dict:
        """JSON-ready nested summary (times in nanoseconds)."""
        out = {
            "count": self.count,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
        }
        if self.children:
            out["children"] = {
                name: node.as_dict() for name, node in self.children.items()
            }
        return out


def _span_name(name: str, attrs: dict) -> str:
    if not attrs:
        return name
    inner = ",".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    return f"{name}[{inner}]"


class Tracer:
    """Owner of the aggregate span tree and its enabled flag.

    A tracer is single-threaded by design (the whole package is); the
    active-span stack is a plain list rooted at a synthetic node whose
    children are the top-level spans.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.root = SpanNode("<root>")
        self._stack: list[SpanNode] = [self.root]

    # ------------------------------------------------------------------ #

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded spans (keeps the enabled flag)."""
        self.root = SpanNode("<root>")
        self._stack = [self.root]

    @property
    def depth(self) -> int:
        """Nesting depth of the currently-open span (0 = no open span)."""
        return len(self._stack) - 1

    def total_spans(self) -> int:
        def walk(node: SpanNode) -> int:
            return node.count + sum(walk(c) for c in node.children.values())

        return walk(self.root)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def tree_dict(self) -> dict:
        """JSON-ready nested aggregate of every recorded span."""
        return {name: node.as_dict() for name, node in self.root.children.items()}

    def format_tree(self, *, min_total_ms: float = 0.0) -> str:
        """Human-readable indented span tree with per-node timing."""
        lines = [
            f"{'span':<46} {'count':>7} {'total ms':>10} {'self ms':>10} "
            f"{'mean us':>10}"
        ]
        lines.append("-" * len(lines[0]))

        def walk(node: SpanNode, depth: int) -> None:
            total_ms = node.total_ns / 1e6
            if total_ms < min_total_ms:
                return
            mean_us = node.total_ns / node.count / 1e3 if node.count else 0.0
            label = ("  " * depth) + node.name
            lines.append(
                f"{label:<46} {node.count:>7} {total_ms:>10.3f} "
                f"{node.self_ns / 1e6:>10.3f} {mean_us:>10.1f}"
            )
            for child in node.children.values():
                walk(child, depth + 1)

        for top in self.root.children.values():
            walk(top, 0)
        if len(lines) == 2:
            lines.append("(no spans recorded — is tracing enabled?)")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Consumer 2: the telemetry stream (per-request traces and events)
# ---------------------------------------------------------------------- #

class TraceContext:
    """One live request trace: its id, root span and open-span stack.

    Each span is handed to ``write`` (the stream) once, when it closes.
    """

    __slots__ = ("trace_id", "request_id", "root", "_stack", "_next_id",
                 "_write")

    def __init__(self, trace_id: str, request_id: int, write, now: float):
        self.trace_id = trace_id
        self.request_id = request_id
        self._stack: list[dict] = []
        self._next_id = 1
        self._write = write
        self.root = self.open_span("request", {"request_id": request_id},
                                   now)

    # ------------------------------------------------------------------ #

    def _make(self, name: str, attrs: dict | None, start: float,
              end: float) -> dict:
        rec = {
            "span_id": self._next_id,
            "parent_id": self._stack[-1]["span_id"] if self._stack else None,
            "name": name,
            "start_ms": float(start),
            "end_ms": float(end),
            "attrs": _json_safe(attrs) if attrs else {},
        }
        self._next_id += 1
        return rec

    def open_span(self, name: str, attrs: dict | None, now: float) -> dict:
        rec = self._make(name, attrs, now, now)
        self._stack.append(rec)
        return rec

    def close_span(self, rec: dict, now: float) -> None:
        stack = self._stack
        if stack and stack[-1] is rec:
            stack.pop()
        elif rec in stack:  # unbalanced exit; keep the tree sane
            stack.remove(rec)
        else:  # already closed (and written) by close_all
            return
        rec["end_ms"] = float(now)
        self._write(self.trace_id, rec)

    def record_span(self, name: str, start_ms: float, end_ms: float,
                    attrs: dict | None = None) -> None:
        """A span that is already closed: ``queue.wait``, an event."""
        self._write(self.trace_id, self._make(name, attrs, start_ms, end_ms))

    def annotate(self, attrs: dict) -> None:
        """Merge attributes into the innermost open span."""
        if self._stack:
            self._stack[-1]["attrs"].update(_json_safe(attrs))

    def close_all(self, now: float) -> None:
        while self._stack:
            self.close_span(self._stack[-1], now)


class RequestTracer:
    """Process-wide owner of the telemetry stream: request-trace
    sampling, scopes, and the JSONL file.

    Off until :meth:`configure` is called (``enabled`` False, every
    entry point an early-out); :meth:`shutdown` returns it to that
    state and closes the file.
    """

    def __init__(self):
        self._sample = 0
        self._seed_mix = 0
        self._clock = None
        self._fh = None
        self.path: str | None = None
        self._active: list[TraceContext] = []
        self._event_id = 0  # span ids of trace-less event records
        self.started = 0
        self.finished = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def enabled(self) -> bool:
        return self._sample > 0

    def configure(self, *, sample_every: int = 1,
                  path: str | os.PathLike | None = None,
                  clock=None, seed: int = 0) -> None:
        """Open the stream: trace every Nth request id, write JSONL.

        ``sample_every=0`` traces no request, so the stream holds events
        only. ``clock`` is any millisecond callable, normally the
        server's ``monotonic_ms``; with none, every timestamp is 0.0.
        The output file is truncated, so a rerun never appends to an
        old one.
        """
        if sample_every < 0:
            raise ValueError(
                f"sample_every must be >= 0, got {sample_every}"
            )
        self.shutdown()
        self._sample = sample_every
        self._seed_mix = _splitmix64(seed & _MASK64)
        self._clock = clock
        if path is not None:
            self.path = os.fspath(path)
            self._fh = open(self.path, "w", buffering=1)  # line-buffered

    def shutdown(self) -> None:
        """Disable tracing, close the file, drop any dangling scopes."""
        if self._fh is not None:
            self._fh.close()
        self._fh = None
        self.path = None
        self._sample = 0
        self._clock = None
        self._event_id = 0
        self._active = []

    def _now(self) -> float:
        clock = self._clock
        return float(clock()) if clock is not None else 0.0

    def _write(self, trace_id: str | None, rec: dict) -> None:
        """Append one closed span to the stream: the file and the
        flight recorder's ring, whichever are there."""
        line = {"schema": TRACE_SCHEMA, "trace_id": trace_id, **rec}
        if self._fh is not None:
            self._fh.write(json.dumps(line, sort_keys=True) + "\n")
        recorder = get_flight_recorder()
        if recorder is not None:
            recorder.record(line)

    # ------------------------------------------------------------------ #
    # Trace lifecycle
    # ------------------------------------------------------------------ #

    def maybe_start(self, request_id: int,
                    now: float | None = None) -> TraceContext | None:
        """Start a trace when the request id is sampled, else ``None``."""
        if (not self._sample or request_id is None
                or request_id % self._sample):
            return None
        trace_id = format(
            _splitmix64(self._seed_mix ^ (request_id & _MASK64)), "016x"
        )
        self.started += 1
        return TraceContext(trace_id, request_id, self._write,
                            self._now() if now is None else now)

    def finish(self, ctx: TraceContext | None, status: str, *,
               now: float | None = None, **attrs) -> None:
        """Close a trace: the root span gets ``status`` + attrs and
        closes last."""
        if ctx is None:
            return
        ctx.root["attrs"].update(_json_safe({"status": status, **attrs}))
        ctx.close_all(self._now() if now is None else float(now))
        self.finished += 1

    # ------------------------------------------------------------------ #
    # Scopes (the propagation mechanism)
    # ------------------------------------------------------------------ #

    def scope(self, ctxs) -> "_Scope | _NoopSpan":
        """Activate contexts for the dynamic extent of a ``with`` block."""
        live = [c for c in ctxs if c is not None]
        return _Scope(self, live) if live else _NOOP


# ---------------------------------------------------------------------- #
# The entry points: trace() and emit_event()
# ---------------------------------------------------------------------- #

class _NoopSpan:
    """Shared do-nothing context manager: a span or scope nobody consumes."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()
_TRACER = Tracer()
_REQUEST_TRACER = RequestTracer()


class _Scope:
    __slots__ = ("rt", "ctxs", "_outer")

    def __init__(self, rt: RequestTracer, ctxs: list[TraceContext]):
        self.rt = rt
        self.ctxs = ctxs

    def __enter__(self):
        self._outer = self.rt._active
        self.rt._active = self.ctxs
        return self

    def __exit__(self, *exc):
        # A shutdown() inside the block already dropped every scope.
        self.rt._active = self._outer if self.rt.enabled else []
        return False


class _Span:
    """One open span, recorded into the consumers listening at entry."""

    __slots__ = ("name", "attrs", "_recs", "_start_ns")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        rt = _REQUEST_TRACER
        self._recs = self._start_ns = None
        if rt._active:
            now = rt._now()
            self._recs = [(ctx, ctx.open_span(self.name, self.attrs, now))
                          for ctx in rt._active]
        if _TRACER.enabled:
            stack = _TRACER._stack
            stack.append(stack[-1].child(_span_name(self.name, self.attrs)))
            self._start_ns = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        start_ns = self._start_ns
        if start_ns is not None:
            elapsed = perf_counter_ns() - start_ns
            _TRACER._stack.pop().record(elapsed)
        if self._recs is not None:
            now = _REQUEST_TRACER._now()
            for ctx, rec in self._recs:
                ctx.close_span(rec, now)
        return False


def trace(name: str, **attrs) -> _Span | _NoopSpan:
    """Open a span in every listening consumer (no-op when none is)."""
    if _REQUEST_TRACER._active or _TRACER.enabled:
        return _Span(name, attrs)
    return _NOOP


def get_tracer() -> Tracer:
    """The process-wide aggregate tracer all components share."""
    return _TRACER


def enable_tracing() -> None:
    _TRACER.enable()


def disable_tracing() -> None:
    _TRACER.disable()


def get_request_tracer() -> RequestTracer:
    """The process-wide request tracer (off until configured)."""
    return _REQUEST_TRACER


def annotate_span(**attrs) -> None:
    """Add attributes to the innermost open span of every active trace."""
    for ctx in _REQUEST_TRACER._active:
        ctx.annotate(attrs)


def emit_event(etype: str, /, **data) -> None:
    """Write a discrete event to the stream; free while nothing listens.

    Inside a sampled request each active trace gets one zero-duration
    ``event:<type>`` record under its innermost open span; outside one,
    the event is a single record with ``trace_id`` and ``parent_id``
    null. The flight recorder then checks its trigger once. ``etype``
    is positional-only, so no payload key can collide with it.
    """
    rt = _REQUEST_TRACER
    recorder = get_flight_recorder()
    if not rt._active and rt._fh is None and recorder is None:
        return
    name, now = f"event:{etype}", rt._now()
    if rt._active:
        for ctx in rt._active:
            ctx.record_span(name, now, now, data)
    else:
        rt._event_id += 1
        rt._write(None, {"span_id": rt._event_id, "parent_id": None,
                         "name": name, "start_ms": now, "end_ms": now,
                         "attrs": _json_safe(data)})
    if recorder is not None:
        recorder.check_trigger(etype, data)


def finish_request(req, status: str, *, now: float | None = None,
                   **attrs) -> None:
    """Finish the trace attached to a request object (if it has one)."""
    ctx = getattr(req, "trace_ctx", None)
    if ctx is not None:
        req.trace_ctx = None
        _REQUEST_TRACER.finish(ctx, status, now=now, **attrs)
