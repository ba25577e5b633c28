"""Recording spans: one ``trace()``, two consumers.

Usage in instrumented code, from any module::

    from repro.telemetry import trace

    with trace("tt.forward.segment_gemm", core=k):
        res = np.matmul(...)

A span records into whichever consumers are listening when it is opened:

- the **aggregate tree** (:class:`Tracer`, on between
  :func:`enable_tracing` and :func:`disable_tracing`) times it with
  ``perf_counter_ns`` and folds the duration into count/total/min/max
  statistics keyed by the span's position under its parent — "where does
  time go on average", with no unbounded span list;
- the **request traces** (:class:`RequestTracer`) explain one slow
  request: a :class:`TraceContext` started at admission follows a sampled
  request through queue, router fan-out and ladder down into the ``tt.*``
  kernel spans, and is written one span per JSONL line
  (``repro.trace/v1``; :mod:`repro.telemetry.trace_reader` reads it
  back). The serving path is single-threaded, so no context is threaded
  through the layers: ``RequestTracer.scope(ctxs)`` activates the sampled
  requests of the batch being served, and every span opened — and every
  :func:`~repro.telemetry.events.emit_event` made — inside it lands in
  each of them.

With neither listening (the default) ``trace()`` costs one call, two
truth tests and a shared no-op context manager, which the overhead-guard
test bounds at <5% of a small training run; with only the aggregate tree
listening the request clock is never read.

Request traces add no nondeterminism of their own: trace ids are
splitmix64 hashes of ``(seed, request_id)`` — no ambient entropy — span
ids are per-trace open-order counters, and timestamps are the run's
:class:`~repro.serving.queue.ManualClock` (simulated ms), never
``perf_counter``. A trace file repeats byte for byte only as far as that
clock does; ``serve-bench`` advances it by measured service time. Aggregate-tree nodes are named by dotted path plus
bracketed attributes (``tt.forward.segment_gemm[core=1]``); request
traces keep ``attrs`` apart (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import json
import os
from time import perf_counter_ns

from repro.telemetry.events import _json_safe, set_event_scope
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
    "tracing_enabled",
    "get_request_tracer",
    "annotate_span",
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

    A tracer is single-threaded by design (the whole simulator is); the
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
# Consumer 2: per-request traces
# ---------------------------------------------------------------------- #

class TraceContext:
    """One live request trace: its id, spans, and the open-span stack."""

    __slots__ = ("trace_id", "request_id", "spans", "_stack", "_next_id")

    def __init__(self, trace_id: str, request_id: int):
        self.trace_id = trace_id
        self.request_id = request_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 1

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
        self.spans.append(rec)
        return rec

    def open_span(self, name: str, attrs: dict | None, now: float) -> dict:
        rec = self._make(name, attrs, now, now)
        self._stack.append(rec)
        return rec

    def close_span(self, rec: dict, now: float) -> None:
        rec["end_ms"] = float(now)
        if self._stack and self._stack[-1] is rec:
            self._stack.pop()
        elif rec in self._stack:  # unbalanced exit; keep the tree sane
            self._stack.remove(rec)

    def record_span(self, name: str, start_ms: float, end_ms: float,
                    **attrs) -> dict:
        """A retroactive, already-closed span (e.g. ``queue.wait``)."""
        return self._make(name, attrs, start_ms, end_ms)

    def record_event(self, etype: str, data: dict, now: float) -> dict:
        """An instantaneous event as a zero-duration span."""
        return self._make(f"event:{etype}", data, now, now)

    def annotate(self, attrs: dict) -> None:
        """Merge attributes into the innermost open span."""
        if self._stack:
            self._stack[-1]["attrs"].update(_json_safe(attrs))

    def close_all(self, now: float) -> None:
        while self._stack:
            self.close_span(self._stack[-1], now)


class RequestTracer:
    """Process-wide owner of request-trace sampling, scopes, and output.

    Off until :meth:`configure` is called (``enabled`` False, every
    entry point an early-out); :meth:`shutdown` returns it to that
    state and closes the JSONL file.
    """

    def __init__(self):
        self._sample = 0
        self._seed_mix = 0
        self._clock = None
        self._fh = None
        self.path: str | None = None
        self._active: list[TraceContext] = []
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
        """Enable tracing: sample every Nth request id, write JSONL.

        ``clock`` is the run's ManualClock (or any ms callable); with
        none, every timestamp is 0.0 — still deterministic, just flat.
        The output file is truncated, so a rerun never appends to an
        old one.
        """
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.shutdown()
        self._sample = sample_every
        self._seed_mix = _splitmix64(seed & _MASK64)
        self._clock = clock
        if path is not None:
            self.path = os.fspath(path)
            self._fh = open(self.path, "w")

    def shutdown(self) -> None:
        """Disable tracing, close the sink, drop any dangling scopes."""
        if self._fh is not None:
            self._fh.close()
        self._fh = None
        self.path = None
        self._sample = 0
        self._clock = None
        self._activate([])

    def _now(self) -> float:
        clock = self._clock
        return float(clock()) if clock is not None else 0.0

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
        ctx = TraceContext(trace_id, request_id)
        ctx.open_span("request", {"request_id": request_id},
                      self._now() if now is None else now)
        self.started += 1
        return ctx

    def finish(self, ctx: TraceContext | None, status: str, *,
               now: float | None = None, **attrs) -> None:
        """Close a trace (root span gets ``status`` + attrs), write it."""
        if ctx is None:
            return
        now = self._now() if now is None else float(now)
        root = ctx.spans[0]
        root["attrs"].update(_json_safe({"status": status, **attrs}))
        ctx.close_all(now)
        self.finished += 1
        if self._fh is not None:
            for rec in ctx.spans:
                line = {"schema": TRACE_SCHEMA, "trace_id": ctx.trace_id,
                        **rec}
                self._fh.write(json.dumps(line, sort_keys=True) + "\n")
            self._fh.flush()
        recorder = get_flight_recorder()
        if recorder is not None:
            recorder.record_trace(ctx.trace_id, ctx.spans)

    # ------------------------------------------------------------------ #
    # Scopes (the propagation mechanism)
    # ------------------------------------------------------------------ #

    def scope(self, ctxs) -> "_Scope | _NoopSpan":
        """Activate contexts for the dynamic extent of a ``with`` block."""
        live = [c for c in ctxs if c is not None]
        return _Scope(self, live) if live else _NOOP

    def _activate(self, ctxs: list[TraceContext]) -> None:
        self._active = ctxs
        set_event_scope(self if ctxs else None)

    def join_event(self, etype: str, data: dict) -> dict:
        """Mirror an event into every active trace; return it with their ids.

        Each active trace gains a zero-duration ``event:<type>`` span
        under its innermost open span, and the payload gains ``trace_id``
        (one active trace) or ``trace_ids`` (a batch of them) — which is
        how a flight-recorder dump links a breaker transition, a fault
        firing or a cache repair back to the requests in flight.
        """
        now = self._now()
        for ctx in self._active:
            ctx.record_event(etype, data, now)
        ids = sorted({ctx.trace_id for ctx in self._active})
        if len(ids) == 1:
            return {"trace_id": ids[0], **data}
        return {"trace_ids": ids, **data}


# ---------------------------------------------------------------------- #
# The one entry point
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
        self.rt._activate(self.ctxs)
        return self

    def __exit__(self, *exc):
        # A shutdown() inside the block already dropped every scope.
        self.rt._activate(self._outer if self.rt.enabled else [])
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


def tracing_enabled() -> bool:
    return _TRACER.enabled


def get_request_tracer() -> RequestTracer:
    """The process-wide request tracer (off until configured)."""
    return _REQUEST_TRACER


def annotate_span(**attrs) -> None:
    """Add attributes to the innermost open span of every active trace."""
    for ctx in _REQUEST_TRACER._active:
        ctx.annotate(attrs)


def finish_request(req, status: str, *, now: float | None = None,
                   **attrs) -> None:
    """Finish the trace attached to a request object (if it has one)."""
    ctx = getattr(req, "trace_ctx", None)
    if ctx is not None:
        req.trace_ctx = None
        _REQUEST_TRACER.finish(ctx, status, now=now, **attrs)
