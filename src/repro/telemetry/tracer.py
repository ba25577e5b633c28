"""Span-based tracing with nested aggregation and a no-op fast path.

Usage in instrumented code::

    from repro.telemetry import trace

    with trace("tt.forward.segment_gemm", core=k):
        res = np.matmul(...)

Tracing is **off by default**. While disabled, ``trace()`` returns a
shared no-op context manager — the entire cost on a hot path is one
function call and one attribute check, which the telemetry overhead-guard
test bounds at <5% of a small training run. While enabled, each span
records ``perf_counter_ns`` durations into a tree of aggregates keyed by
the span's position under its parent, so repeated spans (one per batch,
one per TT core) fold into count/total/min/max statistics instead of an
unbounded event list.

Span naming convention: dotted component path plus optional bracketed
attributes, e.g. ``tt.forward.segment_gemm[core=1]`` (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from time import perf_counter_ns

__all__ = [
    "SpanNode",
    "Tracer",
    "trace",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "set_trace_hook",
]


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

    def as_dict(self) -> dict:
        """JSON-ready nested summary (times in nanoseconds)."""
        out = {
            "count": self.count,
            "total_ns": self.total_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
        }
        if self.children:
            out["children"] = {
                name: node.as_dict() for name, node in self.children.items()
            }
        return out


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("tracer", "name", "start_ns")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(tracer._stack[-1].child(self.name))
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        elapsed = perf_counter_ns() - self.start_ns
        tracer = self.tracer
        tracer._stack.pop().record(elapsed)
        return False


def _span_name(name: str, attrs: dict) -> str:
    if not attrs:
        return name
    inner = ",".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    return f"{name}[{inner}]"


class Tracer:
    """Owner of the span tree and the enabled flag.

    A tracer is single-threaded by design (the whole simulator is); the
    active-span stack is a plain list rooted at a synthetic node whose
    children are the top-level spans.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.root = SpanNode("<root>")
        self._stack: list[SpanNode] = [self.root]

    # ------------------------------------------------------------------ #

    def span(self, name: str, **attrs) -> _Span | _NoopSpan:
        if not self.enabled:
            return _NOOP
        return _Span(self, _span_name(name, attrs))

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
            f"{'span':<46} {'count':>7} {'total ms':>10} {'mean us':>10}"
        ]
        lines.append("-" * len(lines[0]))

        def walk(node: SpanNode, depth: int) -> None:
            total_ms = node.total_ns / 1e6
            if total_ms < min_total_ms:
                return
            mean_us = node.total_ns / node.count / 1e3 if node.count else 0.0
            label = ("  " * depth) + node.name
            lines.append(
                f"{label:<46} {node.count:>7} {total_ms:>10.3f} {mean_us:>10.1f}"
            )
            for child in node.children.values():
                walk(child, depth + 1)

        for top in self.root.children.values():
            walk(top, 0)
        if len(lines) == 2:
            lines.append("(no spans recorded — is tracing enabled?)")
        return "\n".join(lines)


_TRACER = Tracer()

# Optional interception point for distributed request tracing: while a
# request-trace scope is active (repro.telemetry.tracing), every trace()
# call routes through the hook so legacy spans (tt.*, cache.*) land in
# the active request traces too. None whenever no scope is active, so
# the disabled fast path stays one extra global load + None check.
_HOOK = None


def set_trace_hook(hook) -> None:
    """Install (or with ``None`` remove) the global trace() interceptor."""
    global _HOOK
    _HOOK = hook


def get_tracer() -> Tracer:
    """The process-wide default tracer all components share."""
    return _TRACER


def trace(name: str, **attrs) -> _Span | _NoopSpan:
    """Open a span on the default tracer (no-op while tracing is off)."""
    if _HOOK is not None:
        return _HOOK(name, attrs)
    if not _TRACER.enabled:
        return _NOOP
    return _Span(_TRACER, _span_name(name, attrs))


def enable_tracing() -> None:
    _TRACER.enable()


def disable_tracing() -> None:
    _TRACER.disable()


def tracing_enabled() -> bool:
    return _TRACER.enabled
