"""Unified telemetry layer: metrics registry, span tracer, JSONL events.

Process-wide singletons, so every component reports into one place
(docs/OBSERVABILITY.md has the conventions and the name catalogue):

- :mod:`repro.telemetry.registry` — labelled counters/gauges/histograms
  (``get_registry()``), always on, backing ``stats()`` methods and the
  byte/hit/fault counters across the cache, collectives and reliability
  runtime;
- :mod:`repro.telemetry.tracer` — ``trace()``, the one way to open a
  span (``with trace("tt.forward.segment_gemm", core=k):``): a shared
  no-op unless something listens — the aggregate span tree that
  ``repro profile`` prints and/or the deterministic per-request traces
  (``repro.trace/v1`` JSONL) of the sampled requests being served;
- :mod:`repro.telemetry.trace_reader` — reads those traces back
  (``read_trace``, ``critical_path``, ``format_trace_tree``);
- :mod:`repro.telemetry.events` — ``emit_event()``, the one way to emit
  a discrete event (fault firings, guard actions, cache refreshes), to
  the JSONL sink, the flight recorder and the traces of the requests in
  flight; plus the ``--emit-json`` snapshot of registry + span tree;
- :mod:`repro.telemetry.slo` — declarative objectives evaluated as
  multi-window burn rates with exemplar trace ids;
- :mod:`repro.telemetry.flightrec` — bounded rings of recent events and
  traces, auto-dumped on breaker-open and sanitizer trips.
"""

from repro.telemetry.events import (
    EVENT_SCHEMA,
    SNAPSHOT_SCHEMA,
    JsonlSink,
    emit_event,
    get_sink,
    install_sink,
    read_events,
    snapshot,
    uninstall_sink,
    validate_event,
    validate_snapshot,
    write_snapshot,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metric_key,
)
from repro.telemetry.flightrec import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    get_flight_recorder,
    install_flight_recorder,
    uninstall_flight_recorder,
)
from repro.telemetry.slo import (
    REPORT_SCHEMA,
    SLO_SCHEMA,
    Objective,
    SLOEngine,
    format_report,
    load_policy,
)
from repro.telemetry.trace_reader import (
    TRACE_SCHEMA,
    critical_path,
    format_trace_tree,
    read_trace,
    slowest_traces,
    trace_duration_ms,
    validate_trace_record,
)
from repro.telemetry.tracer import (
    RequestTracer,
    SpanNode,
    TraceContext,
    Tracer,
    annotate_span,
    disable_tracing,
    enable_tracing,
    finish_request,
    get_request_tracer,
    get_tracer,
    trace,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "metric_key",
    "SpanNode",
    "Tracer",
    "trace",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "EVENT_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "JsonlSink",
    "install_sink",
    "uninstall_sink",
    "get_sink",
    "emit_event",
    "read_events",
    "validate_event",
    "snapshot",
    "write_snapshot",
    "validate_snapshot",
    "TRACE_SCHEMA",
    "TraceContext",
    "RequestTracer",
    "get_request_tracer",
    "annotate_span",
    "finish_request",
    "read_trace",
    "validate_trace_record",
    "trace_duration_ms",
    "critical_path",
    "slowest_traces",
    "format_trace_tree",
    "SLO_SCHEMA",
    "REPORT_SCHEMA",
    "Objective",
    "SLOEngine",
    "load_policy",
    "format_report",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "install_flight_recorder",
    "uninstall_flight_recorder",
    "get_flight_recorder",
]
