"""Unified telemetry layer: metrics registry, span tracer, JSONL events.

Three cooperating pieces, all process-wide singletons so every component
reports into one place (docs/OBSERVABILITY.md has the full conventions):

- :mod:`repro.telemetry.registry` — labelled counters/gauges/histograms
  (``get_registry()``), always on, backing ``stats()`` methods and the
  byte/hit/fault counters across the cache, collectives and reliability
  runtime;
- :mod:`repro.telemetry.tracer` — nested timing spans
  (``with trace("tt.forward.segment_gemm", core=k):``), off by default with a
  near-zero-cost no-op path, aggregated into a span tree that
  ``repro profile`` prints;
- :mod:`repro.telemetry.events` — a structured JSONL sink for discrete
  events (fault firings, guard actions, cache refreshes) plus the
  ``--emit-json`` snapshot document combining registry + span tree.

PR 7 adds the cross-boundary plane on top (three layers total —
metrics → traces → SLOs/flight recorder):

- :mod:`repro.telemetry.tracing` — deterministic per-request distributed
  traces (``repro.trace/v1`` JSONL) propagated router→shard→ladder→
  kernel via ``traced_span``/``traced_event``;
- :mod:`repro.telemetry.slo` — declarative objectives evaluated as
  multi-window burn rates with exemplar trace ids;
- :mod:`repro.telemetry.flightrec` — bounded rings of recent events and
  traces, auto-dumped on breaker-open / shard mark-down / failover /
  sanitizer trips.
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
from repro.telemetry.tracer import (
    SpanNode,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    trace,
    tracing_enabled,
)
from repro.telemetry.tracing import (
    TRACE_SCHEMA,
    RequestTracer,
    TraceContext,
    annotate_span,
    critical_path,
    finish_request,
    format_trace_tree,
    get_request_tracer,
    read_trace,
    slowest_traces,
    trace_duration_ms,
    traced_event,
    traced_span,
    validate_trace_record,
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
    "traced_span",
    "traced_event",
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
