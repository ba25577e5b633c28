"""Unified telemetry layer: metrics registry, span tracer, one stream.

Process-wide singletons, so every component reports into one place
(docs/OBSERVABILITY.md has the conventions and the name catalogue):

- :mod:`repro.telemetry.registry` — labelled counters/gauges/histograms
  (``get_registry()``), always on, backing ``stats()`` methods and the
  byte/hit/fault counters across the TT planner, the cache, the
  reliability runtime and the serving tier;
- :mod:`repro.telemetry.tracer` — ``trace()``, the one way to open a
  span (``with trace("tt.forward.segment_gemm", core=k):``), and
  ``emit_event()``, the one way to emit a discrete event (fault
  firings, guard actions, cache refreshes): both shared no-ops unless
  something listens — the aggregate span tree that ``repro profile``
  prints and/or the telemetry stream, one ``repro.trace/v1`` JSONL
  record per closed span of the sampled requests being served, in
  which an event is a zero-duration ``event:<type>`` span;
- :mod:`repro.telemetry.trace_reader` — reads the stream back
  (``read_trace``, ``read_events``, ``critical_path``,
  ``format_trace_tree``);
- :mod:`repro.telemetry.events` — the ``--emit-json`` snapshot of
  registry + span tree;
- :mod:`repro.telemetry.slo` — declarative objectives evaluated as
  multi-window burn rates with exemplar trace ids;
- :mod:`repro.telemetry.flightrec` — a bounded ring of the stream's
  recent records, auto-dumped on breaker-open and sanitizer trips.
"""

from repro.telemetry.events import (
    SNAPSHOT_SCHEMA,
    snapshot,
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
    read_events,
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
    emit_event,
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
    "SNAPSHOT_SCHEMA",
    "emit_event",
    "read_events",
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
