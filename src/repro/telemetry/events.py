"""Structured JSONL event sink shared by telemetry and reliability.

One process-wide sink (installed with :func:`install_sink`) receives
discrete events — fault firings, guard actions, cache refreshes,
checkpoint saves — as one JSON object per line. Components emit through
:func:`emit_event`, from any module; it is a cheap no-op while nothing
consumes events, so the reliability runtime can emit unconditionally.
The consumers — this sink, the flight recorder's ring and, while sampled
requests are being served, their traces (the event then carries
``trace_id``/``trace_ids``) — are handed to this module by their owners,
which keeps it the package's import leaf.

Event schema (``repro.telemetry.event/v1``)::

    {"schema": "repro.telemetry.event/v1",
     "seq": 3,                # per-sink monotonic sequence number
     "ts_ns": 123456789,      # perf_counter_ns at emit time (monotonic)
     "type": "guard.skip",    # dotted event type
     "data": {...}}           # event-specific JSON-safe payload

Snapshot schema (``repro.telemetry/v1``) — the single-document form the
CLI's ``--emit-json`` writes — bundles a metrics-registry snapshot and a
span tree; see :func:`snapshot` / :func:`validate_snapshot` and
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
import os
from time import perf_counter_ns

__all__ = [
    "EVENT_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "JsonlSink",
    "install_sink",
    "uninstall_sink",
    "get_sink",
    "set_event_recorder",
    "set_event_scope",
    "emit_event",
    "read_events",
    "validate_event",
    "snapshot",
    "write_snapshot",
    "validate_snapshot",
]

EVENT_SCHEMA = "repro.telemetry.event/v1"
SNAPSHOT_SCHEMA = "repro.telemetry/v1"


def _json_safe(value):
    """Coerce numpy scalars/arrays and other non-JSON types for the wire."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()  # numpy scalar -> python scalar
        except (ValueError, AttributeError):
            pass
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, float):
        # NaN/inf are not valid strict JSON; ship them as strings.
        return value if value == value and abs(value) != float("inf") else repr(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


class JsonlSink:
    """Append-only JSONL writer with line-buffered flushing."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._fh = open(self.path, "a")
        self._seq = 0

    def emit(self, etype: str, /, **data) -> dict:
        """Write one event line; returns the emitted record."""
        record = {
            "schema": EVENT_SCHEMA,
            "seq": self._seq,
            "ts_ns": perf_counter_ns(),
            "type": etype,
            "data": _json_safe(data),
        }
        self._seq += 1
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        return record

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


_SINK: JsonlSink | None = None


def install_sink(sink: JsonlSink | str | os.PathLike) -> JsonlSink:
    """Install the process-wide sink (a path creates a :class:`JsonlSink`)."""
    global _SINK
    if not isinstance(sink, JsonlSink):
        sink = JsonlSink(sink)
    _SINK = sink
    return sink


def uninstall_sink() -> None:
    """Detach (and close) the process-wide sink."""
    global _SINK
    if _SINK is not None:
        _SINK.close()
    _SINK = None


def get_sink() -> JsonlSink | None:
    return _SINK


# Optional second consumer: the flight recorder's bounded event ring
# (repro.telemetry.flightrec). Decoupled from the sink so trigger-driven
# dumps work even when no JSONL sink is installed.
_RECORDER = None


def set_event_recorder(recorder) -> None:
    """Install (or with ``None`` remove) the flight-recorder event feed."""
    global _RECORDER
    _RECORDER = recorder


# Optional third consumer: the request tracer, while one of its scopes
# holds sampled requests active (repro.telemetry.tracer.join_event).
_SCOPE = None


def set_event_scope(request_tracer) -> None:
    """Install (or with ``None`` remove) the active request-trace scope."""
    global _SCOPE
    _SCOPE = request_tracer


def emit_event(etype: str, /, **data) -> None:
    """Emit an event to every consumer; free when there is none.

    ``etype`` is positional-only, so no payload key can collide with it.
    """
    if _SCOPE is not None:
        data = _SCOPE.join_event(etype, data)
    if _SINK is not None:
        _SINK.emit(etype, **data)
    if _RECORDER is not None:
        _RECORDER.record_event(etype, data)


# ---------------------------------------------------------------------- #
# Reading & validation
# ---------------------------------------------------------------------- #

def validate_event(record: dict) -> None:
    """Raise ``ValueError`` unless ``record`` matches the event schema."""
    if not isinstance(record, dict):
        raise ValueError(f"event must be an object, got {type(record).__name__}")
    if record.get("schema") != EVENT_SCHEMA:
        raise ValueError(f"unknown event schema: {record.get('schema')!r}")
    for key, typ in (("seq", int), ("ts_ns", int), ("type", str), ("data", dict)):
        if not isinstance(record.get(key), typ):
            raise ValueError(
                f"event field {key!r} must be {typ.__name__}, "
                f"got {record.get(key)!r}"
            )


def read_events(path: str | os.PathLike,
                event_type: str | None = None) -> list[dict]:
    """Parse and validate a JSONL event file (optionally one type only)."""
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            validate_event(record)
            if event_type is None or record["type"] == event_type:
                events.append(record)
    return events


# ---------------------------------------------------------------------- #
# Whole-system snapshots (the --emit-json document)
# ---------------------------------------------------------------------- #

def snapshot(*, command: str | None = None, result: dict | None = None) -> dict:
    """One JSON document bundling the shared registry and span tree."""
    from repro.telemetry.registry import get_registry
    from repro.telemetry.tracer import get_tracer

    return {
        "schema": SNAPSHOT_SCHEMA,
        "command": command,
        "metrics": get_registry().snapshot(),
        "spans": get_tracer().tree_dict(),
        "result": _json_safe(result) if result is not None else {},
    }


def write_snapshot(path: str | os.PathLike, *, command: str | None = None,
                   result: dict | None = None) -> dict:
    """Write :func:`snapshot` to ``path``; returns the document."""
    doc = snapshot(command=command, result=result)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc


def validate_snapshot(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` matches the snapshot schema."""
    if not isinstance(doc, dict):
        raise ValueError(f"snapshot must be an object, got {type(doc).__name__}")
    if doc.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(f"unknown snapshot schema: {doc.get('schema')!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("snapshot 'metrics' must be an object")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            raise ValueError(f"snapshot metrics.{section} must be an object")
    for key, value in metrics["counters"].items():
        if not isinstance(value, int):
            raise ValueError(f"counter {key!r} must be an int, got {value!r}")
    if not isinstance(doc.get("spans"), dict):
        raise ValueError("snapshot 'spans' must be an object")
    if not isinstance(doc.get("result"), dict):
        raise ValueError("snapshot 'result' must be an object")
