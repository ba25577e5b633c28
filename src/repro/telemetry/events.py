"""The ``--emit-json`` snapshot, and JSON-safe payloads for the wire.

Snapshot schema (``repro.telemetry/v1``) — the single-document form the
CLI's ``--emit-json`` writes — bundles a metrics-registry snapshot and a
span tree; see :func:`snapshot` / :func:`validate_snapshot` and
docs/OBSERVABILITY.md. Discrete events are not written here: an event
is a zero-duration span record on the telemetry stream
(:func:`repro.telemetry.tracer.emit_event`).
"""

from __future__ import annotations

import json
import os

__all__ = [
    "SNAPSHOT_SCHEMA",
    "snapshot",
    "write_snapshot",
    "validate_snapshot",
]

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
