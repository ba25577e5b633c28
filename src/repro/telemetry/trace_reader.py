"""Reading ``repro.trace/v1`` back: validation and the ``repro trace`` views.

:class:`~repro.telemetry.tracer.RequestTracer` writes one span per line::

    {"schema": "repro.trace/v1", "trace_id": "9f…", "span_id": 2,
     "parent_id": 1, "name": "serving.batch", "start_ms": 12.5,
     "end_ms": 13.5, "attrs": {"batch_size": 4}}

``parent_id`` is ``null`` for the root (``request``) span. This module
only reads: :func:`read_trace` groups and validates the lines;
:func:`slowest_traces`, :func:`critical_path` and
:func:`format_trace_tree` are what ``repro trace`` prints.
"""

from __future__ import annotations

import json
import os

__all__ = [
    "TRACE_SCHEMA",
    "read_trace",
    "validate_trace_record",
    "trace_duration_ms",
    "build_trace_tree",
    "critical_path",
    "slowest_traces",
    "format_trace_tree",
]

TRACE_SCHEMA = "repro.trace/v1"


def validate_trace_record(rec: dict) -> None:
    """Raise ``ValueError`` unless ``rec`` is a valid trace span line."""
    if not isinstance(rec, dict):
        raise ValueError(f"span must be an object, got {type(rec).__name__}")
    if rec.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"unknown trace schema: {rec.get('schema')!r}")
    for key, typ in (("trace_id", str), ("span_id", int), ("name", str),
                     ("start_ms", (int, float)), ("end_ms", (int, float)),
                     ("attrs", dict)):
        if not isinstance(rec.get(key), typ):
            raise ValueError(
                f"span field {key!r} must be {typ}, got {rec.get(key)!r}"
            )
    parent = rec.get("parent_id")
    if parent is not None and not isinstance(parent, int):
        raise ValueError(f"parent_id must be int or null, got {parent!r}")
    if rec["end_ms"] < rec["start_ms"]:
        raise ValueError(
            f"span ends before it starts: {rec['start_ms']} > {rec['end_ms']}"
        )


def read_trace(path: str | os.PathLike) -> dict[str, list[dict]]:
    """Parse a ``repro.trace/v1`` JSONL file into trace_id -> spans."""
    traces: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            validate_trace_record(rec)
            traces.setdefault(rec["trace_id"], []).append(rec)
    for spans in traces.values():
        spans.sort(key=lambda r: r["span_id"])
    return traces


def trace_duration_ms(spans: list[dict]) -> float:
    """Root-span duration of one trace (its end-to-end latency)."""
    root = spans[0]
    return root["end_ms"] - root["start_ms"]


def build_trace_tree(spans: list[dict]) -> dict[int | None, list[dict]]:
    """Parent span id -> children, in span-id order."""
    children: dict[int | None, list[dict]] = {}
    for rec in spans:
        children.setdefault(rec["parent_id"], []).append(rec)
    return children


def critical_path(spans: list[dict]) -> list[dict]:
    """Root-to-leaf chain choosing the longest child at every level."""
    children = build_trace_tree(spans)
    roots = children.get(None, [])
    if not roots:
        return []
    path = [roots[0]]
    while True:
        kids = children.get(path[-1]["span_id"], [])
        if not kids:
            return path
        path.append(max(kids,
                        key=lambda r: (r["end_ms"] - r["start_ms"],
                                       -r["span_id"])))


def slowest_traces(traces: dict[str, list[dict]],
                   n: int = 10) -> list[tuple[str, list[dict]]]:
    """Top-N traces by root duration (ties broken by trace id)."""
    ranked = sorted(traces.items(),
                    key=lambda kv: (-trace_duration_ms(kv[1]), kv[0]))
    return ranked[:n]


def _attr_text(attrs: dict, limit: int = 60) -> str:
    if not attrs:
        return ""
    inner = ",".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    if len(inner) > limit:
        inner = inner[: limit - 1] + "…"
    return f"[{inner}]"


def format_trace_tree(trace_id: str, spans: list[dict]) -> str:
    """Human-readable indented span tree for one trace."""
    children = build_trace_tree(spans)
    lines = [f"trace {trace_id}  "
             f"({len(spans)} spans, {trace_duration_ms(spans):.2f} ms)"]

    def walk(rec: dict, depth: int) -> None:
        dur = rec["end_ms"] - rec["start_ms"]
        lines.append(
            f"  {'  ' * depth}{rec['name']}{_attr_text(rec['attrs'])} "
            f"+{rec['start_ms']:.2f} ms ({dur:.2f} ms)"
        )
        for kid in children.get(rec["span_id"], []):
            walk(kid, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)
