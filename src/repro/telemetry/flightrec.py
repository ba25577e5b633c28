"""Flight recorder: bounded rings of recent telemetry, dumped on trouble.

Always-on full tracing is too expensive for chaos runs, but by the time
a breaker opens the interesting history has already happened. The
flight recorder keeps small bounded rings of the most recent events and
sampled traces plus a baseline counter snapshot, and on a *trigger*
event — breaker-open, sanitizer trip — dumps everything to
``flightrec-<label>.json``
(schema ``repro.flightrec/v1``), so post-hoc debugging starts from the
moments *before* the incident, not after it.

Timestamps: event records carry a monotonically-increasing ``seq``, and
the dump's ``at_ms`` and trace timestamps come from the clock the
recorder was given (``serve-bench`` passes its ManualClock). That clock
advances by each batch's *measured* service time, so two same-seed runs
dump at the same triggers but not with byte-identical times. Only the
first occurrence of each trigger
label is dumped (later ones are counted as ``suppressed``), keeping the
artifact set bounded no matter how long the incident lasts.

Wiring: :func:`install_flight_recorder` registers the recorder with
:mod:`repro.telemetry.events` so every ``emit_event`` feeds the ring
automatically — carrying the ids of the sampled requests in flight when
it is emitted while they are being served; the request tracer hands
finished sampled traces to :meth:`FlightRecorder.record_trace`.
"""

from __future__ import annotations

import json
import os
from collections import deque

from repro.telemetry.events import _json_safe, set_event_recorder
from repro.telemetry.registry import get_registry

__all__ = [
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "install_flight_recorder",
    "uninstall_flight_recorder",
    "get_flight_recorder",
    "read_dump",
]

FLIGHT_SCHEMA = "repro.flightrec/v1"

# Event type (+ predicate on its data) -> dump label. A trigger firing
# dumps the rings once per label; see FlightRecorder._maybe_dump.
_TRIGGERS: tuple[tuple[str, str, object], ...] = (
    ("serving.breaker", "breaker-open",
     lambda data: data.get("to_state") == "open"),
    ("sanitizer.trip", "sanitizer-trip", None),
)


class FlightRecorder:
    """Bounded history of events + traces with trigger-driven dumps."""

    def __init__(self, directory: str | os.PathLike, *, clock=None,
                 event_ring: int = 256, trace_ring: int = 16,
                 max_dumps: int = 16):
        self.directory = os.fspath(directory)
        self._clock = clock
        self._events: deque[dict] = deque(maxlen=event_ring)
        self._traces: deque[dict] = deque(maxlen=trace_ring)
        self._seq = 0
        self._dumped: dict[str, str] = {}      # label -> dump path
        self._suppressed: dict[str, int] = {}  # label -> later triggers
        self._max_dumps = max_dumps
        # Counter baseline: dumps report deltas since recorder install,
        # which is what "what changed during the incident window" needs.
        self._baseline = dict(get_registry().snapshot()["counters"])

    # ------------------------------------------------------------------ #

    def _now(self) -> float:
        clock = self._clock
        return float(clock()) if clock is not None else 0.0

    def record_event(self, etype: str, data: dict) -> None:
        """Ring-buffer an event; dump if it matches a trigger."""
        self._seq += 1
        self._events.append(
            {"seq": self._seq, "type": etype, "data": _json_safe(data)}
        )
        for trig_type, label, pred in _TRIGGERS:
            if etype == trig_type and (pred is None or pred(data)):
                self._maybe_dump(label)

    def record_trace(self, trace_id: str, spans: list[dict]) -> None:
        """Ring-buffer a finished sampled trace (most recent N kept)."""
        self._traces.append({"trace_id": trace_id, "spans": list(spans)})

    # ------------------------------------------------------------------ #

    def _counter_delta(self) -> dict:
        now = get_registry().snapshot()["counters"]
        delta = {}
        for key, value in now.items():
            diff = value - self._baseline.get(key, 0)
            if diff:
                delta[key] = diff
        return delta

    def _maybe_dump(self, label: str) -> str | None:
        if label in self._dumped:
            self._suppressed[label] = self._suppressed.get(label, 0) + 1
            return None
        if len(self._dumped) >= self._max_dumps:
            self._suppressed[label] = self._suppressed.get(label, 0) + 1
            return None
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, f"flightrec-{label}.json")
        doc = {
            "schema": FLIGHT_SCHEMA,
            "trigger": label,
            "at_ms": self._now(),
            "events": list(self._events),
            "traces": list(self._traces),
            "counters_delta": self._counter_delta(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        self._dumped[label] = path
        return path

    def summary(self) -> dict:
        """What the recorder saw and dumped, for the serve-bench report."""
        return {
            "events_seen": self._seq,
            "dumps": dict(sorted(self._dumped.items())),
            "suppressed": dict(sorted(self._suppressed.items())),
        }


def read_dump(path: str | os.PathLike) -> dict:
    """Load and validate one ``flightrec-*.json`` dump.

    Post-hoc tooling goes through here rather than raw ``json.load`` so
    a dump from a different contract generation fails loudly instead of
    mis-parsing.
    """
    with open(path) as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema != FLIGHT_SCHEMA:
        raise ValueError(
            f"{os.fspath(path)}: expected schema {FLIGHT_SCHEMA}, "
            f"got {schema!r}"
        )
    for field in ("trigger", "at_ms", "events", "traces", "counters_delta"):
        if field not in doc:
            raise ValueError(f"{os.fspath(path)}: missing field {field!r}")
    return doc


_RECORDER: FlightRecorder | None = None


def install_flight_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Make ``recorder`` the process-wide sink for events and traces."""
    global _RECORDER
    _RECORDER = recorder
    set_event_recorder(recorder)
    return recorder


def uninstall_flight_recorder() -> None:
    global _RECORDER
    _RECORDER = None
    set_event_recorder(None)


def get_flight_recorder() -> FlightRecorder | None:
    return _RECORDER
