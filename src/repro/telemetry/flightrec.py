"""Flight recorder: a bounded ring of the telemetry stream, dumped on trouble.

Always-on full tracing is too expensive for chaos runs, but by the time
a breaker opens the interesting history has already happened. The
flight recorder keeps the most recent records of the telemetry stream
(``repro.trace/v1`` span records, events among them, in write order)
plus a baseline counter snapshot, and on a *trigger* event —
breaker-open, sanitizer trip — dumps them to ``flightrec-<label>.json``
(schema ``repro.flightrec/v2``), so post-hoc debugging starts from the
moments *before* the incident, not after it.

Timestamps: records carry the stream's clock and the dump's ``at_ms``
comes from the clock the recorder was given; ``serve-bench`` passes
``monotonic_ms`` to both, so they are ``perf_counter`` milliseconds and
differ from run to run. Only the first occurrence of each trigger label
is dumped (later ones are counted as ``suppressed``), keeping the
artifact set bounded however long the incident lasts.

Wiring: the request tracer hands every record it writes to
:meth:`FlightRecorder.record` and checks the triggers once per
``emit_event`` call (:meth:`FlightRecorder.check_trigger`), whether or
not a stream file is open.
"""

from __future__ import annotations

import json
import os
from collections import deque

from repro.telemetry.registry import get_registry

__all__ = [
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "install_flight_recorder",
    "uninstall_flight_recorder",
    "get_flight_recorder",
    "read_dump",
]

FLIGHT_SCHEMA = "repro.flightrec/v2"

# Event type (+ predicate on its data) -> dump label. A trigger firing
# dumps the ring once per label; see FlightRecorder._maybe_dump.
_TRIGGERS: tuple[tuple[str, str, object], ...] = (
    ("serving.breaker", "breaker-open",
     lambda data: data.get("to_state") == "open"),
    ("sanitizer.trip", "sanitizer-trip", None),
)


class FlightRecorder:
    """Bounded history of stream records with trigger-driven dumps."""

    def __init__(self, directory: str | os.PathLike, *, clock=None,
                 ring: int = 1024, max_dumps: int = 16):
        self.directory = os.fspath(directory)
        self._clock = clock
        self._ring: deque[dict] = deque(maxlen=ring)
        self._events_seen = 0
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

    def record(self, rec: dict) -> None:
        """Ring-buffer one stream record (most recent N kept)."""
        self._ring.append(rec)

    def check_trigger(self, etype: str, data: dict) -> None:
        """Count an emitted event; dump if it matches a trigger."""
        self._events_seen += 1
        for trig_type, label, pred in _TRIGGERS:
            if etype == trig_type and (pred is None or pred(data)):
                self._maybe_dump(label)

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
            "records": list(self._ring),
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
            "events_seen": self._events_seen,
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
    for field in ("trigger", "at_ms", "records", "counters_delta"):
        if field not in doc:
            raise ValueError(f"{os.fspath(path)}: missing field {field!r}")
    return doc


_RECORDER: FlightRecorder | None = None


def install_flight_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Make ``recorder`` the process-wide ring of the telemetry stream."""
    global _RECORDER
    _RECORDER = recorder
    return recorder


def uninstall_flight_recorder() -> None:
    global _RECORDER
    _RECORDER = None


def get_flight_recorder() -> FlightRecorder | None:
    return _RECORDER
