"""Flight recorder: a bounded ring of the telemetry stream, dumped on trouble.

Always-on full tracing is too expensive for chaos runs, but by the time
a breaker opens the interesting history has already happened. The
flight recorder keeps the most recent records of the telemetry stream
(``repro.trace/v1`` span records, events among them, in write order)
plus a baseline counter snapshot, and when a breaker opens dumps them
to ``flightrec-breaker-open.json`` (schema ``repro.flightrec/v2``), so
post-hoc debugging starts from the moments *before* the incident, not
after it.

Timestamps: records carry the stream's clock and the dump's ``at_ms``
comes from the clock the recorder was given; ``serve-bench`` passes
``monotonic_ms`` to both, so they are ``perf_counter`` milliseconds and
differ from run to run. Only the first breaker to open is dumped (later
ones are counted as ``suppressed``), keeping the artifact set at one
file however long the incident lasts.

Wiring: the request tracer hands every record it writes to
:meth:`FlightRecorder.record` and checks for the trigger once per
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

# The dump's label: its ``trigger`` field and its file name.
_LABEL = "breaker-open"


class FlightRecorder:
    """Bounded history of stream records, dumped when a breaker opens."""

    def __init__(self, directory: str | os.PathLike, *, clock=None,
                 ring: int = 1024):
        self.directory = os.fspath(directory)
        self._clock = clock
        self._ring: deque[dict] = deque(maxlen=ring)
        self._events_seen = 0
        self._dump_path: str | None = None
        self._suppressed = 0  # breaker-opens after the dumped one
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
        """Count an emitted event; dump if it opens a breaker."""
        self._events_seen += 1
        if etype == "serving.breaker" and data.get("to_state") == "open":
            self._dump()

    # ------------------------------------------------------------------ #

    def _counter_delta(self) -> dict:
        now = get_registry().snapshot()["counters"]
        delta = {}
        for key, value in now.items():
            diff = value - self._baseline.get(key, 0)
            if diff:
                delta[key] = diff
        return delta

    def _dump(self) -> None:
        if self._dump_path is not None:
            self._suppressed += 1
            return
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, f"flightrec-{_LABEL}.json")
        doc = {
            "schema": FLIGHT_SCHEMA,
            "trigger": _LABEL,
            "at_ms": self._now(),
            "records": list(self._ring),
            "counters_delta": self._counter_delta(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        self._dump_path = path

    def summary(self) -> dict:
        """What the recorder saw and dumped, for the serve-bench report."""
        dumped, later = self._dump_path, self._suppressed
        return {
            "events_seen": self._events_seen,
            "dumps": {_LABEL: dumped} if dumped else {},
            "suppressed": {_LABEL: later} if later else {},
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
