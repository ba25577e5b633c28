"""Circuit breaker over one serving backend (closed / open / half-open).

The classic pattern (Nygard, *Release It!*), counted in *calls* rather
than wall-clock so chaos tests are deterministic:

- **closed** — calls flow through; outcomes are recorded into a sliding
  window. When the window holds ``failure_threshold`` failures the
  breaker *opens* (the backend is presumed poisoned or broken).
- **open** — calls are refused for ``cooldown`` consecutive ``allow()``
  probes; the degradation ladder routes to the next rung meanwhile.
- **half-open** — after the cooldown, one trial call is let through per
  probe. ``half_open_successes`` consecutive successes close the breaker;
  any failure re-opens it.

Every transition is emitted as a ``serving.breaker`` telemetry event and
counted under ``serving.breaker.transitions{breaker=,to=}``, which is how
``serve-bench`` proves the ladder actually exercised its states.
"""

from __future__ import annotations

from collections import deque

from repro.telemetry import emit_event, get_registry

__all__ = ["CircuitBreaker"]

STATES = ("closed", "open", "half_open")


class CircuitBreaker:
    """Call-counted breaker guarding one rung of a degradation ladder."""

    def __init__(self, name: str, *, failure_threshold: int = 3,
                 window: int = 20, cooldown: int = 25,
                 half_open_successes: int = 2):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if window < failure_threshold:
            raise ValueError(
                f"window ({window}) must hold at least failure_threshold "
                f"({failure_threshold}) outcomes"
            )
        if cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {cooldown}")
        if half_open_successes < 1:
            raise ValueError(
                f"half_open_successes must be >= 1, got {half_open_successes}"
            )
        self.name = name
        self.failure_threshold = failure_threshold
        self.window = window
        self.cooldown = cooldown
        self.half_open_successes = half_open_successes
        self.state = "closed"
        self.transitions: list[tuple[str, str]] = []
        self._outcomes: deque[bool] = deque(maxlen=window)  # True = failure
        self._open_probes = 0
        self._trial_successes = 0
        self._transition_counters = {
            to: get_registry().counter("serving.breaker.transitions",
                                       breaker=name, to=to)
            for to in STATES
        }

    # ------------------------------------------------------------------ #

    def _transition(self, to: str) -> None:
        if to == self.state:
            return
        emit_event("serving.breaker", breaker=self.name,
                   from_state=self.state, to_state=to)
        self.transitions.append((self.state, to))
        self._transition_counters[to].inc()
        self.state = to
        if to == "open":
            self._open_probes = 0
        elif to == "half_open":
            self._trial_successes = 0
        elif to == "closed":
            self._outcomes.clear()

    # ------------------------------------------------------------------ #

    def allow(self) -> bool:
        """May the guarded backend be called right now?"""
        if self.state == "closed":
            return True
        if self.state == "open":
            self._open_probes += 1
            if self._open_probes >= self.cooldown:
                self._transition("half_open")
                return True
            return False
        return True  # half_open: trial calls flow (sequential server)

    def record_success(self) -> None:
        if self.state == "half_open":
            self._trial_successes += 1
            if self._trial_successes >= self.half_open_successes:
                self._transition("closed")
            return
        self._outcomes.append(False)

    def record_failure(self) -> None:
        if self.state == "half_open":
            self._transition("open")
            return
        self._outcomes.append(True)
        if self.state == "closed" and sum(self._outcomes) >= self.failure_threshold:
            self._transition("open")

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker({self.name!r}, state={self.state!r})"
