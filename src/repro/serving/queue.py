"""Deadline-aware micro-batching queue with bounded depth and shedding.

Overload handling for the serving path: the queue has a hard depth bound
(arrivals beyond it are *shed*, not buffered — latency must not grow
unboundedly), a high-watermark backpressure signal for clients that
slow down, and deadline awareness on both ends:

- at **submit** time each request is stamped with its absolute deadline
  (caller-supplied or ``default_deadline_ms`` from arrival);
- at **batch-forming** time requests whose deadline cannot be met even if
  served immediately (``deadline < now + expected service time``, an EWMA
  the server feeds back) are shed instead of wasting a slot, and the
  remaining requests are taken earliest-deadline-first.

Time comes from an injectable ``clock`` (milliseconds, monotonic). It
is :func:`monotonic_ms`, the wall clock, unless a unit test substitutes
a :class:`ManualClock` to step time by hand.

A :class:`~repro.reliability.fault_injection.FaultInjector` probed at
``serving.queue`` models a lost queue entry: a firing fault sheds the
arriving request (counted separately, reconciled by ``serve-bench``).

The queue exports ``serving.enqueued`` (accepted arrivals),
``serving.shed{reason=}`` (one counter per shed reason) and the
``serving.queue_depth`` gauge to the shared metrics registry.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter_ns

from repro.telemetry import finish_request, get_registry

__all__ = ["ManualClock", "MicroBatchQueue", "monotonic_ms"]

SHED_REASONS = ("queue_full", "deadline", "fault")


def monotonic_ms() -> float:
    """Default clock: monotonic milliseconds."""
    return perf_counter_ns() / 1e6


class ManualClock:
    """Hand-stepped clock for unit tests of the queue and server."""

    def __init__(self, start_ms: float = 0.0):
        self._now = float(start_ms)

    def now(self) -> float:
        return self._now

    def advance(self, ms: float) -> float:
        if ms < 0:
            raise ValueError(f"cannot advance a monotonic clock by {ms} ms")
        self._now += ms
        return self._now

    __call__ = now


class MicroBatchQueue:
    """Bounded FIFO with deadline-aware, EDF-ordered batch forming.

    Parameters
    ----------
    max_depth:
        Hard bound on queued requests; arrivals beyond it are shed.
    max_batch:
        Most requests served in one micro-batch.
    default_deadline_ms:
        Relative deadline stamped on requests that carry none.
    high_watermark:
        Depth fraction above which :meth:`should_backpressure` is True.
    clock:
        Callable returning monotonic milliseconds.
    injector:
        Optional fault injector probed at ``serving.queue`` per submit.
    """

    def __init__(self, *, max_depth: int = 64, max_batch: int = 32,
                 default_deadline_ms: float = 50.0,
                 high_watermark: float = 0.8, clock=None, injector=None):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if not default_deadline_ms > 0:
            raise ValueError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}"
            )
        if not (0.0 < high_watermark <= 1.0):
            raise ValueError(
                f"high_watermark must be in (0, 1], got {high_watermark}"
            )
        self.max_depth = max_depth
        self.max_batch = max_batch
        self.default_deadline_ms = default_deadline_ms
        self.high_watermark = high_watermark
        self.clock = clock if clock is not None else monotonic_ms
        self.injector = injector
        self._queue: deque = deque()
        # EWMA of observed per-batch service time, the deadline-feasibility
        # estimate (starts optimistic: an empty server serves instantly).
        self.expected_service_ms = 0.0
        self._ewma_alpha = 0.2
        reg = get_registry()
        self._shed = {
            reason: reg.counter("serving.shed", reason=reason)
            for reason in SHED_REASONS
        }
        self._enqueued = reg.counter("serving.enqueued")
        self._depth_gauge = reg.gauge("serving.queue_depth")

    # ------------------------------------------------------------------ #

    @property
    def depth(self) -> int:
        return len(self._queue)

    def should_backpressure(self) -> bool:
        """Clients should slow down above the high watermark."""
        return len(self._queue) >= self.high_watermark * self.max_depth

    def shed_counts(self) -> dict[str, int]:
        return {reason: c.value for reason, c in self._shed.items()}

    # ------------------------------------------------------------------ #

    def submit(self, request) -> str:
        """Enqueue a sanitized request; returns ``"queued"`` or a shed reason.

        ``request`` must expose ``deadline_ms`` and accept ``arrival_ms``
        assignment (:class:`repro.serving.admission.SanitizedRequest`).
        """
        now = self.clock()
        if self.injector is not None and self.injector.fires("serving.queue"):
            self._shed["fault"].inc()
            return "shed_fault"
        if len(self._queue) >= self.max_depth:
            self._shed["queue_full"].inc()
            return "shed_queue_full"
        request.arrival_ms = now
        if request.deadline_ms is None:
            request.deadline_ms = now + self.default_deadline_ms
        self._queue.append(request)
        self._enqueued.inc()
        self._depth_gauge.set(len(self._queue))
        return "queued"

    def next_batch(self) -> list:
        """Form one micro-batch: shed the infeasible, serve the most urgent.

        A request is infeasible when its deadline precedes ``now`` plus the
        service-time EWMA — serving it would burn a batch slot to produce
        an answer the client has already abandoned.

        When a call sheds requests and serves none there is no batch for
        the server to time, so :meth:`observe_service` would never run
        again and one long stall could leave the estimate above every
        deadline for good. That path decays the estimate as if a zero-cost
        batch had been observed, so the queue recovers after a bounded
        number of calls; a call that forms a batch pays nothing for this.
        """
        now = self.clock()
        horizon = now + self.expected_service_ms
        feasible = []
        for req in self._queue:
            if req.deadline_ms < horizon:
                self._shed["deadline"].inc()
                finish_request(req, "shed_deadline", now=now)
            else:
                feasible.append(req)
        feasible.sort(key=lambda r: r.deadline_ms)
        batch = feasible[: self.max_batch]
        if not batch and self._queue:
            self.expected_service_ms *= 1 - self._ewma_alpha
        self._queue = deque(feasible[self.max_batch:])
        self._depth_gauge.set(len(self._queue))
        return batch

    def observe_service(self, ms: float) -> None:
        """Feed back one batch's measured service time (updates the EWMA)."""
        if ms < 0:
            return
        if self.expected_service_ms == 0.0:
            self.expected_service_ms = ms
        else:
            a = self._ewma_alpha
            self.expected_service_ms = (1 - a) * self.expected_service_ms + a * ms
