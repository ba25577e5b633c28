"""Closed-loop load generator for the serving runtime (``serve-bench``).

Drives an :class:`~repro.serving.server.InferenceServer` on a
:class:`~repro.serving.queue.ManualClock`: arrivals advance simulated
time (exponential inter-arrival), while the service time is *measured*
from the real forward pass and fed back into both the clock and the
queue's deadline-feasibility EWMA. Its latency numbers therefore combine
real compute cost with deterministic, reproducible queueing behaviour.

The generator can emit deliberately malformed traffic (NaN dense
features, out-of-vocabulary ids, garbage offsets-style scalar abuse) at a
configurable fraction to exercise the admission layer, and — when the
server carries a fault injector — reconciles every defensive counter
against the injector's per-site firing counts:

- ``serving.request`` firings must all surface as
  ``rejected{reason=dense_non_finite}``;
- ``serving.queue`` firings must all surface as ``shed{reason=fault}``;
- ``serving.backend`` firings must all surface as recorded backend
  failures (each one either served by a lower rung or scrubbed+retried).

A run passes only if those ledgers balance (they are read when an
injector ran over clean traffic), no accepted request is lost
(``no_lost_requests``, checked on every run) *and* every served
probability is finite — the ISSUE-3 chaos proof.
"""

from __future__ import annotations

import numpy as np

from repro.serving.admission import Request
from repro.serving.queue import ManualClock
from repro.telemetry import get_registry
from repro.utils.seeding import as_rng

__all__ = ["run_load", "reconcile", "reconcile_ledger"]


def _make_request(rng: np.random.Generator, cfg, rid: int,
                  deadline_ms: float | None, malformed: bool) -> Request:
    dense = rng.normal(size=cfg.num_dense)
    sparse = [
        rng.integers(0, size, size=int(rng.integers(1, 4)))
        for size in cfg.table_sizes
    ]
    if malformed:
        # One of the three corruption classes the admission layer repairs
        # or rejects; drawn from the same stream for reproducibility.
        kind = rng.integers(0, 3)
        if kind == 0:
            dense[rng.integers(0, dense.size)] = np.nan
        elif kind == 1:
            t = int(rng.integers(0, cfg.num_tables))
            sparse[t] = np.array([-5, cfg.table_sizes[t] + 17], dtype=np.int64)
        else:
            t = int(rng.integers(0, cfg.num_tables))
            sparse[t] = np.array([0.5, 1.25])  # fractional ids: unusable
    return Request(dense=dense, sparse=sparse, deadline_ms=deadline_ms,
                   request_id=rid)


def reconcile_ledger(injector, fault_rows: dict, invariants: dict, *,
                     clean: bool = True) -> dict:
    """Fold a run's ledgers into ``{checked, passed, checks}``.

    ``fault_rows`` maps a check name to ``(site, counted)``: every firing
    of the injector site must surface in the defensive counter. They
    count only when an injector ran over ``clean`` traffic: without an
    injector nothing fired, and garbage the caller sent is
    indistinguishable from an injected fault to the defensive counters
    (``skipped`` then says so). ``invariants`` maps a check name to
    ``(expected, counted)`` and is checked always — conservation of
    accepted work. A check passes on exact equality, and ``passed`` is
    the verdict: a check that gates is a row of ``checks``.
    """
    checks: dict[str, dict] = {}
    checked = injector is not None and clean
    if checked:
        for name, (site, counted) in fault_rows.items():
            checks[name] = {"fired": injector.fired.get(site, 0),
                            "counted": counted}
    for name, (expected, counted) in invariants.items():
        checks[name] = {"fired": expected, "counted": counted}
    for check in checks.values():
        check["passed"] = check["fired"] == check["counted"]
    recon = {
        "checked": checked,
        "passed": all(c["passed"] for c in checks.values()),
        "checks": checks,
    }
    if injector is not None and not clean:
        recon["skipped"] = "malformed traffic mixes with injected faults"
    return recon


def reconcile(server, outcomes: dict, served: int, *,
              clean: bool = True) -> dict:
    """Balance the server's defensive ledgers against its fault injector.

    The ``serving.*`` fault rows are only meaningful when the load was
    otherwise ``clean`` (``malformed=0``): user-supplied garbage and
    injected faults are indistinguishable to the admission counters.
    ``no_lost_requests`` holds regardless, injector or not: everything
    queued is either served or counted as a deadline shed.
    """
    stats = server.stats()
    return reconcile_ledger(
        server.injector,
        {
            "request_faults_rejected": (
                "serving.request",
                stats["admission"]["rejected"]["dense_non_finite"]),
            "queue_faults_shed": ("serving.queue", stats["shed"]["fault"]),
            "backend_faults_failed_over": ("serving.backend",
                                           stats["backend_failures"]),
        },
        {"no_lost_requests": (outcomes["queued"],
                              served + stats["shed"]["deadline"])},
        clean=clean,
    )


def run_load(server, *, num_requests: int = 1000,
             mean_interarrival_ms: float = 1.0,
             deadline_ms: float | None = None,
             malformed: float = 0.0, seed: int = 0,
             clock: ManualClock | None = None, slo=None) -> dict:
    """Drive an :class:`InferenceServer` with a closed-loop synthetic
    workload.

    The loop alternates arrival bursts and serving steps: simulated time
    advances by the exponential inter-arrival gaps and by each batch's
    measured service time as the queue's EWMA reports it, so overload
    genuinely backs the queue up and exercises shedding. When the queue
    signals backpressure the generator halves its offered rate until the
    backlog clears — the closed loop.

    Latency bookkeeping lives in the shared ``serving.latency_ms``
    histogram (reset at run start so the report is run-local) — the
    instrument ``repro profile`` snapshots and the SLO engine consumes.
    Pass an :class:`~repro.telemetry.slo.SLOEngine` as ``slo`` to stream
    every outcome into objective evaluation (``report["slo"]``).
    """
    if clock is None:
        clock = server.clock if isinstance(server.clock, ManualClock) \
            else ManualClock()
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    if not mean_interarrival_ms >= 0:
        raise ValueError("mean_interarrival_ms must be >= 0, "
                         f"got {mean_interarrival_ms}")
    if not (0.0 <= malformed <= 1.0):
        raise ValueError(f"malformed must be in [0, 1], got {malformed}")
    rng = as_rng(seed)
    cfg = server.predictor.config
    reg = get_registry()
    latency_hist = reg.histogram("serving.latency_ms")
    reg.reset("serving.latency_ms")
    outcomes = {"queued": 0, "rejected": 0, "shed": 0}
    served = 0
    degraded_responses = 0
    backpressured = 0
    last_deadline_shed = server.queue.shed_counts()["deadline"]
    sent = 0

    def serve_step() -> None:
        nonlocal served, degraded_responses, last_deadline_shed
        for resp in server.step():
            served += 1
            degraded_responses += resp["degraded"]
            if slo is not None:
                slo.observe("served", now=clock.now(),
                            latency_ms=resp["latency_ms"],
                            degraded=bool(resp["degraded"]),
                            trace_id=resp.get("trace_id"),
                            request_id=resp["request_id"])
        # Deadline sheds happen inside batch forming; surface the delta
        # to the SLO engine (count-only — the requests are gone).
        cur = server.queue.shed_counts()["deadline"]
        if slo is not None and cur > last_deadline_shed:
            slo.observe("shed", now=clock.now(),
                        count=cur - last_deadline_shed)
        last_deadline_shed = cur

    while sent < num_requests:
        # Burst of arrivals between two serving steps.
        burst = int(rng.integers(1, max(2, server.config.max_batch)))
        for _ in range(min(burst, num_requests - sent)):
            gap = float(rng.exponential(mean_interarrival_ms))
            if server.queue.should_backpressure():
                backpressured += 1
                gap *= 2.0  # the closed-loop client slows down
            clock.advance(gap)
            absolute = (clock.now() + deadline_ms
                        if deadline_ms is not None else None)
            req = _make_request(rng, cfg, sent, absolute,
                                malformed=bool(rng.random() < malformed))
            status = server.submit(req)
            outcomes[status["status"]] += 1
            if slo is not None and status["status"] in ("shed", "rejected"):
                slo.observe(status["status"], now=clock.now(),
                            trace_id=status.get("trace_id"),
                            request_id=status["request_id"])
            sent += 1
        serve_step()
        # Catch up on simulated time: the batch's service time.
        clock.advance(server.queue.expected_service_ms)
    while server.queue.depth:
        serve_step()

    stats = server.stats()
    report = {
        "requests": num_requests,
        "served": served,
        "outcomes": outcomes,
        "latency_ms": {
            "p50": latency_hist.quantile(0.50),
            "p99": latency_hist.quantile(0.99),
            "max": latency_hist.max if latency_hist.count else 0.0,
        },
        "shed": stats["shed"],
        "shed_rate": (outcomes["shed"] + stats["shed"]["deadline"])
        / num_requests,
        "degraded_responses": degraded_responses,
        "backpressure_signals": backpressured,
        "non_finite_outputs": stats["final_guard"],
        "breaker_transitions": stats["breaker_transitions"],
        "health": server.healthz(),
        "stats": stats,
        "reconciliation": reconcile(server, outcomes, served,
                                    clean=malformed == 0),
    }
    if slo is not None:
        report["slo"] = slo.report(clock.now())
    if server.injector is not None:
        report["injector"] = server.injector.counters()
    return report
