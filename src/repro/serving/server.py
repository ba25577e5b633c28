"""The hardened inference runtime: admission → queue → degradation ladder.

:class:`InferenceServer` serves a frozen model — a
:class:`~repro.models.dlrm.DLRM`, read through its ``embeddings`` and
``logits_from_pooled`` (the towers) — behind the three defensive layers
docs/SERVING.md describes:

1. **Admission** (:class:`~repro.serving.admission.RequestSanitizer`) —
   malformed requests are repaired or rejected before touching the model.
2. **Deadline-aware micro-batching**
   (:class:`~repro.serving.queue.MicroBatchQueue`) — overload sheds
   requests instead of growing latency without bound.
3. **Degradation ladder** — per-table embedding backends behind circuit
   breakers: the cached hybrid operator first, the direct TT contraction
   when the cache is poisoned or broken, and finally a frequency-prior
   default row that cannot fail. A rung *fails* when it raises, returns
   non-finite values, or returns implausibly large magnitudes (the
   ``scale``-fault signature); failures trip the rung's breaker and
   trigger the backend's ``scrub()`` repair (a no-op for operators with
   no derived state) so the rung can recover. The server therefore keeps
   answering — at reduced fidelity — no matter which backend is poisoned.
   Every table's primary rung is read in one pass per micro-batch
   (:func:`~repro.ops.embedding.lookup_tables`); only a table that pass
   did not serve walks the rest of its ladder.

Chaos-testable by construction: a
:class:`~repro.reliability.fault_injection.FaultInjector` is probed at
``serving.request`` (corrupt inbound payload), ``serving.queue`` (lost
queue entry) and ``serving.backend`` (poisoned backend output), and every
defensive action is counted in the shared metrics registry so
``repro serve-bench`` can reconcile them against the injector; ladder
descents specifically are counted per table and rung under
``serving.fallback{table=,rung=}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

from repro.ops.activations import sigmoid
from repro.ops.embedding import lookup_tables
from repro.serving.admission import Rejection, Request, RequestSanitizer
from repro.serving.breaker import CircuitBreaker
from repro.serving.queue import MicroBatchQueue, monotonic_ms
from repro.telemetry import (
    annotate_span,
    emit_event,
    finish_request,
    get_registry,
    get_request_tracer,
    trace,
)

__all__ = ["ServerConfig", "InferenceServer", "Rung", "TableLadder",
           "frequency_prior_row", "table_batches"]

# A pooled embedding magnitude beyond this is treated as corruption even
# though it is finite (catches "scale"-kind faults before the towers
# launder them into a confident wrong answer).
MAGNITUDE_LIMIT = 1e15


def _plausible(pooled: np.ndarray, axis=None) -> np.ndarray:
    """Finite and below :data:`MAGNITUDE_LIMIT`, reduced over ``axis``
    (NaN compares false, so one comparison covers both)."""
    return (np.abs(pooled) < MAGNITUDE_LIMIT).all(axis=axis)


# Rows sampled for a default-row prior when no frequency tracker exists.
_PRIOR_SAMPLE_ROWS = 256
# Hot rows averaged when a frequency tracker is available.
_PRIOR_HOT_ROWS = 64


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs for the serving runtime (docs/SERVING.md)."""

    oov_policy: str = "clamp"
    max_depth: int = 64
    max_batch: int = 32
    default_deadline_ms: float = 50.0
    high_watermark: float = 0.8
    failure_threshold: int = 3
    breaker_window: int = 20
    cooldown: int = 25
    half_open_successes: int = 2

    def breaker(self, name: str) -> CircuitBreaker:
        """A circuit breaker with this config's thresholds."""
        return CircuitBreaker(
            name, failure_threshold=self.failure_threshold,
            window=self.breaker_window, cooldown=self.cooldown,
            half_open_successes=self.half_open_successes,
        )


class Rung:
    """One ladder level: a named backend call guarded by a breaker."""

    def __init__(self, name: str, compute, breaker: CircuitBreaker):
        self.name = name
        self.compute = compute  # (indices, offsets) -> (bags, dim) pooled
        self.breaker = breaker


class TableLadder:
    """Degradation ladder for one embedding table.

    ``serve`` walks the rungs top-down, skipping open breakers, validating
    every output, and falling through to the default row — which is a
    constant held by the server and therefore cannot fail.
    """

    def __init__(self, table: int, rungs: list[Rung], default_row: np.ndarray,
                 mode: str, scrub, injector=None):
        self.table = table
        self.rungs = rungs
        self.default_row = default_row
        self.mode = mode
        self.scrub = scrub
        self.injector = injector
        reg = get_registry()
        self._fallback = {
            rung.name: reg.counter("serving.fallback",
                                   table=str(table), rung=rung.name)
            for rung in rungs[1:]
        }
        self._fallback["default_row"] = reg.counter(
            "serving.fallback", table=str(table), rung="default_row"
        )
        self._failures = reg.counter("serving.backend_failures",
                                     table=str(table))
        self._scrubs = reg.counter("serving.scrubs", table=str(table))

    # ------------------------------------------------------------------ #

    def _default_pooled(self, counts: np.ndarray) -> np.ndarray:
        pooled = np.tile(self.default_row, (counts.size, 1))
        if self.mode == "sum":
            pooled = pooled * counts[:, None]
        return pooled

    @staticmethod
    def _valid(pooled: np.ndarray) -> bool:
        return bool(_plausible(pooled))

    def serve(self, indices: np.ndarray, offsets: np.ndarray,
              first: int = 0) -> tuple[np.ndarray, str]:
        """Pool one table's bags from rung ``first`` down; returns
        ``(pooled, rung_name)``."""
        for level, rung in enumerate(self.rungs[first:], start=first):
            if not rung.breaker.allow():
                continue
            try:
                with trace("serving.pooled", table=str(self.table),
                           rung=rung.name):
                    annotate_span(breaker=rung.breaker.state,
                                  bags=int(offsets.size - 1))
                    pooled = np.asarray(rung.compute(indices, offsets),
                                        dtype=np.float64)
                    if self.injector is not None:
                        self.injector.corrupt("serving.backend", pooled)
            except Exception as exc:  # noqa: BLE001 - the ladder IS the handler
                self._record_failure(rung, repr(exc))
                continue
            if not self._valid(pooled):
                self._record_failure(rung, "non-finite or implausible output")
                continue
            rung.breaker.record_success()
            if level > 0:
                self._fallback[rung.name].inc()
            return pooled, rung.name
        counts = np.diff(offsets)
        self._fallback["default_row"].inc()
        return self._default_pooled(counts), "default_row"

    def _record_failure(self, rung: Rung, detail: str) -> None:
        rung.breaker.record_failure()
        self._failures.inc()
        emit_event("serving.backend_failure", table=self.table,
                   rung=rung.name, detail=detail,
                   breaker_state=rung.breaker.state)
        repaired = self.scrub()
        if repaired:
            self._scrubs.inc(int(repaired))

    # ------------------------------------------------------------------ #

    def breakers(self) -> list[CircuitBreaker]:
        return [rung.breaker for rung in self.rungs]

    def fallback_counts(self) -> dict[str, int]:
        return {name: c.value for name, c in self._fallback.items()}

    @property
    def backend_failures(self) -> int:
        return self._failures.value

    @property
    def scrubbed_rows(self) -> int:
        return self._scrubs.value


def frequency_prior_row(emb, dim: int) -> np.ndarray:
    """Default row for one table: a frequency-weighted mean embedding.

    With a :class:`~repro.cache.lfu.LFUTracker` attached (the cached TT
    operator), the prior is the access-count-weighted average of the hot
    rows — the best constant guess for a random future lookup under the
    observed Zipf traffic. Without one, it is the plain mean of a row
    sample. Always finite: non-finite inputs are zeroed before averaging.
    """
    tracker = getattr(emb, "tracker", None)
    num_rows = emb.num_rows
    ids = None
    weights = None
    if tracker is not None:
        hot = np.asarray(tracker.top_k(_PRIOR_HOT_ROWS), dtype=np.int64)
        if hot.size:
            ids = hot
            weights = np.maximum(np.asarray(tracker.count(hot),
                                            dtype=np.float64), 1.0)
    if ids is None:
        ids = np.arange(min(_PRIOR_SAMPLE_ROWS, num_rows), dtype=np.int64)
        weights = np.ones(ids.size)
    # lookup() materialises rows without touching trackers or backward
    # caches.
    rows = np.nan_to_num(emb.lookup(ids), nan=0.0, posinf=0.0, neginf=0.0)
    row = (rows * weights[:, None]).sum(axis=0) / weights.sum()
    if not np.isfinite(row).all():  # pragma: no cover - belt and braces
        row = np.zeros(dim)
    return row


def table_batches(batch: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """One micro-batch as a ``(indices, counts)`` pair per table: the
    table's ids in request order and its per-request bag sizes.

    An admitted request holds its ids as one array in table order, so the
    batch is one concatenation (request-major) and one stable sort by
    table, whatever the number of tables; the pairs are views of the two
    results.
    """
    counts = np.array([req.counts for req in batch])  # (B, T)
    ids = np.concatenate([req.ids for req in batch])
    table_of = np.repeat(np.tile(np.arange(counts.shape[1]), len(batch)),
                         counts.ravel())
    ids = ids[np.argsort(table_of, kind="stable")]
    counts = np.ascontiguousarray(counts.T)
    bounds = [0, *np.cumsum(counts.sum(axis=1)).tolist()]
    return [(ids[lo:hi], row)
            for lo, hi, row in zip(bounds, bounds[1:], counts)]


class InferenceServer:
    """Robust serving runtime in front of a frozen model: admission
    → queue → every table's ladder → towers → responses.

    Parameters
    ----------
    predictor:
        The frozen model to serve, only read: a
        :class:`~repro.models.dlrm.DLRM` or anything with its ``config``,
        ``embeddings`` and ``logits_from_pooled``.
    config:
        :class:`ServerConfig` tuning knobs.
    injector:
        Optional fault injector; register any of ``serving.request``,
        ``serving.queue``, ``serving.backend`` to chaos-test the ladder.
    clock:
        Monotonic-millisecond callable (defaults to wall time; unit tests
        pass a :class:`~repro.serving.queue.ManualClock`).
    """

    def __init__(self, predictor, *,
                 config: ServerConfig = ServerConfig(),
                 injector=None, clock=None):
        self.predictor = predictor
        self.config = config
        self.injector = injector
        self.clock = clock if clock is not None else monotonic_ms
        self.sanitizer = RequestSanitizer(predictor.config,
                                          oov_policy=config.oov_policy)
        self.queue = MicroBatchQueue(
            max_depth=config.max_depth, max_batch=config.max_batch,
            default_deadline_ms=config.default_deadline_ms,
            high_watermark=config.high_watermark,
            clock=self.clock, injector=injector,
        )
        reg = get_registry()
        self._requests = reg.counter("serving.requests")
        self._served = reg.counter("serving.served")
        self._batches = reg.counter("serving.batches")
        self._final_guard = reg.counter("serving.final_guard")
        self._latency = reg.histogram(
            "serving.latency_ms",
            bounds=(0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                    500.0, 1000.0),
        )
        self._embeddings = list(predictor.embeddings)
        self.ladders = [
            self._build_ladder(t, emb)
            for t, emb in enumerate(self._embeddings)
        ]

    # ------------------------------------------------------------------ #
    # Ladder construction
    # ------------------------------------------------------------------ #

    def _build_ladder(self, table: int, emb) -> TableLadder:
        # Rungs read through ``lookup_bags``: ``forward``'s output with
        # nothing recorded, refreshed or kept for a backward — the server
        # serves what ``populate()`` last built and never changes it.
        rungs = [Rung("primary", emb.lookup_bags,
                      self.config.breaker(f"t{table}.primary"))]
        tt = getattr(emb, "tt", None)
        if tt is not None:
            # The cached operator's escape hatch: contract the TT cores
            # directly, bypassing a poisoned uncompressed cache.
            rungs.append(Rung("tt_direct", tt.lookup_bags,
                              self.config.breaker(f"t{table}.tt_direct")))
        default_row = frequency_prior_row(emb, self.predictor.config.emb_dim)
        return TableLadder(table, rungs, default_row, emb.mode,
                           scrub=emb.scrub, injector=self.injector)

    # ------------------------------------------------------------------ #
    # The request path
    # ------------------------------------------------------------------ #

    def submit(self, request: Request) -> dict:
        """Admit one request; returns a status document.

        ``{"status": "queued" | "rejected" | "shed", ...}`` — a rejected
        request names its (counted) reason; a shed one names the shed
        class. Backpressure is surfaced as ``"backpressure": True`` so
        clients can slow down.
        """
        self._requests.inc()
        if self.injector is not None:
            spec = self.injector.draw("serving.request")
            if spec is not None:
                dense = np.array(request.dense, dtype=np.float64, copy=True)
                self.injector.apply(spec, dense)
                request = Request(dense=dense, sparse=request.sparse,
                                  deadline_ms=request.deadline_ms,
                                  request_id=request.request_id)
        rt = get_request_tracer()
        ctx = rt.maybe_start(request.request_id, now=self.clock())
        with rt.scope([ctx]):
            with trace("serving.admission"):
                admitted = self.sanitizer.sanitize(request)
        if isinstance(admitted, Rejection):
            rt.finish(ctx, "rejected", now=self.clock(),
                      reason=admitted.reason)
            return {"status": "rejected", "reason": admitted.reason,
                    "detail": admitted.detail,
                    "request_id": admitted.request_id,
                    **({"trace_id": ctx.trace_id} if ctx else {})}
        outcome = self.queue.submit(admitted)
        if outcome != "queued":
            rt.finish(ctx, "shed", now=self.clock(),
                      reason=outcome.removeprefix("shed_"))
            return {"status": "shed", "reason": outcome.removeprefix("shed_"),
                    "request_id": admitted.request_id,
                    **({"trace_id": ctx.trace_id} if ctx else {})}
        if ctx is not None:
            admitted.trace_ctx = ctx
        return {"status": "queued", "request_id": admitted.request_id,
                "repairs": list(admitted.repairs),
                "backpressure": self.queue.should_backpressure()}

    def _pool(self, batch: list, tables: list) -> tuple:
        """Pool one micro-batch: every primary rung in one read pass, then
        each table that pass did not serve down the rest of its ladder.

        ``tables[t]`` is ``(indices, counts)``: table ``t``'s ids in
        request order and the per-request bag sizes. Returns a ``(bags,
        dim)`` array per table and the ``{table: rung}`` map of every
        table not served by its primary rung.

        Each primary breaker is asked once; the tables it lets through are
        read and pooled by one :func:`~repro.ops.embedding.lookup_tables`
        call under one ``serving.pooled`` span, and their slices checked in
        one vector pass. The tables are then walked in order — probe
        ``serving.backend`` on the table's slice, re-check a slice a fault
        touched, record the rung's outcome, and on failure scrub and go on
        from rung 1 — so fault draws, breaker outcomes and scrubs happen in
        the order a per-table ladder would make them.
        """
        pooled = []
        served_by: dict[int, str] = {}
        # Every table's CSR offsets from one cumulative sum.
        offsets = np.zeros((len(tables), len(batch) + 1), dtype=np.int64)
        np.cumsum([counts for _, counts in tables], axis=1, out=offsets[:, 1:])
        allowed = [lad.rungs[0].breaker.allow() for lad in self.ladders]
        read = [t for t, ok in enumerate(allowed) if ok]
        with trace("serving.pooled", rung="primary"):
            annotate_span(tables=len(read), bags=len(batch))
            block, failed = lookup_tables(
                [self._embeddings[t] for t in read],
                [(tables[t][0], offsets[t]) for t in read])
            block = np.asarray(block, dtype=np.float64)
            valid = _plausible(block, axis=(1, 2))
            slot = dict(zip(read, range(len(read))))
            for t, ladder in enumerate(self.ladders):
                j = slot.get(t)
                if j is not None:
                    primary = ladder.rungs[0]
                    if j in failed:
                        ladder._record_failure(primary, repr(failed[j]))
                    else:
                        vecs = block[j]
                        ok = valid[j]
                        if (self.injector is not None and self.injector.corrupt(
                                "serving.backend", vecs)):
                            ok = ladder._valid(vecs)
                        if ok:
                            primary.breaker.record_success()
                            pooled.append(vecs)
                            continue
                        ladder._record_failure(
                            primary, "non-finite or implausible output")
                vecs, rung = ladder.serve(tables[t][0], offsets[t], first=1)
                pooled.append(vecs)
                served_by[t] = rung
        return pooled, served_by

    def step(self) -> list[dict]:
        """Serve one micro-batch from the queue; returns the responses.

        A response's latency is one clock read after the towers minus its
        arrival; the measured service time feeds the queue's pacing EWMA.
        """
        batch = self.queue.next_batch()
        if not batch:
            return []
        rt = get_request_tracer()
        ctxs = [c for r in batch
                if (c := getattr(r, "trace_ctx", None)) is not None]
        formed_at = self.clock()
        start_ns = perf_counter_ns()
        with rt.scope(ctxs):
            for req in batch:
                ctx = getattr(req, "trace_ctx", None)
                if ctx is not None:
                    ctx.record_span("queue.wait", req.arrival_ms, formed_at)
            with trace("serving.batch"):
                annotate_span(batch_size=len(batch))
                dense = np.stack([r.dense for r in batch])
                pooled, served_by = self._pool(batch, table_batches(batch))
                with trace("serving.towers"):
                    probs = sigmoid(
                        self.predictor.logits_from_pooled(dense, pooled)
                    )
            bad = ~np.isfinite(probs)
            if bad.any():  # the last line of defence; should be unreachable
                self._final_guard.inc(int(bad.sum()))
                emit_event("serving.final_guard", count=int(bad.sum()))
                probs = np.where(bad, 0.5, probs)
        service_ms = (perf_counter_ns() - start_ns) / 1e6
        done = self.clock()
        self.queue.observe_service(service_ms)
        self._batches.inc()
        self._served.inc(len(batch))
        responses = []
        for req, prob in zip(batch, probs):
            latency = done - req.arrival_ms
            self._latency.observe(latency)
            resp = {
                "request_id": req.request_id,
                "prob": float(prob),
                "latency_ms": latency,
                "degraded": bool(served_by),
                "served_by": dict(served_by),
                "repairs": list(req.repairs),
            }
            ctx = getattr(req, "trace_ctx", None)
            if ctx is not None:
                resp["trace_id"] = ctx.trace_id
            finish_request(req, "served", now=done,
                           latency_ms=latency, degraded=bool(served_by))
            responses.append(resp)
        return responses

    def drain(self) -> list[dict]:
        """Serve micro-batches until the queue is empty."""
        responses = []
        while self.queue.depth:
            responses.extend(self.step())
        return responses

    # ------------------------------------------------------------------ #
    # Probes & stats
    # ------------------------------------------------------------------ #

    def breaker_transitions(self) -> list[dict]:
        return [
            {"breaker": b.name, "from": a, "to": c}
            for lad in self.ladders for b in lad.breakers()
            for a, c in b.transitions
        ]

    def healthz(self) -> dict:
        """Liveness/condition probe: is the server answering, and how well?"""
        open_breakers = [
            b.name for lad in self.ladders for b in lad.breakers()
            if b.state != "closed"
        ]
        return {
            "status": "degraded" if open_breakers else "ok",
            "open_breakers": open_breakers,
            "queue_depth": self.queue.depth,
            "expected_service_ms": self.queue.expected_service_ms,
            "shed": self.queue.shed_counts(),
        }

    def stats(self) -> dict:
        """Every serving counter, reconciliation-ready (serve-bench).

        Degradation is attributed per table, not just in aggregate: the
        ``fallbacks``/``backend_failures_by_table``/``scrubs_by_table``
        breakdowns point at the table whose ladder is degrading rather
        than a lump sum.
        """
        lat = self._latency
        return {
            "requests": self._requests.value,
            "served": self._served.value,
            "batches": self._batches.value,
            "admission": self.sanitizer.stats(),
            "shed": self.queue.shed_counts(),
            "fallbacks": {
                str(lad.table): lad.fallback_counts() for lad in self.ladders
            },
            "backend_failures": sum(lad.backend_failures
                                    for lad in self.ladders),
            "backend_failures_by_table": {
                str(lad.table): lad.backend_failures for lad in self.ladders
                if lad.backend_failures
            },
            "scrubbed_rows": sum(lad.scrubbed_rows for lad in self.ladders),
            "scrubs_by_table": {
                str(lad.table): lad.scrubbed_rows for lad in self.ladders
                if lad.scrubbed_rows
            },
            "final_guard": self._final_guard.value,
            "breaker_transitions": self.breaker_transitions(),
            "latency_ms": lat.summary(),
        }
