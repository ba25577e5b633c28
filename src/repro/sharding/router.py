"""The shard router: fan-out, gather, failover, and the global health view.

:class:`ShardRouter` is the sharded counterpart of
:class:`~repro.serving.server.InferenceServer`: the same request path
(:class:`~repro.serving.server.ServingFrontEnd` — admission, micro-batch
queue, towers, responses), but the pooling step fanned out across
:class:`ShardWorker` processes per the
:class:`~repro.sharding.topology.ShardPlan`. Per-table indices are
partitioned by slice (bag association preserved — every sub-request
carries full-length offsets, so empty bags contribute exact-zero
partials), dispatched shard by shard under a per-shard deadline, and the
sum partials are combined and converted to the table's real pooling
mode at the router.

The headline is the failure path, a ladder *across* shards layered on
the PR-3 ladder *within* one:

1. **primary shard** — the owning worker's per-slice ladder
   (rows → tt_direct → default row);
2. **hot-row replica** — when the primary is down and every id of the
   slice falls in the mirrored Zipf head, served **bit-identically**
   (same ``lookup`` + :func:`~repro.sharding.worker.pool_rows`);
3. **frequency-prior row** — the PR-3 bottom rung, applied to whatever
   ids the mirror does not cover. Cannot fail.

Detection is layered: a dispatch the worker itself refuses
(:class:`~repro.sharding.worker.ShardDown`) marks the shard down
fail-fast; transient dispatch faults (timeout, repeated net-drop) fail
over and feed the per-shard breaker, which marks the shard down only
when it opens; the :class:`~repro.runtime.supervisor.HealthPlane`
heartbeat window is the backstop for silent deaths. Recovery is the
:func:`repro.runtime.supervisor.supervise` walk, keyed on the health
*verdict*: supervised restart → re-warm → this tier's payload (hot-row
replay, mirror consistency check) → readmission with a clean breaker. Every decision is counted (``shard.failovers``,
``shard.replica_hits``, ``shard.failover_ms``) and surfaced through the
``shards`` section of ``healthz``/``readyz`` so one probe answers for
the whole fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.lfu import LFUTracker
from repro.data.batching import make_offsets
from repro.inference.predictor import Predictor
from repro.runtime import supervisor
from repro.serving.server import (
    ServerConfig,
    ServingFrontEnd,
    frequency_prior_row,
)
from repro.sharding.replication import ReplicaStore
from repro.sharding.topology import ShardPlan, build_shard_plan
from repro.sharding.worker import (
    NetDrop,
    ShardDown,
    ShardTimeout,
    ShardWorker,
    pool_rows,
)
from repro.telemetry import (
    annotate_span,
    emit_event,
    get_registry,
    trace,
)

__all__ = ["ShardConfig", "ShardRouter"]

# The ``cause`` a ``shard.failover`` span is annotated with, by exception
# (names that trace consumers have seen since the sharded tier landed).
_FAILOVER_CAUSE = {ShardDown: "ShardDown", ShardTimeout: "ShardTimeout",
                   NetDrop: "NetDrop"}


@dataclass(frozen=True)
class ShardConfig:
    """Knobs of the sharded tier (on top of :class:`ServerConfig`)."""

    num_shards: int = 4
    split_threshold: float = 1.0      # giant-table row-split trigger
    hot_rows: int = 64                # mirrored rows per slice
    heartbeat_interval_ms: float = 50.0
    miss_threshold: int = 3
    shard_deadline_ms: float = 40.0   # per-dispatch budget
    service_ms: float = 1.0           # simulated healthy dispatch cost
    slow_penalty_ms: float = 100.0    # shard.slow added latency
    hang_ms: float = 250.0            # shard.hang duration
    restart_after_ms: float | None = 200.0  # supervised restart delay
    rewarm_ms: float = 100.0          # re-warm phase duration

    def __post_init__(self):
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.shard_deadline_ms <= 0:
            raise ValueError("shard_deadline_ms must be > 0")


class ShardRouter(ServingFrontEnd):
    """Sharded serving tier: admission → queue → fan-out → gather → towers.

    Parameters
    ----------
    predictor:
        The frozen model; its embedding operators are the shard backends
        (shards are simulated processes sharing the operator objects —
        the process boundary is the message protocol, not the memory).
    config / shard_config:
        Queue-tier and shard-tier knobs.
    injector:
        Optional chaos source; ``shard.{crash,hang,slow,net_drop}`` plus
        the PR-3 ``serving.*`` sites are probed.
    clock:
        Monotonic-ms callable; tests and serve-bench pass a
        :class:`~repro.serving.queue.ManualClock`.
    """

    def __init__(self, predictor: Predictor, *,
                 config: ServerConfig = ServerConfig(),
                 shard_config: ShardConfig = ShardConfig(),
                 injector=None, clock=None):
        super().__init__(predictor, config=config, injector=injector,
                         clock=clock)
        self.shard_config = shard_config
        cfg = predictor.config
        sc = shard_config
        self.plan: ShardPlan = build_shard_plan(
            tuple(cfg.table_sizes), sc.num_shards,
            split_threshold=sc.split_threshold,
        )
        self.default_rows = [
            frequency_prior_row(emb, cfg.emb_dim)
            for emb in predictor.embeddings
        ]
        self.modes = [emb.mode for emb in predictor.embeddings]
        self.workers = [
            ShardWorker(
                s, self.plan.slices_of(s), predictor.embeddings,
                self.default_rows, emb_dim=cfg.emb_dim,
                breaker=config.breaker(f"shard{s}"),
                injector=injector, service_ms=sc.service_ms,
                slow_penalty_ms=sc.slow_penalty_ms, hang_ms=sc.hang_ms,
                rewarm_ms=sc.rewarm_ms,
            )
            for s in range(sc.num_shards)
        ]
        self.health = supervisor.HealthPlane(
            sc.num_shards, heartbeat_interval_ms=sc.heartbeat_interval_ms,
            miss_threshold=sc.miss_threshold,
        )
        # One mirror store per hosting shard: slice sl's hot rows live on
        # shard sl.replica, so losing that shard loses the mirror too.
        self.replicas = [ReplicaStore(hot_rows=sc.hot_rows)
                         for _ in range(sc.num_shards)]
        self.trackers = [LFUTracker() for _ in range(cfg.num_tables)]
        self.refresh_replicas()
        reg = get_registry()
        self._failovers = reg.counter("shard.failovers")
        self._replica_hits = reg.counter("shard.replica_hits")
        self._prior_fills = reg.counter("shard.prior_fills")
        self._net_drop_retries = reg.counter("shard.net_drop_retries")
        self._failover_ms = reg.histogram(
            "shard.failover_ms",
            bounds=(1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 500.0),
        )
        self._ready = all(np.isfinite(row).all() for row in self.default_rows)

    # ------------------------------------------------------------------ #
    # Replication upkeep
    # ------------------------------------------------------------------ #

    def _hot_ids(self, sl) -> np.ndarray:
        """Hot ids of a slice: observed head first, cold-start prefix else."""
        hot = np.asarray(self.trackers[sl.table].top_k(
            self.shard_config.hot_rows * 2), dtype=np.int64)
        hot = hot[sl.covers(hot)]
        if hot.size >= self.shard_config.hot_rows:
            return hot[: self.shard_config.hot_rows]
        cold = np.arange(
            sl.row_lo, min(sl.row_hi,
                           sl.row_lo + self.shard_config.hot_rows),
            dtype=np.int64,
        )
        merged = np.concatenate([hot, cold[~np.isin(cold, hot)]])
        return merged[: self.shard_config.hot_rows]

    def _lookup_fn(self, table: int):
        return self.predictor.embeddings[table].lookup

    def refresh_replicas(self, slices=None) -> int:
        """Re-mirror slices' hot heads (default: every slice's) from
        observed traffic; returns rows warmed.

        Called at construction, periodically by the load generator, and
        by the recovery payload for a readmitted shard's slices.
        """
        return sum(
            self.replicas[sl.replica].warm(
                sl, self._hot_ids(sl), self._lookup_fn(sl.table))
            for sl in (self.plan.slices if slices is None else slices)
            if sl.replica != sl.shard  # degenerate single-shard topology
        )

    def check_replica_consistency(self, slices=None) -> int:
        """Audit mirrors (default: every slice's) against their
        primaries; returns violations."""
        return sum(
            self.replicas[sl.replica].consistency_check(
                sl, self._lookup_fn(sl.table))
            for sl in (self.plan.slices if slices is None else slices)
            if sl.replica != sl.shard
        )

    # ------------------------------------------------------------------ #
    # Fleet lifecycle (driven by the load generator / bench loop)
    # ------------------------------------------------------------------ #

    def tick(self, now: float | None = None, *,
             probe_faults: bool = True) -> None:
        """One control-plane round: fault probes, heartbeats, recovery.

        ``probe_faults=False`` runs heartbeats and recovery without
        drawing new chaos — the load generator's quiesce phase, letting
        in-flight recovery finish after traffic stops.
        """
        now = self.clock() if now is None else now
        for s in supervisor.supervise(
                self.workers, self.health, now,
                restart_after_ms=self.shard_config.restart_after_ms,
                recover=lambda s: self._recover(s, now),
                probe_faults=probe_faults):
            # Silent death caught by the heartbeat backstop: the failover
            # clock runs from when the outage actually began.
            self._observe_failover(s, now)

    def _observe_failover(self, shard: int, now: float) -> None:
        """Sample failover latency from when the outage actually began."""
        since = self.workers[shard].impaired_since
        sample = max(0.0, now - since) if since is not None else 0.0
        self._failover_ms.observe(sample)

    def _recover(self, shard: int, now: float) -> None:
        """The recovery payload: replay hot rows, audit mirrors, readmit."""
        worker = self.workers[shard]
        worker.complete_rewarm({
            (sl.table, sl.row_lo): self._hot_ids(sl) for sl in worker.slices
        })
        # Its mirrors are refreshed + audited before it takes traffic.
        self.refresh_replicas(worker.slices)
        self.check_replica_consistency(worker.slices)
        supervisor.readmit(self.health, worker.breaker, shard, now)

    def kill_shard(self, shard: int, now: float | None = None) -> None:
        """Scheduled kill (``serve-bench --kill-shard``)."""
        now = self.clock() if now is None else now
        self.workers[shard].kill(now, cause="scheduled")

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #

    def _slice_subrequest(self, sl, indices: np.ndarray,
                          bag_of: np.ndarray, num_bags: int):
        """This slice's share of a table batch, with full-length offsets."""
        mask = sl.covers(indices)
        sub_idx = indices[mask]
        # bag_of is non-decreasing (requests concatenated in order), so
        # the masked sub-array is already grouped by bag.
        sub_counts = np.bincount(bag_of[mask], minlength=num_bags)
        return sub_idx, make_offsets(sub_counts)

    def _failover_pooled(self, sl, sub_idx: np.ndarray,
                         sub_offsets: np.ndarray, now: float) -> tuple:
        """Serve one slice without its primary: replica head + prior fill."""
        num_bags = sub_offsets.size - 1
        dim = self.predictor.config.emb_dim
        counts = np.diff(sub_offsets)
        store = self.replicas[sl.replica]
        replica_live = (sl.replica != sl.shard
                        and self.workers[sl.replica].state == "up")
        covered = (store.coverage(sl, sub_idx) if replica_live
                   else np.zeros(sub_idx.size, dtype=bool))
        bag_of = np.repeat(np.arange(num_bags), counts)
        pooled = np.zeros((num_bags, dim), dtype=np.float64)
        if covered.any():
            rows = store.gather(sl, sub_idx[covered])
            pooled += pool_rows(rows, bag_of[covered], num_bags, dim)
        missing = np.bincount(bag_of[~covered], minlength=num_bags)
        if missing.any():
            pooled += self.default_rows[sl.table] * missing[:, None]
            self._prior_fills.inc(int(missing.sum()))
        if covered.all() and sub_idx.size:
            self._replica_hits.inc()
            path = "replica"
        elif covered.any():
            path = "replica_partial"
        else:
            path = "prior_row"
        return pooled, path

    def _dispatch_shard(self, shard: int, requests: list, now: float):
        """One fan-out leg; returns ``(results, sim_ms)`` or raises."""
        worker = self.workers[shard]
        if not self.health.is_up(shard) or not worker.breaker.allow():
            raise ShardDown(f"shard {shard} routed around "
                            f"({self.health.verdict[shard]})")
        try:
            try:
                return worker.dispatch(requests, now,
                                       self.shard_config.shard_deadline_ms)
            except NetDrop:
                # One retry: a single lost message is not a dead shard.
                self._net_drop_retries.inc()
                return worker.dispatch(requests, now,
                                       self.shard_config.shard_deadline_ms)
        except ShardDown:
            # The worker itself refused: it is dead (or not readmitted).
            # That is a fact, not a symptom — mark down immediately.
            if self.health.mark_down(shard, now, reason="dispatch"):
                self._observe_failover(shard, now)
            worker.breaker.record_failure()
            raise
        except (ShardTimeout, NetDrop):
            # Transient by default: fail over this dispatch and let the
            # per-shard breaker decide availability — only when it opens
            # (failure_threshold strikes in the window) is the shard
            # marked down; the heartbeat plane backstops real hangs.
            worker.breaker.record_failure()
            if worker.breaker.state == "open" \
                    and self.health.mark_down(shard, now, reason="breaker"):
                self._observe_failover(shard, now)
            raise

    def _pool(self, batch: list, tables: list, now: float) -> tuple:
        """Fan out, gather, fail over; costs the simulated slowest leg."""
        num_bags = len(batch)
        cfg = self.predictor.config
        # Partition every table batch into per-slice sub-requests.
        per_shard: dict[int, list] = {
            s: [] for s in range(self.shard_config.num_shards)
        }
        for t, (indices, counts) in enumerate(tables):
            self.trackers[t].record(indices)
            bag_of = np.repeat(np.arange(num_bags), counts)
            for sl in self.plan.slices_of_table(t):
                sub_idx, sub_off = self._slice_subrequest(
                    sl, indices, bag_of, num_bags)
                per_shard[sl.shard].append((sl, sub_idx, sub_off))
        # Fan out in shard-id order (deterministic injector draws).
        gathered = {}
        degraded_slices = {}
        max_sim_ms = 0.0
        for s in sorted(per_shard):
            reqs = per_shard[s]
            if not reqs:
                continue
            try:
                with trace("shard.dispatch", shard=str(s)):
                    annotate_span(
                        slices=[sl.describe() for sl, _, _ in reqs],
                        breaker=self.workers[s].breaker.state,
                    )
                    results, sim_ms = self._dispatch_shard(s, reqs, now)
                    annotate_span(sim_ms=sim_ms)
            except (ShardDown, ShardTimeout, NetDrop) as exc:
                self._failovers.inc()
                emit_event(
                    "shard.failover", shard=s, at_ms=now,
                    slices=[sl.describe() for sl, _, _ in reqs])
                with trace("shard.failover", shard=str(s)):
                    annotate_span(cause=_FAILOVER_CAUSE[type(exc)])
                    paths = {}
                    for sl, sub_idx, sub_off in reqs:
                        pooled, path = self._failover_pooled(
                            sl, sub_idx, sub_off, now)
                        gathered[(sl.table, sl.row_lo)] = pooled
                        degraded_slices[sl.describe()] = path
                        paths[sl.describe()] = path
                    annotate_span(paths=paths)
                continue
            self.workers[s].breaker.record_success()
            for key, (pooled, rung) in results.items():
                gathered[key] = pooled
                if rung != "rows":
                    t, lo = key
                    degraded_slices[f"t{t}[{lo}:]@s{s}"] = rung
            max_sim_ms = max(max_sim_ms, sim_ms)
        # Gather: sum slice partials per table, apply the mode.
        pooled_tables = []
        for t, (_, counts) in enumerate(tables):
            total = np.zeros((num_bags, cfg.emb_dim), dtype=np.float64)
            for sl in self.plan.slices_of_table(t):
                total += gathered[(sl.table, sl.row_lo)]
            if self.modes[t] == "mean":
                total /= np.maximum(counts.astype(np.float64), 1.0)[:, None]
            pooled_tables.append(total)
        return pooled_tables, degraded_slices, max_sim_ms

    # ------------------------------------------------------------------ #
    # Probes & stats
    # ------------------------------------------------------------------ #

    def healthz(self) -> dict:
        """Global health roll-up: queue tier + every shard's condition."""
        open_breakers = [
            b.name for w in self.workers for b in w.breakers()
            if b.state != "closed"
        ]
        degraded = bool(open_breakers) \
            or self.health.up_count < self.shard_config.num_shards
        return {
            "status": "degraded" if degraded else "ok",
            "open_breakers": open_breakers,
            "queue_depth": self.queue.depth,
            "expected_service_ms": self.queue.expected_service_ms,
            "shed": self.queue.shed_counts(),
            "shards": self.health.snapshot(),
        }

    def readyz(self) -> dict:
        """Ready as long as every row range has *some* serving path.

        The prior row exists for every table, so the tier keeps
        answering with all shards down; ``full_capacity`` tells probes
        whether any failover rung is currently in play.
        """
        return {
            "ready": bool(self._ready and self.plan.slices),
            "full_capacity":
                self.health.up_count == self.shard_config.num_shards,
            "shards_up": self.health.up_count,
        }

    def fallbacks_by_table(self) -> dict[str, dict[str, int]]:
        """Ladder fallback counters rolled up across shards, per table."""
        rollup: dict[str, dict[str, int]] = {}
        for w in self.workers:
            for (t, _lo), lad in w.ladders.items():
                agg = rollup.setdefault(str(t), {})
                for rung, n in lad.fallback_counts().items():
                    agg[rung] = agg.get(rung, 0) + n
        return rollup

    def stats(self) -> dict:
        """Reconciliation-ready counters for the whole tier."""
        return {
            "requests": self._requests.value,
            "served": self._served.value,
            "batches": self._batches.value,
            "admission": self.sanitizer.stats(),
            "shed": self.queue.shed_counts(),
            "failovers": self._failovers.value,
            "replica_hits": self._replica_hits.value,
            "prior_fills": self._prior_fills.value,
            "net_drop_retries": self._net_drop_retries.value,
            "failover_ms": self._failover_ms.summary(),
            "final_guard": self._final_guard.value,
            "fallbacks": self.fallbacks_by_table(),
            "latency_ms": self._latency.summary(),
            "health": self.health.snapshot(),
            "replicas": [store.stats() for store in self.replicas],
            "workers": [w.stats() for w in self.workers],
            "topology": {
                "num_shards": self.shard_config.num_shards,
                "slices": [sl.describe() for sl in self.plan.slices],
                "spread": self.plan.spread(),
            },
        }
