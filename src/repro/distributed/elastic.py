"""Elastic fault-tolerant data-parallel training: shard loss and recovery.

TT-Rec's compression makes full replication the natural training layout
(every worker holds the whole compressed model), but the *run* still has
to survive a worker disappearing mid-training. This module is the
training side of the supervisor both tiers share (:mod:`repro.runtime`):

- :class:`TrainerWorker` — one data-parallel worker: the shared
  :class:`~repro.runtime.worker.SupervisedWorker` state machine (state
  table in :mod:`repro.runtime.worker`) with a local forward/backward
  as its dispatch payload. Faults arrive through the seeded injector
  sites ``dist.{crash,hang,slow,net_drop}`` or a ``--kill-worker`` spec.
- :class:`ElasticTrainer` — the supervisor. Every step it dispatches the
  global batch across the *live* membership (re-sharding over survivors
  when a worker is lost, so no batch is ever dropped), reduces gradients
  through the degraded :class:`~repro.distributed.collectives.Communicator`,
  detects silent deaths with a :class:`~repro.runtime.supervisor.HealthPlane`
  heartbeat (prefix ``dist.worker``), applies per-dispatch
  timeout/retry/backoff with breaker-gated eviction, and supplies the
  recovery payload of :func:`repro.runtime.supervisor.supervise`.

The recovery ladder (all in simulated time)::

    marked down ──restart_after_ms──▶ restart (replica memory poisoned,
        │                             fresh optimizer)
        └──▶ rewarming ──rewarm_ms──▶ restore every shard-delta
             checkpoint at the last common step ──▶ replay hot rows
             (rows touched since that step, from a survivor) ──▶
             checksum audit vs the survivor ──▶ readmit + resync barrier

Exactness: each worker scales its local BCE gradient by
``shard_size / batch_size`` before backward, so the ``allreduce_sum`` of
partial gradients equals the *global-batch mean* gradient for any
partition of the batch — degraded steps over survivors compute the same
update a full fleet would (modulo float summation order), which is why a
chaos run's final loss tracks the no-fault run.

Ledger reconciliation (:func:`reconcile_elastic`) balances every
``dist.*`` injector firing against its defensive counter and proves no
lost batches: every batch fed is applied exactly once, every sample
accounted. The whole drill is deterministic — ManualClock plus one seeded
injector stream — so same-seed runs produce byte-identical ledgers and
flight dumps. Beyond the reconciled counters the drill exports
``dist.step.applied`` (optimizer steps actually applied),
``dist.kills_scheduled{worker=}`` (operator-scheduled kills, as opposed
to injector crashes) and the ``dist.recover.time_ms`` histogram
(down → readmitted, simulated milliseconds).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.data.batching import Batch
from repro.distributed.collectives import Communicator
from repro.distributed.data_parallel import (
    shard_batch_counts,
    sync_gradients,
)
from repro.distributed.model_parallel import partition_parameters
from repro.models.serialization import load_state_dict, state_dict
from repro.ops.loss import bce_with_logits
from repro.ops.optim import RowWiseAdagrad, SparseSGD
from repro.runtime import supervisor
from repro.runtime.supervisor import KillSpec as WorkerKillSpec
from repro.runtime.worker import (
    SupervisedWorker,
    WorkerDown,
    WorkerNetDrop,
    WorkerTimeout,
)
from repro.serving.breaker import CircuitBreaker
from repro.serving.queue import ManualClock
from repro.telemetry import emit_event, get_registry, trace

__all__ = ["ElasticTrainer", "TrainerWorker", "ElasticConfig", "ElasticError",
           "WorkerDown", "WorkerTimeout", "WorkerNetDrop",
           "WorkerKillSpec", "parse_worker_kill_spec", "reconcile_elastic"]


class ElasticError(RuntimeError):
    """The elastic run cannot make progress (no live workers, lost batch)."""


def parse_worker_kill_spec(spec: str) -> WorkerKillSpec:
    """Parse ``"1@60"`` (kill worker 1 when batch 60 is fed)."""
    return supervisor.parse_kill_spec(spec, steps=True)


@dataclass(frozen=True)
class ElasticConfig:
    """Timing, retry, and recovery knobs of the elastic runtime.

    All times are simulated milliseconds on the run's ManualClock.
    """

    step_ms: float = 10.0             # healthy per-worker compute per step
    slow_penalty_ms: float = 30.0     # added to the next dispatch on dist.slow
    hang_ms: float = 120.0            # how long a dist.hang stays wedged
    heartbeat_interval_ms: float = 50.0
    miss_threshold: int = 3
    restart_after_ms: float = 100.0   # marked-down -> supervised restart
    rewarm_ms: float = 50.0           # restart -> recovery eligible
    deadline_ms: float = 50.0         # per-dispatch reply deadline
    dispatch_retries: int = 2         # re-dispatches before a breaker strike
    backoff: float = 2.0              # deadline multiplier per retry
    step_attempts: int = 8            # re-shard attempts before a batch is lost
    straggler_factor: float = 4.0     # ewma spread that triggers re-weighting
    ewma_alpha: float = 0.3
    breaker_threshold: int = 3
    breaker_window: int = 20

    def __post_init__(self):
        if self.step_ms <= 0:
            raise ValueError(f"step_ms must be > 0, got {self.step_ms}")
        if self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {self.deadline_ms}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.step_attempts < 1:
            raise ValueError(
                f"step_attempts must be >= 1, got {self.step_attempts}"
            )
        if self.straggler_factor < 1.0:
            raise ValueError(
                f"straggler_factor must be >= 1, got {self.straggler_factor}"
            )
        if not (0.0 < self.ewma_alpha <= 1.0):
            raise ValueError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )


class TrainerWorker(SupervisedWorker):
    """One data-parallel training worker: the supervised-worker machine
    with a local forward/backward (``compute_grads``) as its dispatch
    payload, on the run's :class:`~repro.serving.queue.ManualClock`.
    """

    site_prefix = "dist"
    event_prefix = "dist.worker"
    label = "worker"

    def __init__(self, worker_id: int, replica, *, make_optimizer,
                 config: ElasticConfig, injector=None):
        super().__init__(worker_id, injector=injector,
                         service_ms=config.step_ms,
                         slow_penalty_ms=config.slow_penalty_ms,
                         hang_ms=config.hang_ms, rewarm_ms=config.rewarm_ms)
        self.worker_id = worker_id
        self.replica = replica
        self.config = config
        self._make_optimizer = make_optimizer
        self.optimizer = make_optimizer(replica)
        self.ewma_ms: float | None = None

    def _on_restart(self) -> None:
        """The old process's memory is gone: the replica is poisoned
        (NaN-filled) and the optimizer rebuilt with empty slots — nothing
        short of a full shard restore + hot-row replay can pass the
        recovery audit afterwards.
        """
        for p in self.replica.parameters():
            p.data.fill(np.nan)
            p.zero_grad()
        self.optimizer = self._make_optimizer(self.replica)

    def readmit(self, now: float) -> None:
        """Recovery complete: the worker takes training traffic again."""
        self.ewma_ms = None
        self._readmit(at_ms=now)

    def compute_grads(self, shard: Batch, scale: float, now: float,
                      deadline_ms: float) -> tuple[float, float]:
        """One local forward/backward over a batch shard.

        The local BCE gradient is scaled by ``scale`` (= shard size /
        global batch size) so the fleet-wide ``allreduce_sum`` of these
        partial gradients is exactly the global-batch mean gradient.
        Gradients (a sparse parameter's as its pair) are left on the
        replica's parameters. Returns ``(shard mean loss, simulated service ms)``.
        Raises :class:`WorkerDown`, :class:`WorkerTimeout` or
        :class:`WorkerNetDrop` per the failure model.
        """
        sim_ms = self.begin_dispatch(now, deadline_ms)
        self.optimizer.zero_grad()
        logits = self.replica.forward(shard.dense, shard.sparse,
                                      shard.per_sample_weights)
        loss, grad = bce_with_logits(logits, shard.labels)
        self.replica.backward(grad * scale)
        self._dispatches.inc()
        return loss, sim_ms

    def stats(self) -> dict:
        return {**super().stats(), "ewma_ms": self.ewma_ms}


def _state_checksum(replica, optimizer) -> int:
    """CRC32 over every parameter and optimizer slot (bit-level audit)."""
    crc = 0
    for p in replica.parameters():
        crc = zlib.crc32(p.data.tobytes(), crc)
    opt_state = optimizer.state_dict()
    for key in sorted(opt_state):
        value = opt_state[key]
        if isinstance(value, np.ndarray):
            crc = zlib.crc32(value.tobytes(), crc)
        else:
            crc = zlib.crc32(repr(value).encode(), crc)
    return crc


class ElasticTrainer:
    """Supervisor for K elastic data-parallel workers.

    Parameters
    ----------
    replicas:
        K structurally identical models (parameters are broadcast from
        replica 0 at construction, as in
        :class:`~repro.distributed.data_parallel.DataParallelTrainer`).
    lr / optimizer:
        Per-worker optimizer: ``"sgd"`` (SparseSGD) or ``"adagrad"``
        (RowWiseAdagrad — gives the shard-delta checkpoints real
        per-row optimizer state to restore and replay).
    injector:
        Shared :class:`~repro.reliability.fault_injection.FaultInjector`
        driving both the ``dist.*`` worker sites and the
        ``collective.*`` sites of the gradient allreduce.
    checkpoint / checkpoint_every:
        A :class:`~repro.reliability.checkpoint.CheckpointManager` for
        shard-delta checkpoints every N applied steps. Each live worker
        saves its owned parameter slice; a survivor *adopts* the slice
        of any worker that is down so every round stays complete. Without
        a manager, recovery falls back to a full state copy from a
        survivor (correct, but moves the whole model instead of a delta).
    kill_specs:
        Scheduled :class:`WorkerKillSpec` kills (``--kill-worker``).

    One elastic run per process at a time: construction resets the
    ``dist.*`` registry namespace so ledger reconciliation is run-local.
    """

    def __init__(self, replicas: list, *, lr: float = 0.1,
                 optimizer: str = "sgd", injector=None,
                 clock: ManualClock | None = None,
                 config: ElasticConfig | None = None,
                 checkpoint=None, checkpoint_every: int = 0,
                 kill_specs: list[WorkerKillSpec] | None = None):
        if len(replicas) < 2:
            raise ValueError("elastic training needs at least 2 workers")
        if optimizer not in ("sgd", "adagrad"):
            raise ValueError(f"optimizer must be sgd|adagrad, got {optimizer!r}")
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        reg = get_registry()
        reg.reset(prefix="dist.")
        self.config = config or ElasticConfig()
        self.injector = injector
        self.clock = clock or ManualClock()
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every if checkpoint is not None else 0
        self.kill_specs = list(kill_specs or [])
        world = len(replicas)
        supervisor.check_kill_targets(self.kill_specs, world, "worker")
        reference = state_dict(replicas[0])
        for replica in replicas[1:]:
            load_state_dict(replica, reference)
        if optimizer == "sgd":
            def make_optimizer(replica):
                return SparseSGD(replica.parameters(), lr=lr)
        else:
            def make_optimizer(replica):
                return RowWiseAdagrad(replica.parameters(), lr=lr)
        self.workers = [
            TrainerWorker(w, replica, make_optimizer=make_optimizer,
                          config=self.config, injector=injector)
            for w, replica in enumerate(replicas)
        ]
        self.comm = Communicator(world, injector=injector)
        self.health = supervisor.HealthPlane(
            world, heartbeat_interval_ms=self.config.heartbeat_interval_ms,
            miss_threshold=self.config.miss_threshold, prefix="dist.worker")
        self.breakers = [
            CircuitBreaker(f"dist.worker{w}",
                           failure_threshold=self.config.breaker_threshold,
                           window=self.config.breaker_window)
            for w in range(world)
        ]
        # Checkpoint-shard ownership: parameter index -> owner worker.
        self.owner = partition_parameters(replicas[0], world)
        self.owned = {w: [i for i, o in enumerate(self.owner) if o == w]
                      for w in range(world)}
        # Rows to replay per parameter since the last checkpoint round:
        # ndarray of touched rows for sparse parameters, None = the whole
        # (dense) parameter must be copied.
        self._replay_rows: dict[int, np.ndarray | None] = {}
        self._reset_replay_tracking()
        self._step_index = 0       # batches fed (kill specs key on this)
        self._applied = 0          # batches applied
        self.losses: list[float] = []
        self.ledger = {
            "batches_fed": 0, "steps_applied": 0, "step_attempts": 0,
            "samples_fed": 0, "samples_applied": 0, "records": [],
        }
        self.recovery_times: list[float] = []
        self._c_applied = reg.counter("dist.step.applied")
        self._c_retried = reg.counter("dist.step.retried")
        self._c_degraded = reg.counter("dist.step.degraded")
        self._c_dispatch_retries = reg.counter("dist.dispatch.retries")
        self._c_epochs = reg.counter("dist.epochs")
        self._c_resyncs = reg.counter("dist.resyncs")
        self._c_straggler = reg.counter("dist.straggler.rebalances")
        self._c_ckpt_rounds = reg.counter("dist.ckpt.rounds")
        self._c_ckpt_adopted = reg.counter("dist.ckpt.adopted")
        self._c_restores = reg.counter("dist.recover.restores")
        self._c_replayed_rows = reg.counter("dist.recover.replayed_rows")
        self._c_replayed_params = reg.counter("dist.recover.replayed_params")
        self._c_audits = reg.counter("dist.recover.audits")
        self._c_audit_failures = reg.counter("dist.recover.audit_failures")
        self._c_readmissions = reg.counter("dist.recover.readmissions")
        self._h_recover = reg.histogram(
            "dist.recover.time_ms",
            bounds=(50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0),
        )

    # ------------------------------------------------------------------ #
    # Topology helpers
    # ------------------------------------------------------------------ #

    @property
    def world_size(self) -> int:
        return len(self.workers)

    def live_workers(self) -> list[int]:
        return [w for w in range(self.world_size) if self.health.is_up(w)]

    def parameters_in_sync(self, atol: float = 0.0) -> bool:
        """True when every *live* replica holds identical parameters."""
        live = self.live_workers()
        if len(live) < 2:
            return True
        ref = self.workers[live[0]].replica.parameters()
        for w in live[1:]:
            for a, b in zip(ref, self.workers[w].replica.parameters()):
                if atol == 0.0:
                    if not np.array_equal(a.data, b.data):
                        return False
                elif not np.allclose(a.data, b.data, atol=atol, rtol=0.0):
                    return False
        return True

    def _reset_replay_tracking(self) -> None:
        self._replay_rows = {
            i: (np.empty(0, dtype=np.int64) if p.sparse else None)
            for i, p in enumerate(self.workers[0].replica.parameters())
        }

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #

    def _control_plane(self, *, probe_faults: bool = True) -> None:
        """One supervisor round: probes, heartbeats, the recovery walk."""
        supervisor.supervise(
            self.workers, self.health, self.clock.now(),
            restart_after_ms=self.config.restart_after_ms,
            recover=self._recover, probe_faults=probe_faults)

    # ------------------------------------------------------------------ #
    # Recovery ladder
    # ------------------------------------------------------------------ #

    def _full_sync_from(self, donor: int, target: int) -> None:
        """Bitwise copy of a donor's replica + optimizer state."""
        src = self.workers[donor]
        dst = self.workers[target]
        load_state_dict(dst.replica, state_dict(src.replica))
        dst.optimizer.load_state_dict(src.optimizer.state_dict())

    def _replay_hot_state(self, donor: int, target: int) -> tuple[int, int]:
        """Copy post-checkpoint deltas from a survivor onto the target.

        Sparse parameters move only the rows touched since the last
        checkpoint round (their other rows are bit-identical to the
        restored checkpoint by the sparse-update invariant); dense
        parameters and non-row optimizer slots move whole; so do the
        optimizer's hyperparameters. Returns ``(rows replayed, whole
        arrays replayed)``.
        """
        src_params = self.workers[donor].replica.parameters()
        dst_params = self.workers[target].replica.parameters()
        src_opt = self.workers[donor].optimizer
        dst_opt = self.workers[target].optimizer
        rows_replayed = 0
        arrays_replayed = 0
        for i, (sp, dp) in enumerate(zip(src_params, dst_params)):
            rows = self._replay_rows.get(i)
            row_wise = sp.sparse and rows is not None
            if row_wise:
                if rows.size:
                    dp.data[rows] = sp.data[rows]
                    rows_replayed += int(rows.size)
            else:
                dp.data[...] = sp.data
                arrays_replayed += 1
            for name, value in src_opt.slots[i].items():
                if row_wise and value.ndim >= 1 and value.shape[0] == sp.data.shape[0]:
                    if rows.size:
                        dst_opt.slots[i][name][rows] = value[rows]
                        rows_replayed += int(rows.size)
                else:
                    dst_opt.slots[i][name] = value.copy()
                    arrays_replayed += 1
        for name in src_opt.hyper:
            setattr(dst_opt, name, float(getattr(src_opt, name)))
        return rows_replayed, arrays_replayed

    def _recover(self, w: int) -> None:
        """The recovery payload: restore + replay + audit, then readmit."""
        live = self.live_workers()
        if not live:
            # No donor to replay/audit against; try again next round.
            self.workers[w].rewarm_until = \
                self.clock.now() + self.config.rewarm_ms
            return
        donor = live[0]
        worker = self.workers[w]
        with trace("dist.recover", worker=str(w)):
            restored_step = None
            if self.checkpoint is not None:
                restored_step = self.checkpoint.latest_common_shard_step(
                    self.world_size)
            if restored_step is not None:
                for s in range(self.world_size):
                    self.checkpoint.restore_shard(
                        worker.replica, s, restored_step,
                        optimizer=worker.optimizer)
                    self._c_restores.inc()
                emit_event("dist.recover.restore", worker=w,
                           step=restored_step, shards=self.world_size)
                rows, arrays = self._replay_hot_state(donor, w)
                self._c_replayed_rows.inc(rows)
                self._c_replayed_params.inc(arrays)
                emit_event("dist.recover.replay", worker=w, donor=donor,
                           rows=rows, arrays=arrays)
            else:
                # No complete checkpoint round yet: full copy of a
                # survivor's state (correct, but not a delta).
                self._full_sync_from(donor, w)
                self._c_resyncs.inc()
            self._c_audits.inc()
            ours = _state_checksum(worker.replica, worker.optimizer)
            theirs = _state_checksum(self.workers[donor].replica,
                                     self.workers[donor].optimizer)
            if ours != theirs:
                self._c_audit_failures.inc()
                emit_event("dist.recover.audit_failed", worker=w,
                           donor=donor)
                self._full_sync_from(donor, w)
                self._c_resyncs.inc()
            now = self.clock.now()
            down_at = self.health.marked_down_at[w]
            worker.readmit(now)
            supervisor.readmit(self.health, self.breakers[w], w, now)
            self._c_readmissions.inc()
            if down_at is not None:
                recovery_ms = now - down_at
                self.recovery_times.append(recovery_ms)
                self._h_recover.observe(recovery_ms)
                emit_event("dist.recover.readmit", worker=w,
                           recovery_ms=recovery_ms, donor=donor,
                           restored_step=restored_step)

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #

    def _checkpoint_round(self) -> None:
        """Every worker's shard saved at the current applied step.

        A down/rewarming worker's slice is *adopted* by the lowest live
        worker (replicas are in sync, so the bits are identical), which
        keeps ``latest_common_shard_step`` from lagging behind an outage.
        """
        live = self.live_workers()
        if not live:
            return
        step = self._applied
        for w in range(self.world_size):
            saver = w if self.health.is_up(w) else live[0]
            if saver != w:
                self._c_ckpt_adopted.inc()
            sw = self.workers[saver]
            self.checkpoint.save_shard(step, w, sw.replica, self.owned[w],
                                       optimizer=sw.optimizer)
        self._c_ckpt_rounds.inc()
        self._reset_replay_tracking()
        emit_event("dist.ckpt.round", step=step, adopted=len(
            [w for w in range(self.world_size) if not self.health.is_up(w)]))

    # ------------------------------------------------------------------ #
    # Step execution
    # ------------------------------------------------------------------ #

    def _shares(self, batch_size: int, live: list[int]) -> list[int]:
        """Per-worker sample counts: equal, or 1/ewma when straggling.

        Deterministic largest-remainder apportionment with a minimum of
        one sample per worker; re-weighting only kicks in when the
        slowest/fastest EWMA spread exceeds ``straggler_factor``.
        """
        k = len(live)
        if batch_size < k:
            raise ElasticError(
                f"batch of {batch_size} cannot cover {k} workers"
            )
        ewmas = [self.workers[w].ewma_ms for w in live]
        uniform = (any(e is None or e <= 0 for e in ewmas)
                   or max(ewmas) / min(ewmas) <= self.config.straggler_factor)
        weights = [1.0] * k if uniform else [1.0 / e for e in ewmas]
        if not uniform:
            self._c_straggler.inc()
            emit_event("dist.straggler", workers=list(live),
                       ewma_ms=[round(e, 3) for e in ewmas])
        total = sum(weights)
        raw = [batch_size * wt / total for wt in weights]
        counts = [max(1, int(r)) for r in raw]
        remainder = batch_size - sum(counts)
        if remainder > 0:
            order = sorted(range(k), key=lambda i: (-(raw[i] - int(raw[i])), i))
            for j in range(remainder):
                counts[order[j % k]] += 1
        while remainder < 0:
            i = max(range(k), key=lambda i: (counts[i], i))
            take = min(counts[i] - 1, -remainder)
            counts[i] -= take
            remainder += take
        return counts

    def _dispatch(self, w: int, shard: Batch, scale: float):
        """One worker's dispatch with timeout/retry/backoff.

        Returns ``(loss, sim_ms)`` or ``None`` when the worker failed the
        dispatch; failure marks the worker down fail-fast (crash) or
        strikes its breaker (timeout / net drop), evicting it only once
        the breaker opens — transient slowness doesn't shrink the fleet.
        """
        worker = self.workers[w]
        breaker = self.breakers[w]
        deadline = self.config.deadline_ms
        for attempt in range(self.config.dispatch_retries + 1):
            now = self.clock.now()
            try:
                loss, sim_ms = worker.compute_grads(shard, scale, now, deadline)
            except WorkerDown:
                self.health.mark_down(w, now, reason="dispatch")
                return None
            except (WorkerTimeout, WorkerNetDrop):
                # The supervisor waited the deadline out before giving up.
                self.clock.advance(deadline)
                if attempt < self.config.dispatch_retries:
                    self._c_dispatch_retries.inc()
                    deadline *= self.config.backoff
                    continue
                breaker.record_failure()
                if breaker.state == "open":
                    self.health.mark_down(w, self.clock.now(),
                                          reason="breaker")
                return None
            breaker.record_success()
            alpha = self.config.ewma_alpha
            worker.ewma_ms = sim_ms if worker.ewma_ms is None \
                else alpha * sim_ms + (1.0 - alpha) * worker.ewma_ms
            return loss, sim_ms
        return None  # pragma: no cover - loop always returns

    def _sync_gradients(self, live: list[int]) -> list[int]:
        """Allreduce-sum partial gradients over the participants.

        The degraded-mode semantics are
        :func:`~repro.distributed.data_parallel.sync_gradients`'s: a
        participant the collective drops keeps its local gradient and is
        resynced after the update. Returns the dropped worker ids.
        """
        if self.comm.world_size != len(live):
            self.comm.resize(len(live))
            self._c_epochs.inc()
        reps = [self.workers[w].replica for w in live]
        dropped, unions = sync_gradients(reps, self.comm.allreduce_sum)
        # Replay bookkeeping: which rows the survivors will update.
        for gi, union in enumerate(unions):
            known = self._replay_rows.get(gi)
            if union is not None and known is not None:
                self._replay_rows[gi] = np.union1d(known, union)
        return [live[r] for r in dropped]

    def train_step(self, batch: Batch) -> float:
        """Feed one global batch; re-shard over survivors until applied.

        The batch is never lost: a dispatch or membership failure aborts
        the attempt, the control plane runs (detection, eviction,
        recovery), and the *same* batch is re-sharded over the remaining
        live set — up to ``step_attempts`` times before the run aborts.
        """
        cfg = self.config
        self._step_index += 1
        self.ledger["batches_fed"] += 1
        self.ledger["samples_fed"] += batch.size
        supervisor.fire_kills(self.kill_specs, self.workers,
                              self._step_index, self.clock.now())
        record = {"batch": self._step_index, "attempts": 0}
        for _ in range(cfg.step_attempts):
            record["attempts"] += 1
            self.ledger["step_attempts"] += 1
            self._control_plane()
            live = self.live_workers()
            if not live:
                raise ElasticError("no live workers remain")
            counts = self._shares(batch.size, live)
            shards = shard_batch_counts(batch, counts)
            with trace("dist.step", step=str(self._step_index),
                       workers=str(len(live))):
                results = []
                failed = False
                for w, shard in zip(live, shards):
                    out = self._dispatch(w, shard, shard.size / batch.size)
                    if out is None:
                        failed = True
                        break
                    results.append(out)
                if failed:
                    self._c_retried.inc()
                    continue
                dropped = self._sync_gradients(live)
                for w in live:
                    self.workers[w].optimizer.step()
                if dropped:
                    # Post-step resync barrier for mid-collective drops.
                    clean = [w for w in live if w not in set(dropped)]
                    source = clean[0] if clean else live[0]
                    for w in dropped:
                        if w != source:
                            self._full_sync_from(source, w)
                            self._c_resyncs.inc()
            if len(live) < self.world_size:
                self._c_degraded.inc()
            self._applied += 1
            self._c_applied.inc()
            self.ledger["steps_applied"] += 1
            self.ledger["samples_applied"] += batch.size
            loss = float(sum(ls * c for (ls, _), c in zip(results, counts))
                         / batch.size)
            self.losses.append(loss)
            record.update(participants=list(live), counts=list(counts),
                          dropped=list(dropped), applied_step=self._applied,
                          loss=loss)
            self.ledger["records"].append(record)
            # The synchronous barrier costs the slowest participant.
            self.clock.advance(max(ms for _, ms in results))
            self._control_plane()
            if self.checkpoint_every \
                    and self._applied % self.checkpoint_every == 0:
                self._checkpoint_round()
            return loss
        raise ElasticError(
            f"batch {self._step_index} could not be applied in "
            f"{cfg.step_attempts} attempts"
        )

    # ------------------------------------------------------------------ #
    # Run driver
    # ------------------------------------------------------------------ #

    def quiesce(self) -> None:
        """Advance simulated time (no new faults) until the fleet is whole."""
        cfg = self.config
        supervisor.quiesce(
            self.clock, self.health,
            lambda: self._control_plane(probe_faults=False),
            restart_after_ms=cfg.restart_after_ms,
            rewarm_ms=cfg.rewarm_ms, hang_ms=cfg.hang_ms)

    def train(self, batches) -> dict:
        """Run the elastic loop over an iterable of batches; quiesce;
        return the chaos-drill report (ledger, recovery, reconciliation).
        """
        for batch in batches:
            self.train_step(batch)
        self.quiesce()
        return self.report()

    def report(self) -> dict:
        reconciliation = reconcile_elastic(self)
        recovery = {
            "readmissions": self._c_readmissions.value,
            "restores": self._c_restores.value,
            "replayed_rows": self._c_replayed_rows.value,
            "replayed_params": self._c_replayed_params.value,
            "audits": self._c_audits.value,
            "audit_failures": self._c_audit_failures.value,
            "checkpoint_rounds": self._c_ckpt_rounds.value,
            "adopted_checkpoints": self._c_ckpt_adopted.value,
            "times_ms": [float(t) for t in self.recovery_times],
            "max_ms": max(self.recovery_times) if self.recovery_times else 0.0,
        }
        return {
            "world_size": self.world_size,
            "batches_fed": self.ledger["batches_fed"],
            "steps_applied": self.ledger["steps_applied"],
            "step_attempts": self.ledger["step_attempts"],
            "retried_steps": self._c_retried.value,
            "degraded_steps": self._c_degraded.value,
            "dispatch_retries": self._c_dispatch_retries.value,
            "membership_epochs": self._c_epochs.value,
            "resyncs": self._c_resyncs.value,
            "straggler_rebalances": self._c_straggler.value,
            "final_loss": self.losses[-1] if self.losses else None,
            "losses": [float(x) for x in self.losses],
            "sim_ms": self.clock.now(),
            "in_sync": self.parameters_in_sync(),
            "workers": [w.stats() for w in self.workers],
            "health": self.health.snapshot(),
            "recovery": recovery,
            "ledger": self.ledger,
            "collectives": dict(self.comm.events),
            "reconciliation": reconciliation,
        }


def reconcile_elastic(trainer: ElasticTrainer) -> dict:
    """Balance the elastic run's ledgers against its fault injector.

    Exact-ledger semantics (:func:`repro.runtime.supervisor.reconcile_ledger`):
    every ``dist.*`` injector firing must surface in the matching
    defensive counter, no batch (or sample) may be lost, the fleet must
    end readmitted, and the live replicas must be bit-identical.
    """
    ledger = trainer.ledger
    return supervisor.reconcile_ledger(
        trainer.injector,
        supervisor.worker_fault_rows(
            "dist", [w.stats() for w in trainer.workers]),
        {
            "no_lost_batches": (ledger["batches_fed"],
                                ledger["steps_applied"]),
            "no_lost_samples": (ledger["samples_fed"],
                                ledger["samples_applied"]),
            "fleet_readmitted": (trainer.world_size, trainer.health.up_count),
            "replicas_in_sync": (1, int(trainer.parameters_in_sync())),
        },
    )
