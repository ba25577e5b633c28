"""Synchronous data-parallel training over K simulated workers.

Each worker holds a full replica (TT-Rec fits on every device — the §5
point). A global batch is split into K equal shards; workers compute
forward/backward locally; gradients are averaged with one allreduce; every
replica then applies the identical update.

Because gradient averaging over equal shards equals the gradient of the
full batch (BCE is a mean), K-worker training is *bit-equivalent* to
single-worker training on the unsharded batch — which the test suite
asserts exactly. That equivalence is what makes the simulated cluster a
faithful stand-in for a real synchronous cluster.

Degraded collectives model the real failure faithfully: a worker the
allreduce drops does **not** receive the reduced gradient — it keeps its
local one, takes a divergent update, and is therefore out of sync until
the post-step resync barrier copies a clean replica's parameters over it
(``resync_replicas``). The barrier is what keeps ``parameters_in_sync``
true across chaos runs; before it existed the simulator silently handed
dropped workers the reduced gradient, hiding the drift a real cluster
would suffer.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import Batch
from repro.distributed.collectives import Communicator
from repro.models.dlrm import DLRM
from repro.models.serialization import load_state_dict, state_dict
from repro.ops.loss import bce_with_logits
from repro.ops.module import SparseGrad
from repro.ops.optim import SparseSGD
from repro.telemetry import get_registry

__all__ = ["DataParallelTrainer", "shard_batch", "sync_gradients"]


def shard_batch(batch: Batch, world_size: int) -> list[Batch]:
    """Split a batch into ``world_size`` equal contiguous shards.

    The batch size must divide evenly — real synchronous SGD pads or drops
    remainders; we require exactness so the equivalence theorem holds
    bit-for-bit.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    b = batch.size
    if b % world_size != 0:
        raise ValueError(
            f"batch size {b} is not divisible by world size {world_size}"
        )
    if b == 0:
        raise ValueError("every shard needs at least one sample, batch is empty")
    per = b // world_size
    shards = []
    for lo in range(0, b, per):
        hi = lo + per
        sparse = []
        weights = [] if batch.per_sample_weights is not None else None
        for t, (indices, offsets) in enumerate(batch.sparse):
            start, end = offsets[lo], offsets[hi]
            sparse.append((indices[start:end], offsets[lo:hi + 1] - offsets[lo]))
            if weights is not None:
                weights.append(batch.per_sample_weights[t][start:end])
        shards.append(Batch(
            dense=batch.dense[lo:hi],
            sparse=sparse,
            labels=batch.labels[lo:hi],
            per_sample_weights=weights,
        ))
    return shards


def sync_gradients(replicas, comm: Communicator) -> list[int]:
    """Average every parameter's gradient across ``replicas`` with
    ``comm.allreduce_mean`` — the gradient exchange of a data-parallel step.

    A sparse parameter's pair is scattered into a ``data``-shaped scratch
    buffer per rank, so the collective moves the same bytes as a dense
    one; survivors then receive the reduced values on the union of the
    survivors' rows. A rank the collective dropped keeps its local
    gradient — exactly what a real dropped worker would apply. Returns
    the ranks (positions in ``replicas``) dropped from any parameter's
    collective.
    """
    dropped_any: set[int] = set()
    for group in zip(*(r.parameters() for r in replicas)):
        reduced = comm.allreduce_mean([p.dense_grad() for p in group])
        dropped = set(comm.last_dropped)
        dropped_any |= dropped
        survivors = [p for rank, p in enumerate(group) if rank not in dropped]
        if group[0].sparse:
            union = np.empty(0, dtype=np.int64)
            for p in survivors:
                if p.grad is not None:
                    union = np.union1d(union, p.grad.rows)
            pair = SparseGrad(union, reduced[union]) if union.size else None
        for p in survivors:
            if p.sparse:
                p.grad = pair
            else:
                p.grad[...] = reduced
    return sorted(dropped_any)


class DataParallelTrainer:
    """K synchronized replicas with gradient-allreduce SGD.

    Parameters
    ----------
    replicas:
        K structurally-identical models. Their parameters are forcibly
        synchronized to replica 0's values at construction (as a real DP
        launcher broadcasts rank 0's weights).
    lr:
        Learning rate of the per-replica SparseSGD.
    comm:
        Optional shared :class:`Communicator` (for byte accounting).
    injector:
        Optional :class:`~repro.reliability.fault_injection.FaultInjector`
        handed to a freshly built communicator (ignored when ``comm`` is
        given — attach the injector to that communicator instead). With an
        injector, gradient allreduces run in degraded mode: corrupted
        payloads are detected and retried, dropped workers are excluded
        and the mean renormalises over survivors (see
        :mod:`repro.distributed.collectives`).
    """

    def __init__(self, replicas: list[DLRM], *, lr: float = 0.1,
                 comm: Communicator | None = None, injector=None):
        if not replicas:
            raise ValueError("need at least one replica")
        self.replicas = list(replicas)
        self.comm = comm if comm is not None else Communicator(
            len(replicas), injector=injector
        )
        if self.comm.world_size != len(replicas):
            raise ValueError(
                f"communicator world size {self.comm.world_size} != "
                f"{len(replicas)} replicas"
            )
        # Broadcast rank 0's weights.
        reference = state_dict(self.replicas[0])
        for replica in self.replicas[1:]:
            load_state_dict(replica, reference)
        self.optimizers = [SparseSGD(r.parameters(), lr=lr) for r in self.replicas]
        self._c_resyncs = get_registry().counter("dist.resyncs")

    @property
    def world_size(self) -> int:
        return len(self.replicas)

    @property
    def resyncs(self) -> int:
        """Replicas re-synchronized after degraded collectives (run total)."""
        return self._c_resyncs.value

    def train_step(self, batch: Batch) -> float:
        """One synchronous step over a global batch; returns the mean loss."""
        shards = shard_batch(batch, self.world_size)
        losses = []
        for replica, opt, shard in zip(self.replicas, self.optimizers, shards):
            opt.zero_grad()
            logits = replica.forward(shard.dense, shard.sparse,
                                     shard.per_sample_weights)
            loss, grad = bce_with_logits(logits, shard.labels)
            replica.backward(grad)
            losses.append(loss)
        dropped = sync_gradients(self.replicas, self.comm)
        for opt in self.optimizers:
            opt.step()
        if dropped:
            # Post-step resync barrier: the dropped ranks just applied a
            # local (un-reduced) gradient and have drifted; copy a clean
            # survivor's parameters over them before the next step.
            self.resync_replicas(dropped)
        return float(np.mean(losses))

    def resync_replicas(self, ranks: list[int], *,
                        source: int | None = None) -> int:
        """Bitwise-copy a clean replica's parameters over drifted ranks.

        ``source`` defaults to the lowest rank not in ``ranks`` (every
        collective keeps at least one survivor, so one exists whenever
        ``ranks`` came from a single step; if the caller accumulated
        drops across steps until no rank is clean, rank 0 is used — the
        fleet ends consistent, anchored to rank 0's state). Returns the
        number of replicas rewritten.
        """
        if source is None:
            clean = [r for r in range(self.world_size) if r not in set(ranks)]
            source = clean[0] if clean else 0
        reference = state_dict(self.replicas[source])
        synced = 0
        for rank in ranks:
            if rank == source:
                continue
            load_state_dict(self.replicas[rank], reference)
            synced += 1
        if synced:
            self._c_resyncs.inc(synced)
        return synced

    @property
    def fault_events(self) -> dict[str, int]:
        """The communicator's degraded-mode counters (report-ready copy)."""
        return dict(self.comm.events)

    def parameters_in_sync(self, atol: float = 0.0) -> bool:
        """True when every replica holds identical parameter values."""
        ref = self.replicas[0].parameters()
        for replica in self.replicas[1:]:
            for a, b in zip(ref, replica.parameters()):
                if not np.allclose(a.data, b.data, atol=atol, rtol=0.0):
                    return False
        return True
