"""Model-parallel DLRM: sharded embedding tables + all-to-all exchange.

This is the layout the paper says the *uncompressed* baseline is forced
into once tables exceed device memory (§5): embedding tables are
partitioned across workers (each table lives wholly on one worker,
assigned by greedy size balancing), the batch is partitioned across the
same workers, and every iteration performs the classic DLRM hybrid-
parallel dance:

1. table owners compute pooled embedding vectors for the *whole* batch;
2. an **all-to-all** redistributes them from table-sharded to
   batch-sharded layout;
3. each worker runs the (replicated) bottom/top MLPs and interaction on
   its batch shard;
4. backward reverses the all-to-all for embedding gradients, and the MLP
   gradients are allreduced to keep replicas in sync.

The simulation is exact: ``from_dlrm`` builds the sharded layout from an
existing single-worker DLRM, and a training step produces bit-identical
logits, gradients and updates (asserted in tests) while the shared
:class:`~repro.distributed.collectives.Communicator` tallies the traffic
that a real cluster would pay — the overhead TT-Rec's data parallelism
avoids.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import Batch
from repro.distributed.collectives import Communicator
from repro.distributed.data_parallel import shard_batch
from repro.models.config import DLRMConfig
from repro.models.dlrm import DLRM
from repro.ops.interaction import CatInteraction, DotInteraction
from repro.ops.loss import bce_with_logits
from repro.ops.mlp import MLP
from repro.ops.optim import SparseSGD

__all__ = ["ShardedEmbeddingDLRM", "assign_tables"]


def assign_tables(table_sizes: tuple[int, ...], world_size: int, *,
                  refine: bool = True) -> list[int]:
    """Balanced assignment: table index -> owning worker.

    Longest-processing-time (LPT) greedy: tables are placed largest first
    onto the least-loaded worker, with deterministic tie-breaking (equal
    sizes in table-index order, equal loads to the lowest worker id).
    LPT alone guarantees ``max_load - min_load <= max(table_sizes)``; on
    skewed DLRM size distributions (one giant table plus a long tail)
    that residual can still be the whole giant table, so a local-search
    refinement pass then moves single tables off the most-loaded worker
    whenever doing so strictly shrinks the max/min spread. The result is
    the capacity-driven sharding :class:`ShardedEmbeddingDLRM` uses.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    owner = [0] * len(table_sizes)
    load = [0] * world_size
    # LPT order: size descending, table index ascending on ties.
    for t in sorted(range(len(table_sizes)),
                    key=lambda i: (-table_sizes[i], i)):
        w = min(range(world_size), key=lambda i: (load[i], i))
        owner[t] = w
        load[w] += table_sizes[t]
    if not refine or world_size == 1 or not table_sizes:
        return owner
    # Local search: move one table from the heaviest to the lightest
    # worker while it strictly reduces the spread. Each accepted move
    # shrinks (max - min), so the loop terminates.
    while True:
        hi = max(range(world_size), key=lambda i: (load[i], -i))
        lo = min(range(world_size), key=lambda i: (load[i], i))
        spread = load[hi] - load[lo]
        if spread <= 0:
            return owner
        best_t, best_spread = None, spread
        for t in sorted(range(len(table_sizes))):
            if owner[t] != hi:
                continue
            size = table_sizes[t]
            moved = max(load[hi] - size, load[lo] + size)
            others = [load[w] for w in range(world_size) if w not in (hi, lo)]
            new_max = max([moved, *others])
            new_min = min([min(load[hi] - size, load[lo] + size), *others])
            if new_max - new_min < best_spread:
                best_t, best_spread = t, new_max - new_min
        if best_t is None:
            return owner
        load[hi] -= table_sizes[best_t]
        load[lo] += table_sizes[best_t]
        owner[best_t] = lo


class _Tower:
    """One worker's replicated MLP stack (bottom, interaction, top)."""

    def __init__(self, config: DLRMConfig, reference: DLRM):
        self.bottom = MLP(config.bottom_sizes(), rng=0)
        self.top = MLP(config.top_sizes(), rng=0)
        if config.interaction == "dot":
            self.interaction = DotInteraction()
        else:
            self.interaction = CatInteraction()
        # Clone the reference DLRM's tower weights exactly.
        for mine, ref in ((self.bottom, reference.bottom_mlp),
                          (self.top, reference.top_mlp)):
            for a, b in zip(mine.parameters(), ref.parameters()):
                a.data[...] = b.data

    def parameters(self):
        return self.bottom.parameters() + self.top.parameters()

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


class ShardedEmbeddingDLRM:
    """Hybrid-parallel DLRM: sharded embeddings, replicated MLP towers."""

    def __init__(self, config: DLRMConfig, embeddings: list, world_size: int, *,
                 reference: DLRM, comm: Communicator | None = None,
                 lr: float = 0.1):
        if len(embeddings) != config.num_tables:
            raise ValueError(
                f"expected {config.num_tables} embeddings, got {len(embeddings)}"
            )
        self.config = config
        self.world_size = world_size
        self.comm = comm if comm is not None else Communicator(world_size)
        if self.comm.world_size != world_size:
            raise ValueError("communicator world size mismatch")
        self.embeddings = list(embeddings)
        self.owner = assign_tables(config.table_sizes, world_size)
        self.towers = [_Tower(config, reference) for _ in range(world_size)]
        self.lr = lr
        self._emb_optimizers = [
            SparseSGD(
                [p for t, e in enumerate(self.embeddings) if self.owner[t] == w
                 for p in e.parameters()] or [],
                lr=lr,
            ) if any(self.owner[t] == w for t in range(config.num_tables))
            else None
            for w in range(world_size)
        ]
        self._tower_optimizers = [
            SparseSGD(tower.parameters(), lr=lr) for tower in self.towers
        ]
        self._cache: dict | None = None

    @classmethod
    def from_dlrm(cls, model: DLRM, world_size: int, *,
                  comm: Communicator | None = None,
                  lr: float = 0.1) -> "ShardedEmbeddingDLRM":
        """Re-layout an existing DLRM across ``world_size`` workers.

        The embedding modules are *moved* (shared by reference, as a real
        re-shard would move the memory); the MLP towers are cloned per
        worker.
        """
        return cls(model.config, model.embeddings, world_size,
                   reference=model, comm=comm, lr=lr)

    # ------------------------------------------------------------------ #

    def tables_of(self, worker: int) -> list[int]:
        return [t for t, w in enumerate(self.owner) if w == worker]

    def per_worker_embedding_bytes(self, dtype_bytes: int = 4) -> list[int]:
        """Embedding memory each worker holds (the §5 capacity constraint)."""
        out = [0] * self.world_size
        for t, emb in enumerate(self.embeddings):
            out[self.owner[t]] += emb.num_parameters() * dtype_bytes
        return out

    def forward(self, batch: Batch) -> np.ndarray:
        """Global-batch logits via the hybrid-parallel dataflow."""
        shards = shard_batch(batch, self.world_size)
        per = shards[0].size

        # Phase 1: owners compute pooled vectors for the whole batch.
        pooled: dict[int, np.ndarray] = {}
        for t, (indices, offsets) in enumerate(batch.sparse):
            w = batch.per_sample_weights[t] if batch.per_sample_weights else None
            pooled[t] = self.embeddings[t].forward(indices, offsets, w)

        # Phase 2: all-to-all from table-sharded to batch-sharded layout.
        # chunks[i][j]: worker i's tables, batch shard j.
        chunks = []
        for i in range(self.world_size):
            tables_i = self.tables_of(i)
            row = []
            for j in range(self.world_size):
                lo, hi = j * per, (j + 1) * per
                if tables_i:
                    row.append(np.stack([pooled[t][lo:hi] for t in tables_i]))
                else:
                    row.append(np.zeros((0, per, self.config.emb_dim)))
            chunks.append(row)
        received = self.comm.all_to_all(chunks)

        # Phase 3: per-worker towers on their batch shard.
        logits_shards = []
        shard_pooled: list[list[np.ndarray]] = []
        for j in range(self.world_size):
            by_table: dict[int, np.ndarray] = {}
            for i in range(self.world_size):
                for slot, t in enumerate(self.tables_of(i)):
                    by_table[t] = received[j][i][slot]
            ordered = [by_table[t] for t in range(self.config.num_tables)]
            shard_pooled.append(ordered)
            tower = self.towers[j]
            x = tower.bottom.forward(shards[j].dense)
            z = tower.interaction.forward(x, ordered)
            logits_shards.append(tower.top.forward(z).reshape(-1))

        self._cache = {"batch": batch, "per": per}
        return np.concatenate(logits_shards)

    def train_step(self, batch: Batch) -> float:
        """One hybrid-parallel iteration; returns the global-batch loss."""
        logits = self.forward(batch)
        loss, grad_logits = bce_with_logits(logits, batch.labels)
        self.backward(grad_logits)
        self.step()
        return loss

    def backward(self, grad_logits: np.ndarray) -> None:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        per = self._cache["per"]
        grad_logits = np.asarray(grad_logits, dtype=np.float64).reshape(-1)

        # Per-worker tower backward on its shard.
        grad_chunks: list[list[np.ndarray]] = [
            [None] * self.world_size for _ in range(self.world_size)
        ]
        for j in range(self.world_size):
            tower = self.towers[j]
            tower.zero_grad()
            g = grad_logits[j * per:(j + 1) * per].reshape(-1, 1)
            grad_z = tower.top.backward(g)
            grad_x, grad_pooled = tower.interaction.backward(grad_z)
            tower.bottom.backward(grad_x)
            # Package embedding grads for the reverse all-to-all:
            # destination i receives grads of its tables for shard j.
            for i in range(self.world_size):
                tables_i = self.tables_of(i)
                if tables_i:
                    grad_chunks[j][i] = np.stack([grad_pooled[t] for t in tables_i])
                else:
                    grad_chunks[j][i] = np.zeros((0, per, self.config.emb_dim))
        received = self.comm.all_to_all(grad_chunks)

        # Owners reassemble full-batch gradients and run embedding backward.
        for i in range(self.world_size):
            for slot, t in enumerate(self.tables_of(i)):
                full = np.concatenate(
                    [received[i][j][slot] for j in range(self.world_size)], axis=0
                )
                self.embeddings[t].backward(full)

        # Keep the replicated towers in sync. Each tower's gradient is the
        # *partial* contribution of its batch shard to the global-mean loss
        # (the 1/B lives in grad_logits already), so the reduction is a sum.
        groups = list(zip(*(tower.parameters() for tower in self.towers)))
        for group in groups:
            total_grad = self.comm.allreduce_sum([p.grad for p in group])
            for p in group:
                p.grad[...] = total_grad

    def step(self) -> None:
        for opt in self._emb_optimizers:
            if opt is not None:
                opt.step()
        for opt in self._tower_optimizers:
            opt.step()

    def zero_grad(self) -> None:
        for e in self.embeddings:
            if hasattr(e, "zero_grad"):
                e.zero_grad()
        for tower in self.towers:
            tower.zero_grad()
