"""Grouped multi-table TT kernel: one chain sweep for many tables.

A DLRM looks up 26 tables per iteration; issuing 26 separate TT chains
repeats the per-table bookkeeping 26 times. ``GroupedTTEmbeddingBag``
fuses the lookups of *same-shaped* tables: their lookups are concatenated
along the batch axis into one pseudo-batch, pushed through a single
Algorithm 1/2 sweep — one buffer and one pass per TT core, each table's
segment multiplied against views of its own core slices — and split back.
Every lookup is still its own GEMM, so the result is identical to
per-table execution (tested bit-for-bit).

Execution goes through a shared :class:`~repro.tt.planner.ExecutionPlanner`:
each table's indices are deduplicated once (when ``dedup`` is on) and the
fused chain runs through pooled scratch buffers reused across steps. The
grouped path always keeps left partials for the fused Algorithm 2 sweep,
which pins the schedule to ``l2r`` (see planner docs) — the planner still
contributes dedup, buffer reuse and ``tt.plan.*`` telemetry here.

This mirrors how production libraries (FBGEMM's batched TT kernels,
torchrec's grouped/pooled embedding ops) amortise kernel-launch and GEMM
setup across tables.
"""

from __future__ import annotations

import numpy as np

from repro.ops.embedding import check_bag, pool_bags, unpool_grads
from repro.ops.module import Module
from repro.tt.embedding_bag import (TTEmbeddingBag, accumulate_core_grads,
                                    combine_duplicates)
from repro.tt.planner import ExecutionPlanner

__all__ = ["GroupedTTEmbeddingBag"]


class GroupedTTEmbeddingBag(Module):
    """Fused executor over several same-shape :class:`TTEmbeddingBag`s.

    The member tables keep their own cores/parameters (so optimizers,
    checkpoints and the DLRM wiring are unchanged); only the *execution*
    is fused. Tables must share an identical :class:`TTShape` and pooling
    mode.

    Parameters
    ----------
    tables:
        Same-shape member tables.
    dedup:
        Deduplicate each table's indices before the fused chain; ``None``
        (default) inherits ``tables[0].dedup``.
    plan_policy:
        Planner policy for the fused chain; ``None`` inherits
        ``tables[0].planner.policy``.
    """

    def __init__(self, tables: list[TTEmbeddingBag], *,
                 dedup: bool | None = None, plan_policy: str | None = None):
        if not tables:
            raise ValueError("need at least one table")
        shape = tables[0].shape
        mode = tables[0].mode
        for i, t in enumerate(tables[1:], start=1):
            if t.shape != shape:
                raise ValueError(
                    f"table {i} has a different TTShape; grouped execution "
                    "requires identical shapes"
                )
            if t.mode != mode:
                raise ValueError("all tables must share the pooling mode")
        self.tables = list(tables)
        self.shape = shape
        self.mode = mode
        self.dim = tables[0].dim
        self.dedup = tables[0].dedup if dedup is None else bool(dedup)
        policy = tables[0].planner.policy if plan_policy is None else plan_policy
        self.planner = ExecutionPlanner(
            shape, policy, itemsize=tables[0].dtype.itemsize
        )
        self._cache: dict | None = None
        self._did_backward = False

    @property
    def dtype(self) -> np.dtype:
        return self.tables[0].dtype

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    # ------------------------------------------------------------------ #

    def forward_all(self, sparse: list[tuple[np.ndarray, np.ndarray]],
                    per_sample_weights: list[np.ndarray] | None = None
                    ) -> list[np.ndarray]:
        """Pooled outputs for every table, one fused chain."""
        if len(sparse) != self.num_tables:
            raise ValueError(
                f"expected {self.num_tables} (indices, offsets) pairs, "
                f"got {len(sparse)}"
            )
        weights = per_sample_weights or [None] * self.num_tables
        bags = [check_bag(indices, offsets, w, table.num_rows, self.dtype)
                for table, (indices, offsets), w in zip(self.tables, sparse,
                                                        weights)]
        plans = [self.planner.plan_batch(indices, dedup=self.dedup,
                                         need_lefts=True)
                 for indices, _, _ in bags]

        # Fused Algorithm 1 over the concatenated (deduplicated)
        # pseudo-batch; left partials are needed for the fused backward
        # sweep, so the planner pins l2r here.
        members = [(t.cores, plan) for t, plan in zip(self.tables, plans)]
        total = sum(plan.n_unique for plan in plans)
        schedule = self.planner.schedule_for(total, need_lefts=True)
        rows_all, lefts = self.planner.execute(schedule, members,
                                               keep_lefts=True, pooled=True)

        outputs, pooled = [], []
        lo = 0
        for (_, offsets, alpha), plan in zip(bags, plans):
            rows = rows_all[lo:lo + plan.n_unique]
            lo += plan.n_unique
            if plan.inverse is not None:
                rows = rows[plan.inverse]
            out, counts = pool_bags(rows, offsets, alpha, self.mode)
            outputs.append(out)
            pooled.append((counts, alpha))
        self._cache = {"members": members, "pooled": pooled, "lefts": lefts}
        self._did_backward = False
        return outputs

    def backward_all(self, grads: list[np.ndarray]) -> None:
        """Fused Algorithm 2: one right-sweep for every table's gradients.

        Consumes the forward cache; calling it twice for one
        ``forward_all`` raises instead of double-accumulating.
        """
        if self._cache is None:
            if self._did_backward:
                raise RuntimeError(
                    "backward_all called twice for one forward_all; core "
                    "gradients would double-accumulate — run forward_all "
                    "again first"
                )
            raise RuntimeError("backward_all called before forward_all")
        c = self._cache
        if len(grads) != self.num_tables:
            raise ValueError(f"expected {self.num_tables} gradients")
        grad_rows = np.concatenate([
            combine_duplicates(
                unpool_grads(np.asarray(grad, dtype=self.dtype), counts,
                             alpha, self.mode), plan)
            for (counts, alpha), (_, plan), grad in zip(
                c["pooled"], c["members"], grads)])
        accumulate_core_grads(self.shape, c["members"], grad_rows, c["lefts"])
        self._cache = None
        self._did_backward = True
