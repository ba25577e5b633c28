"""One serving shard: owned slices, per-table ladders, a dispatch payload.

A :class:`ShardWorker` plays the role of one process in the sharded
tier. Its failure model — the ``shard.{crash,hang,slow,net_drop}``
injector sites, the ``kill()`` behind ``serve-bench --kill-shard``
(counted under ``shard.kills_scheduled{shard=}``, apart from injector
crashes) — is the shared :class:`~repro.runtime.worker.SupervisedWorker` machine
(state table in :mod:`repro.runtime.worker`); this module adds what a
shard *does*: the per-slice degradation ladders a dispatch walks, and
the hot-row replay that re-warms a restarted shard.

Serving is *canonical by construction*: the primary rung materialises
rows through the operator's ``lookup`` and pools them with
:func:`pool_rows` — the same reduction the replica path uses — which is
what makes replica failover bit-identical for mirrored rows.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.worker import (
    SupervisedWorker,
    WorkerDown as ShardDown,
    WorkerNetDrop as NetDrop,
    WorkerTimeout as ShardTimeout,
)
from repro.serving.breaker import CircuitBreaker
from repro.serving.server import Rung, TableLadder
from repro.telemetry import annotate_span, get_registry, trace

__all__ = ["ShardWorker", "ShardDown", "ShardTimeout", "NetDrop",
           "pool_rows"]


def pool_rows(rows: np.ndarray, bag_of: np.ndarray, num_bags: int,
              dim: int) -> np.ndarray:
    """Sum-pool materialised rows into bags, in row order.

    The one reduction both the primary rung and the replica path share:
    a sequential ``np.add.at`` over identical row vectors produces
    identical bits, so a failover between them is invisible.
    """
    pooled = np.zeros((num_bags, dim), dtype=np.float64)
    if rows.size:
        np.add.at(pooled, bag_of, rows)
    return pooled


class ShardWorker(SupervisedWorker):
    """One shard: the supervised-worker machine over its slices' ladders.

    Parameters
    ----------
    shard_id:
        Topology id of this worker.
    slices:
        The :class:`~repro.sharding.topology.TableSlice` list this shard
        owns as primary.
    embeddings:
        The model's full embedding operator list (indexed by table).
    default_rows:
        Per-table frequency-prior rows (shared with the router, which
        uses them for whole-shard failover).
    emb_dim / breaker / injector / service params:
        See :class:`~repro.sharding.router.ShardConfig`.
    """

    site_prefix = "shard"
    label = "shard"

    def __init__(self, shard_id: int, slices: list, embeddings: list,
                 default_rows: list[np.ndarray], *, emb_dim: int,
                 breaker: CircuitBreaker, injector=None,
                 service_ms: float = 1.0, slow_penalty_ms: float = 50.0,
                 hang_ms: float = 200.0, rewarm_ms: float = 100.0):
        super().__init__(shard_id, injector=injector, service_ms=service_ms,
                         slow_penalty_ms=slow_penalty_ms, hang_ms=hang_ms,
                         rewarm_ms=rewarm_ms)
        self.shard_id = shard_id
        self.slices = list(slices)
        self.embeddings = embeddings
        self.default_rows = default_rows
        self.emb_dim = emb_dim
        self.breaker = breaker
        sid = str(shard_id)
        reg = get_registry()
        self._rewarmed = reg.counter("shard.rewarmed_rows", shard=sid)
        self._service_hist = reg.histogram(
            "shard.service_ms", shard=sid,
            bounds=(0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0),
        )
        self.ladders = {
            (sl.table, sl.row_lo): self._build_ladder(sl)
            for sl in self.slices
        }

    # ------------------------------------------------------------------ #
    # Ladder construction (per slice)
    # ------------------------------------------------------------------ #

    def _build_ladder(self, sl) -> TableLadder:
        emb = self.embeddings[sl.table]
        dim = self.emb_dim

        def rows_compute(indices, offsets, _lookup=emb.lookup, _dim=dim):
            rows = np.asarray(_lookup(indices))
            bag_of = np.repeat(np.arange(offsets.size - 1),
                               np.diff(offsets))
            return pool_rows(rows, bag_of, offsets.size - 1, _dim)

        def breaker_for(rung: str) -> CircuitBreaker:
            return CircuitBreaker(
                f"s{self.shard_id}.t{sl.table}r{sl.row_lo}.{rung}",
                failure_threshold=3, window=20, cooldown=10,
                half_open_successes=2,
            )

        rungs = [Rung("rows", rows_compute, breaker_for("rows"))]
        tt = getattr(emb, "tt", None)
        if tt is not None and emb.mode == "sum":
            rungs.append(Rung("tt_direct", tt.lookup_bags,
                              breaker_for("tt_direct")))
        # Worker ladders always pool *sum* partials; the router converts
        # to the table's real mode after combining slices.
        return TableLadder(sl.table, rungs, self.default_rows[sl.table],
                           "sum", scrub=emb.scrub, injector=self.injector)

    # ------------------------------------------------------------------ #
    # Payload: re-warm and dispatch
    # ------------------------------------------------------------------ #

    def complete_rewarm(self, hot_ids_by_slice: dict) -> int:
        """Replay the hot-row set; returns rows re-warmed. State -> up.

        Touching the hot head through the operator's own ``forward``
        re-populates any hybrid cache (and re-materialises poisoned rows
        via its read validation) before the shard takes traffic again.
        """
        total = 0
        for sl in self.slices:
            ids = np.asarray(
                hot_ids_by_slice.get((sl.table, sl.row_lo),
                                     np.empty(0, dtype=np.int64)),
                dtype=np.int64,
            )
            ids = ids[sl.covers(ids)]
            if ids.size == 0:
                continue
            emb = self.embeddings[sl.table]
            offsets = np.arange(ids.size + 1, dtype=np.int64)
            emb.forward(ids, offsets)
            total += int(ids.size)
        self._rewarmed.inc(total)
        self._readmit(rows=total)
        return total

    def dispatch(self, requests: list, now: float,
                 deadline_ms: float) -> tuple[dict, float]:
        """Serve one batch of slice sub-requests.

        ``requests`` is a list of ``(slice, indices, offsets)`` with
        indices sorted by bag; returns ``({(table, row_lo): (pooled,
        rung)}, sim_service_ms)``. Raises :class:`ShardDown`,
        :class:`ShardTimeout` or :class:`NetDrop` per the failure model.
        """
        sim_ms = self.begin_dispatch(now, deadline_ms)
        out = {}
        for sl, indices, offsets in requests:
            ladder = self.ladders[(sl.table, sl.row_lo)]
            with trace("shard.slice", shard=str(self.shard_id),
                       slice=sl.describe()):
                pooled, rung = ladder.serve(indices, offsets)
                annotate_span(rung=rung, indices=int(indices.size))
            out[(sl.table, sl.row_lo)] = (pooled, rung)
        self._dispatches.inc()
        self._service_hist.observe(sim_ms)
        return out, sim_ms

    # ------------------------------------------------------------------ #

    def breakers(self) -> list[CircuitBreaker]:
        return [self.breaker] + [
            b for lad in self.ladders.values() for b in lad.breakers()
        ]

    def stats(self) -> dict:
        return {
            **super().stats(),
            "rewarmed_rows": self._rewarmed.value,
            "service_ms": self._service_hist.summary(),
            "breaker": self.breaker.snapshot(),
            "ladders": {
                f"t{t}r{lo}": {
                    "fallbacks": lad.fallback_counts(),
                    "backend_failures": lad.backend_failures,
                }
                for (t, lo), lad in sorted(self.ladders.items())
            },
        }
