"""Hot-row replication: the Zipf head of every slice, mirrored off-shard.

Under production recommendation traffic a small head of rows absorbs
most lookups (the paper's Fig. 9 stability argument, and the reason
TT-Rec's cache works at all). The sharded tier exploits the same skew
for availability: each :class:`~repro.sharding.topology.TableSlice`
mirrors its top-k hottest rows — *materialised embedding vectors*, not
TT cores — onto its replica shard. When the primary shard is down, any
bag whose ids all fall inside the mirrored head is served from the
replica **bit-identically** to the primary path: both sides materialise
rows through the operator's ``lookup`` and pool with the same
:func:`~repro.sharding.worker.pool_rows` reduction, so failover is
invisible to the towers (asserted in ``tests/test_sharding.py``). A TT
row's bytes depend on its id and the table's shape alone — one
contraction split per shape, each lookup its own GEMM on a C-contiguous
operand (:func:`repro.tt.kernels.segmented_matmul`) — so the batch a
replica happens to serve the row in cannot change them.

Replicas are *checked*, not trusted: ``consistency_check`` re-derives
every mirrored row from the primary operator and counts mismatches
(``shard.replica.violations``), and the re-warm protocol refreshes the
mirror before a restarted shard is readmitted.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry import emit_event, get_registry

__all__ = ["ReplicaStore"]


class _SliceMirror:
    """Mirrored hot rows of one slice: ids, id->slot map, row matrix."""

    __slots__ = ("ids", "slots", "rows")

    def __init__(self, ids: np.ndarray, rows: np.ndarray):
        self.ids = ids
        self.rows = rows
        self.slots = {int(i): k for k, i in enumerate(ids)}


class ReplicaStore:
    """Hot-row mirrors hosted by one shard (or by the router for tests).

    Parameters
    ----------
    hot_rows:
        Mirror size per slice (the top-k of the slice's frequency
        tracker, or the first ``k`` rows before traffic is observed).
    """

    def __init__(self, *, hot_rows: int = 64):
        if hot_rows < 1:
            raise ValueError(f"hot_rows must be >= 1, got {hot_rows}")
        self.hot_rows = hot_rows
        self._mirrors: dict[tuple[int, int], _SliceMirror] = {}
        reg = get_registry()
        self._warmed = reg.counter("shard.replica.warmed_rows")
        self._checks = reg.counter("shard.replica.consistency_checks")
        self._violations = reg.counter("shard.replica.violations")

    # ------------------------------------------------------------------ #

    def warm(self, sl, ids: np.ndarray, lookup) -> int:
        """(Re)mirror a slice's hot rows; returns the row count mirrored.

        ``ids`` are absolute row ids; only those inside the slice are
        kept, capped at ``hot_rows``. ``lookup`` materialises rows from
        the primary operator (``emb.lookup``).
        """
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        ids = ids[sl.covers(ids)][: self.hot_rows]
        if ids.size == 0:
            self._mirrors.pop((sl.table, sl.row_lo), None)
            return 0
        rows = np.asarray(lookup(ids))
        self._mirrors[(sl.table, sl.row_lo)] = _SliceMirror(ids, rows)
        self._warmed.inc(int(ids.size))
        return int(ids.size)

    # ------------------------------------------------------------------ #

    def coverage(self, sl, indices: np.ndarray) -> np.ndarray:
        """Mask of the indices the mirror can serve for this slice."""
        m = self._mirrors.get((sl.table, sl.row_lo))
        if m is None:
            return np.zeros(indices.size, dtype=bool)
        return np.isin(indices, m.ids)

    def gather(self, sl, indices: np.ndarray) -> np.ndarray:
        """Mirrored rows for the given (fully covered) indices."""
        m = self._mirrors.get((sl.table, sl.row_lo))
        if m is None:
            raise KeyError(f"no mirror for slice {sl.describe()}")
        slots = np.fromiter((m.slots[int(i)] for i in indices),
                            dtype=np.int64, count=indices.size)
        return m.rows[slots]

    # ------------------------------------------------------------------ #

    def consistency_check(self, sl, lookup) -> int:
        """Re-derive every mirrored row from the primary; count mismatches.

        Mismatching rows are repaired in place from the primary (the
        primary is the source of truth; the mirror is a serving copy).
        Returns the number of rows that disagreed.
        """
        m = self._mirrors.get((sl.table, sl.row_lo))
        if m is None:
            return 0
        self._checks.inc()
        fresh = np.asarray(lookup(m.ids))
        # Exact comparison: replica serving promises bit-identity, so a
        # single flipped bit is a violation, not noise.
        bad = ~np.all(
            (fresh == m.rows) | (np.isnan(fresh) & np.isnan(m.rows)), axis=1
        )
        n_bad = int(bad.sum())
        if n_bad:
            self._violations.inc(n_bad)
            emit_event("shard.replica_violation", table=sl.table,
                       row_lo=sl.row_lo, rows=n_bad)
            m.rows[bad] = fresh[bad]
        return n_bad

    def stats(self) -> dict:
        return {
            "mirrors": len(self._mirrors),
            "warmed_rows": self._warmed.value,
            "consistency_checks": self._checks.value,
            "violations": self._violations.value,
        }
