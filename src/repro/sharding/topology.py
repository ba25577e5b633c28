"""Shard topology: which shard owns which (table, row-range) slice.

The sharded serving tier partitions the model's embedding tables across
``num_shards`` workers. Whole tables are placed by the same
longest-processing-time assignment :class:`ShardedEmbeddingDLRM` uses
(:func:`repro.distributed.model_parallel.assign_tables`), with one
extension the serving tier needs: *giant* tables — larger than the ideal
per-shard byte share — are first split into contiguous **row ranges**, so
a single multi-hundred-million-row table does not pin an entire shard on
its own. Each resulting :class:`TableSlice` is the unit of ownership,
dispatch, failover and replication.

Every slice also names a **replica shard**: a sibling that mirrors the
slice's hot-row head (:mod:`repro.sharding.replication`) and serves it
when the primary is down. Replicas are placed on the least-loaded shard
that is not the primary, deterministically, so a topology is a pure
function of ``(table_sizes, num_shards)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.model_parallel import assign_tables

__all__ = ["TableSlice", "ShardPlan", "build_shard_plan"]


@dataclass(frozen=True)
class TableSlice:
    """One contiguous row range of one table, owned by one shard."""

    table: int
    row_lo: int
    row_hi: int          # exclusive
    shard: int
    replica: int         # sibling shard mirroring this slice's hot rows

    @property
    def num_rows(self) -> int:
        return self.row_hi - self.row_lo

    def covers(self, indices: np.ndarray) -> np.ndarray:
        """Boolean mask of the indices that fall inside this slice."""
        return (indices >= self.row_lo) & (indices < self.row_hi)

    def describe(self) -> str:
        return (f"t{self.table}[{self.row_lo}:{self.row_hi}]"
                f"@s{self.shard}(r{self.replica})")


class ShardPlan:
    """The full topology: slices, per-shard ownership, replica placement."""

    def __init__(self, table_sizes: tuple[int, ...], num_shards: int,
                 slices: list[TableSlice]):
        self.table_sizes = tuple(table_sizes)
        self.num_shards = num_shards
        self.slices = list(slices)
        self._by_shard: dict[int, list[TableSlice]] = {
            s: [] for s in range(num_shards)
        }
        self._by_table: dict[int, list[TableSlice]] = {
            t: [] for t in range(len(table_sizes))
        }
        for sl in self.slices:
            self._by_shard[sl.shard].append(sl)
            self._by_table[sl.table].append(sl)
        for t, parts in self._by_table.items():
            parts.sort(key=lambda sl: sl.row_lo)
            if not parts or parts[0].row_lo != 0 \
                    or parts[-1].row_hi != table_sizes[t] \
                    or any(a.row_hi != b.row_lo
                           for a, b in zip(parts, parts[1:])):
                raise ValueError(
                    f"slices of table {t} do not tile [0, {table_sizes[t]})"
                )

    # ------------------------------------------------------------------ #

    def slices_of(self, shard: int) -> list[TableSlice]:
        """Slices the given shard owns as primary."""
        return list(self._by_shard[shard])

    def slices_of_table(self, table: int) -> list[TableSlice]:
        return list(self._by_table[table])

    def shard_rows(self, shard: int) -> int:
        return sum(sl.num_rows for sl in self._by_shard[shard])

    def spread(self) -> tuple[int, int]:
        """``(max, min)`` rows held by any shard (the balance metric)."""
        rows = [self.shard_rows(s) for s in range(self.num_shards)]
        return max(rows), min(rows)

    def describe(self) -> str:
        lines = []
        for s in range(self.num_shards):
            own = " ".join(sl.describe() for sl in self._by_shard[s])
            lines.append(f"shard {s}: {self.shard_rows(s):,} rows  {own}")
        return "\n".join(lines)


def build_shard_plan(table_sizes: tuple[int, ...], num_shards: int, *,
                     split_threshold: float = 1.0) -> ShardPlan:
    """Partition tables (and row ranges of giant tables) across shards.

    Parameters
    ----------
    table_sizes:
        Rows per table (``DLRMConfig.table_sizes``).
    num_shards:
        Worker count; must be >= 1.
    split_threshold:
        A table is *giant* — and split into row ranges — when its row
        count exceeds ``split_threshold * total_rows / num_shards``.
        ``1.0`` splits anything above the ideal per-shard share; large
        values disable splitting.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if not table_sizes:
        raise ValueError("table_sizes must be non-empty")
    if split_threshold <= 0:
        raise ValueError(
            f"split_threshold must be > 0, got {split_threshold}"
        )
    total = sum(table_sizes)
    share = total / num_shards
    # Pieces: (table, row_lo, row_hi); giant tables become several
    # contiguous ranges of at most the ideal share each.
    pieces: list[tuple[int, int, int]] = []
    for t, size in enumerate(table_sizes):
        if num_shards > 1 and size > split_threshold * share:
            parts = int(np.ceil(size / max(1.0, share)))
            parts = min(parts, num_shards)
            bounds = np.linspace(0, size, parts + 1).astype(np.int64)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if hi > lo:
                    pieces.append((t, int(lo), int(hi)))
        else:
            pieces.append((t, 0, size))
    owner = assign_tables(tuple(hi - lo for _, lo, hi in pieces), num_shards)

    # Replica placement: least-loaded shard other than the primary,
    # loads counted as primary rows + already-placed replica rows.
    load = [0] * num_shards
    for (t, lo, hi), w in zip(pieces, owner):
        load[w] += hi - lo
    replica_load = [0] * num_shards
    slices = []
    order = sorted(range(len(pieces)),
                   key=lambda i: (-(pieces[i][2] - pieces[i][1]), i))
    chosen = [0] * len(pieces)
    for i in order:
        w = owner[i]
        if num_shards == 1:
            chosen[i] = w  # degenerate: replica == primary (no sibling)
            continue
        candidates = [s for s in range(num_shards) if s != w]
        r = min(candidates, key=lambda s: (load[s] + replica_load[s], s))
        replica_load[r] += pieces[i][2] - pieces[i][1]
        chosen[i] = r
    for (t, lo, hi), w, r in zip(pieces, owner, chosen):
        slices.append(TableSlice(table=t, row_lo=lo, row_hi=hi,
                                 shard=w, replica=r))
    return ShardPlan(table_sizes, num_shards, slices)
