"""Frequency tracking and cache-set selection policies.

``LFUTracker`` wraps the open-addressing hash table with the selection
logic TT-Rec's semi-dynamic cache needs: record every batch's accesses,
and on demand emit the current top-k most-frequently-used rows. Two
alternative policies are provided for the cache-policy ablation bench:

- ``"lfu"`` — cumulative access counts (the paper's choice);
- ``"lru"`` — most-recently-used wins (recency timestamps, not counts);
- ``"static"`` — frequencies are frozen after the first ``populate`` call,
  modelling a cache warmed once and never refreshed.
"""

from __future__ import annotations

import numpy as np

from repro.cache.hashtable import OpenAddressingHashTable
from repro.utils.dtypes import COUNT_DTYPE

__all__ = ["LFUTracker"]

_POLICIES = ("lfu", "lru", "static")


class LFUTracker:
    """Access-frequency tracker with pluggable victim-selection policy."""

    def __init__(self, *, policy: str = "lfu", initial_capacity: int = 4096):
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
        self.policy = policy
        self._table = OpenAddressingHashTable(initial_capacity)
        self._clock = 0
        self._frozen = False
        self.total_accesses = 0

    def record(self, indices: np.ndarray) -> None:
        """Record one batch of row accesses."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        if indices.size == 0:
            return
        self._clock += 1
        self.total_accesses += indices.size
        if self._frozen:
            return
        if self.policy == "lru":
            # Recency: overwrite score with the current clock. Implemented
            # as add(delta) so the hash table stays an accumulator: read the
            # old score and add the difference.
            uniq = np.unique(indices)
            old = self._table.get(uniq)
            self._table.add(uniq, self._clock - old)
        else:
            self._table.add(indices, 1.0)

    def top_k(self, k: int) -> np.ndarray:
        """Current best ``k`` rows under the policy (descending score)."""
        keys, _ = self._table.top_k(k)
        return keys

    def count(self, indices: np.ndarray) -> np.ndarray:
        """Raw accumulated scores for specific rows."""
        return self._table.get(indices)

    def freeze(self) -> None:
        """Stop updating scores (used by the ``static`` policy after warm-up)."""
        self._frozen = True

    def state_dict(self) -> dict:
        """Checkpointable snapshot of the tracker (see ``repro.reliability``).

        The table is saved as its ``(keys, values)`` pairs plus capacity;
        :meth:`load_state_dict` rebuilds an equivalent table. Selection via
        :meth:`top_k` is layout-independent (ties break by key), so a
        restored tracker makes bit-identical cache decisions. Pairs are
        emitted sorted by key — a canonical form, so snapshots of
        logically-equal trackers compare equal regardless of the probe
        order that built their tables.
        """
        keys, values = self._table.items()
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        return {
            "keys": keys,
            "values": values,
            "capacity": int(self._table.capacity),
            "clock": int(self._clock),
            "frozen": bool(self._frozen),
            "total_accesses": int(self.total_accesses),
        }

    def load_state_dict(self, state: dict) -> None:
        self._table = OpenAddressingHashTable(int(state["capacity"]))
        keys = np.asarray(state["keys"], dtype=np.int64)
        if keys.size:
            self._table.add(keys, np.asarray(state["values"], dtype=COUNT_DTYPE))
        self._clock = int(state["clock"])
        self._frozen = bool(state["frozen"])
        self.total_accesses = int(state["total_accesses"])

    def __len__(self) -> int:
        return len(self._table)
