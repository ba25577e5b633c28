"""Open-addressing hash table for access-frequency tracking (paper §4.2).

The paper tracks "the frequencies of all the existing indices" with an
open-addressing hash table. This NumPy implementation uses linear probing
with a splitmix64 hash and supports *batched* upserts: each probe round is
fully vectorized, and within-batch duplicate keys are pre-combined so a key
occupies exactly one slot. The table grows (rehash, 2x) past a load-factor
threshold.
"""

from __future__ import annotations

import numpy as np

from repro.utils.dtypes import COUNT_DTYPE

__all__ = ["OpenAddressingHashTable", "splitmix64"]

_EMPTY = np.int64(-1)


def splitmix64(keys: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — a fast, well-mixed 64-bit hash."""
    z = keys.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


class OpenAddressingHashTable:
    """int64 -> float64 accumulator map with linear probing.

    Keys must be non-negative (``-1`` marks empty slots). Typical use here:
    ``add(row_indices)`` once per training batch, then ``top_k`` when the
    cache repopulates.
    """

    def __init__(self, capacity: int = 1024, *, load_factor: float = 0.7):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not (0.1 <= load_factor <= 0.95):
            raise ValueError(f"load_factor must be in [0.1, 0.95], got {load_factor}")
        self._capacity = 1 << int(np.ceil(np.log2(max(capacity, 8))))
        self._load_factor = load_factor
        self._keys = np.full(self._capacity, _EMPTY, dtype=np.int64)
        self._values = np.zeros(self._capacity, dtype=COUNT_DTYPE)
        self._size = 0

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        return self._capacity

    def _slots_for(self, keys: np.ndarray) -> np.ndarray:
        return (splitmix64(keys) & np.uint64(self._capacity - 1)).astype(np.int64)

    def _maybe_grow(self, incoming: int) -> None:
        while self._size + incoming > self._load_factor * self._capacity:
            old_keys, old_values = self.items()
            self._capacity *= 2
            self._keys = np.full(self._capacity, _EMPTY, dtype=np.int64)
            self._values = np.zeros(self._capacity, dtype=COUNT_DTYPE)
            self._size = 0
            if old_keys.size:
                self._insert(old_keys, old_values)

    # ------------------------------------------------------------------ #

    def add(self, keys: np.ndarray, amounts: np.ndarray | float = 1.0) -> None:
        """``table[k] += amount`` for every key (duplicates combined first)."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if keys.size == 0:
            return
        if keys.min() < 0:
            raise ValueError("keys must be non-negative")
        if np.isscalar(amounts) or np.asarray(amounts).ndim == 0:
            uniq, counts = np.unique(keys, return_counts=True)
            vals = counts.astype(COUNT_DTYPE) * float(amounts)
        else:
            amounts = np.asarray(amounts, dtype=COUNT_DTYPE).reshape(-1)
            if amounts.shape != keys.shape:
                raise ValueError("amounts must match keys in length")
            order = np.argsort(keys, kind="stable")
            sk, sv = keys[order], amounts[order]
            uniq, starts = np.unique(sk, return_index=True)
            vals = np.add.reduceat(sv, starts)
        self._maybe_grow(uniq.size)
        self._insert(uniq, vals)

    def _insert(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Vectorized linear-probe upsert of *unique* keys."""
        slots = self._slots_for(keys)
        pending = np.arange(keys.size)
        while pending.size:
            s = slots[pending]
            occupant = self._keys[s]
            match = occupant == keys[pending]
            if match.any():
                # Keys are unique and each holds one slot, so no slot
                # repeats and a plain indexed add is exact.
                hit = pending[match]
                self._values[slots[hit]] += vals[hit]
            free = occupant == _EMPTY
            claim = pending[free & ~match]
            if claim.size:
                # Distinct keys may race for one empty slot; last write wins,
                # losers are detected by read-back and retry next round.
                self._keys[slots[claim]] = keys[claim]
                won = self._keys[slots[claim]] == keys[claim]
                winners = claim[won]
                self._values[slots[winners]] += vals[winners]
                self._size += winners.size
                lost = claim[~won]
            else:
                lost = np.empty(0, dtype=np.int64)
            unresolved = pending[~match & ~free]
            pending = np.concatenate([unresolved, lost])
            slots[pending] = (slots[pending] + 1) & (self._capacity - 1)

    def get(self, keys: np.ndarray, default: float = 0.0) -> np.ndarray:
        """Look up accumulated values; missing keys yield ``default``."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        out = np.full(keys.shape, default, dtype=COUNT_DTYPE)
        if keys.size == 0:
            return out
        slots = self._slots_for(keys)
        pending = np.arange(keys.size)
        for _ in range(self._capacity):
            if pending.size == 0:
                break
            s = slots[pending]
            occupant = self._keys[s]
            match = occupant == keys[pending]
            out[pending[match]] = self._values[s[match]]
            # empty slot -> key absent, stop probing it
            alive = pending[~match & (occupant != _EMPTY)]
            pending = alive
            slots[pending] = (slots[pending] + 1) & (self._capacity - 1)
        return out

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All (key, value) pairs in unspecified order."""
        mask = self._keys != _EMPTY
        return self._keys[mask].copy(), self._values[mask].copy()

    def top_k(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` keys with the largest accumulated values.

        Ties are broken by key for determinism. Returns ``(keys, values)``
        sorted by descending value.
        """
        keys, values = self.items()
        if k <= 0 or keys.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=COUNT_DTYPE)
        k = min(k, keys.size)
        # lexsort: primary descending value, secondary ascending key
        order = np.lexsort((keys, -values))[:k]
        return keys[order], values[order]
