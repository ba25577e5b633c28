"""CachedTTEmbeddingBag: TT cores + uncompressed LFU cache (paper §4.2).

The hybrid operator behind TT-Rec's training-time story (Fig. 4):

1. **Warm-up stage** — all lookups go through the TT cores while the LFU
   tracker accumulates row frequencies.
2. **Population** — after ``warmup_steps`` batches (and then every
   ``refresh_interval`` batches: the "semi-dynamic" cache), the top
   ``cache_size`` rows are copied *uncompressed* into the cache, their
   values materialised from the current TT cores. Rows evicted on refresh
   drop their dense updates and the cores stay as they are: the paper
   argues decomposing them back into the cores online is an open
   streaming-TT problem and empirically unnecessary, and a least-squares
   write-back tried here recovered no accuracy (EXPERIMENTS.md).
3. **Hybrid stage** — each batch's indices are partitioned into
   ``cached_indices`` (served and updated densely: ``W' = W + dL/dW``) and
   ``tt_indices`` (TT chain + Algorithm 2 gradients). The two weight sets
   are learned separately from that point on.
"""

from __future__ import annotations

import numpy as np

from repro.cache.lfu import LFUTracker
from repro.ops.embedding import CompressedEmbedding
from repro.ops.module import Parameter, coalesce_rows
from repro.telemetry import emit_event, get_registry, trace
from repro.tt.embedding_bag import TTEmbeddingBag
from repro.tt.shapes import TTShape
from repro.utils.seeding import as_rng

__all__ = ["CachedTTEmbeddingBag"]

# Distinguishes same-named instances in the shared metrics registry
# (``build_ttrec`` names embeddings per table, but tests construct many
# modules with the default name in one process).
_INSTANCE_SEQ = 0


class CachedTTEmbeddingBag(CompressedEmbedding):
    """TT-compressed embedding bag with an uncompressed hot-row cache.

    Parameters
    ----------
    num_rows, dim, shape, rank, d, mode, initializer, rng:
        Forwarded to the underlying :class:`TTEmbeddingBag`.
    cache_size:
        Number of uncompressed rows held. May also be given as
        ``cache_fraction`` (fraction of ``num_rows``; the paper finds
        0.01% sufficient — §6.5).
    warmup_steps:
        Batches observed before the first cache population. 0 populates on
        the first ``maybe_refresh``/``end_warmup`` call.
    refresh_interval:
        Re-populate every this many batches after warm-up ("every 100s to
        1000s of iterations" in the paper). ``None`` disables refresh
        (populate once).
    policy:
        Victim-selection policy for the tracker (``lfu``/``lru``/``static``).
    injector:
        Optional :class:`~repro.reliability.fault_injection.FaultInjector`
        probed at the ``cache.row`` site each forward: a firing fault
        corrupts one resident cache row (chaos testing). While one is
        attached, reads are validated (an ECC / row-checksum stand-in):
        served cache rows are checked finite, and a poisoned one makes
        :meth:`scrub` refill it from the TT cores.
    dedup:
        Deduplicate the *miss* indices of a training forward before
        contracting the TT chain (one shared
        :class:`~repro.tt.planner.BatchPlan` for forward and backward). On
        by default: under Zipf traffic the misses that slip past the cache
        are still duplicate-heavy, and duplicate gradients are combined
        before Algorithm 2 either way, so results match the raw path to
        float round-off. Reads (``lookup``, ``lookup_bags``, cache fills)
        always dedup their misses, whatever this flag says; their output
        bytes are the same either way.
    """

    def __init__(self, num_rows: int, dim: int, *, shape: TTShape | None = None,
                 rank: int = 32, d: int = 3, mode: str = "sum",
                 initializer="sampled_gaussian",
                 rng: int | None | np.random.Generator = None,
                 cache_size: int | None = None, cache_fraction: float | None = None,
                 warmup_steps: int = 100, refresh_interval: int | None = 1000,
                 policy: str = "lfu", injector=None, dedup: bool = True,
                 name: str = "cached_tt_emb"):
        super().__init__(num_rows, dim, mode)
        self.tt = TTEmbeddingBag(
            num_rows, dim, shape=shape, rank=rank, d=d, mode=mode,
            initializer=initializer, rng=as_rng(rng), name=f"{name}.tt",
        )
        self.dedup = bool(dedup)
        self.cache_size = self.resolve_cache_size(num_rows, cache_size,
                                                  cache_fraction)
        if warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {warmup_steps}")
        if refresh_interval is not None and refresh_interval < 1:
            raise ValueError(f"refresh_interval must be >= 1, got {refresh_interval}")
        self.warmup_steps = warmup_steps
        self.refresh_interval = refresh_interval
        self.tracker = LFUTracker(policy=policy)
        self.cache_rows = Parameter(
            np.zeros((self.cache_size, dim), dtype=self.tt.dtype),
            name=f"{name}.cache", sparse=True
        )
        # Sorted row-id array for O(log k) vectorized membership tests;
        # _cache_slot[i] is the cache row holding table row _cached_ids[i].
        self._cached_ids = np.empty(0, dtype=np.int64)
        self._cache_slot = np.empty(0, dtype=np.int64)
        self._steps = 0
        self._populated = False
        self.injector = injector
        # Cumulative hit/miss/evict/repair statistics (Fig. 10 / Fig. 12
        # instrumentation), held in the shared metrics registry under a
        # per-instance ``module`` label; ``lookups``/``hits``/
        # ``repaired_rows`` stay readable as attributes.
        global _INSTANCE_SEQ
        self.metrics_label = f"{name}#{_INSTANCE_SEQ}"
        _INSTANCE_SEQ += 1
        reg = get_registry()
        self._metrics = {
            key: reg.counter(f"cache.{key}", module=self.metrics_label)
            for key in ("lookups", "hits", "misses", "repairs",
                        "insertions", "evictions", "refreshes")
        }

    @staticmethod
    def resolve_cache_size(num_rows: int, cache_size: int | None = None,
                           cache_fraction: float | None = None) -> int:
        """Rows the cache holds: ``cache_size``, else ``cache_fraction`` of
        the table (the paper's 0.01 % by default), capped at ``num_rows``."""
        if cache_size is None:
            if cache_fraction is None:
                cache_fraction = 1e-4  # the paper's 0.01%
            if not (0.0 < cache_fraction <= 1.0):
                raise ValueError(f"cache_fraction must be in (0, 1], got {cache_fraction}")
            cache_size = max(1, int(round(num_rows * cache_fraction)))
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        return min(int(cache_size), num_rows)

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #

    @property
    def is_warm(self) -> bool:
        return self._populated

    # -- statistics (registry-backed, read-only views) -- #

    @property
    def lookups(self) -> int:
        return self._metrics["lookups"].value

    @property
    def hits(self) -> int:
        return self._metrics["hits"].value

    @property
    def repaired_rows(self) -> int:
        return self._metrics["repairs"].value

    def hit_rate(self) -> float:
        """Cumulative cache hit rate since construction (shim over
        :meth:`stats`, kept for the Fig. 10/12 benchmarks)."""
        lookups = self._metrics["lookups"].value
        return self._metrics["hits"].value / lookups if lookups else 0.0

    def stats(self) -> dict:
        """Structured cumulative statistics (one registry read per field)."""
        m = self._metrics
        lookups = m["lookups"].value
        hits = m["hits"].value
        return {
            "lookups": lookups,
            "hits": hits,
            "misses": m["misses"].value,
            "hit_rate": hits / lookups if lookups else 0.0,
            "repairs": m["repairs"].value,
            "insertions": m["insertions"].value,
            "evictions": m["evictions"].value,
            "refreshes": m["refreshes"].value,
            "resident_rows": int(self._cached_ids.size),
            "cache_size": int(self.cache_size),
            "populated": bool(self._populated),
        }

    def _membership(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(is_cached_mask, cache_slots)`` for each index."""
        if self._cached_ids.size == 0:
            return np.zeros(indices.shape, dtype=bool), np.empty(0, dtype=np.int64)
        pos = np.searchsorted(self._cached_ids, indices)
        pos = np.minimum(pos, self._cached_ids.size - 1)
        mask = self._cached_ids[pos] == indices
        return mask, self._cache_slot[pos[mask]]

    def populate(self) -> dict:
        """(Re)build the cache from the tracker's current top-k rows.

        New rows are materialised from the TT cores; rows surviving a
        refresh keep their dense weights; evicted rows' dense updates are
        discarded (paper §4.2) and the cores are left as they are. Returns
        population stats.
        """
        hot = np.sort(self.tracker.top_k(self.cache_size))
        if hot.size == 0:
            return {"inserted": 0, "kept": 0, "evicted": 0}
        old_ids = self._cached_ids
        kept_mask = np.isin(hot, old_ids, assume_unique=True)
        kept = hot[kept_mask]
        new = hot[~kept_mask]
        evicted = int(old_ids.size - kept.size)  # kept is a subset of old_ids
        values = np.zeros((hot.size, self.dim), dtype=self.cache_rows.data.dtype)
        if kept.size:
            old_mask, old_slots = self._membership(kept)
            assert old_mask.all()
            values[kept_mask] = self.cache_rows.data[old_slots]
        if new.size:
            values[~kept_mask] = self.tt._rows(new)
        self.cache_rows.data[: hot.size] = values
        self._cached_ids = hot
        self._cache_slot = np.arange(hot.size, dtype=np.int64)
        self._populated = True
        if self.tracker.policy == "static":
            self.tracker.freeze()
        self._metrics["refreshes"].inc()
        self._metrics["insertions"].inc(int(new.size))
        self._metrics["evictions"].inc(evicted)
        emit_event("cache.populate", module=self.metrics_label,
                   inserted=int(new.size), kept=int(kept.size),
                   evicted=evicted, step=int(self._steps))
        return {"inserted": int(new.size), "kept": int(kept.size), "evicted": evicted}

    def maybe_refresh(self) -> dict | None:
        """Apply the Fig. 4 schedule; called automatically by ``forward``."""
        if not self._populated:
            if self._steps >= self.warmup_steps:
                return self.populate()
            return None
        if self.refresh_interval is not None and self._steps % self.refresh_interval == 0:
            return self.populate()
        return None

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #

    def _forward_rows(self, indices: np.ndarray):
        # Observe (the Fig. 4 schedule), then serve, remembering the miss
        # path's plan for backward.
        self._steps += 1
        self.tracker.record(indices)
        self.maybe_refresh()
        return self._serve_rows(indices, remember=True)

    def _read_rows(self, indices: np.ndarray) -> np.ndarray:
        """``lookup_bags``: serve from what ``populate()`` last built. No
        step, no tracker record, no refresh — a request must not retrain
        the cache — and no pooled buffer a pending backward still needs."""
        return self._serve_rows(indices, remember=False)[0]

    def _serve_rows(self, indices: np.ndarray, remember: bool):
        """Split hits from misses, count them, serve both:
        ``(rows, saved)`` with ``saved`` the backward's ``(mask, slots,
        chain)``. The one place a resident row is fault-probed, read and
        validated, for training steps and served requests alike."""
        if self.injector is not None and self._cached_ids.size:
            spec = self.injector.draw("cache.row")
            if spec is not None:
                slot = self.injector.choose(int(self._cached_ids.size))
                self.injector.apply(spec, self.cache_rows.data[slot])

        with trace("cache.membership"):
            mask, slots = self._membership(indices)
        hits = int(mask.sum())
        self._metrics["lookups"].inc(indices.size)
        self._metrics["hits"].inc(hits)
        self._metrics["misses"].inc(indices.size - hits)

        rows = np.empty((indices.size, self.dim), dtype=self.cache_rows.data.dtype)
        if hits:
            # Single gather: validate and serve from the same buffer. A
            # poisoned row served into the towers is masked by ReLU (NaN
            # clips to 0) and silently degrades the model instead of
            # crashing it, so corruption must be caught at the read, not
            # at the loss.
            served = self.cache_rows.data[slots]
            if self.injector is not None and not np.isfinite(served).all():
                self.scrub()
                served = self.cache_rows.data[slots]  # re-gather repaired rows
            rows[mask] = served
        chain = None
        if hits < indices.size:
            tt_idx = indices[~mask]
            if remember:
                # One plan for forward and backward through the TT
                # operator's pooled buffers, deduplicated by this
                # operator's own setting.
                rows[~mask], chain = self.tt._planned_rows(tt_idx, self.dedup)
            else:
                rows[~mask] = self.tt._rows(tt_idx)
        return rows, (mask, slots, chain)

    def _backward_rows(self, indices, grad_rows, saved) -> None:
        mask, slots, chain = saved
        if mask.any():
            self.cache_rows.accumulate(*coalesce_rows(slots, grad_rows[mask]))
        if chain is not None:
            self.tt._backward_plan(grad_rows[~mask], *chain)

    # ------------------------------------------------------------------ #

    def _rows(self, indices: np.ndarray) -> np.ndarray:
        """Row materialisation honouring the cache (no stats, no backward)."""
        mask, slots = self._membership(indices)
        rows = np.empty((indices.size, self.dim), dtype=self.cache_rows.data.dtype)
        if mask.any():
            rows[mask] = self.cache_rows.data[slots]
        if (~mask).any():
            rows[~mask] = self.tt._rows(indices[~mask])
        return rows

    def scrub(self) -> int:
        """Re-materialise any non-finite resident cache rows from the TT
        cores; returns the number of rows repaired.

        The recovery hook for poisoned-cache faults: a corrupted
        uncompressed row is replaced by the row the TT chain currently
        encodes (losing only that row's dense updates, exactly as a cache
        refresh would). Called by read validation, the serving ladder
        and :func:`repro.reliability.guard.scrub_non_finite`; every
        repair counts under ``cache.repairs`` whoever asked for it.
        """
        if self._cached_ids.size == 0:
            return 0
        resident = self.cache_rows.data[self._cache_slot]
        bad = ~np.isfinite(resident).all(axis=1)
        if not bad.any():
            return 0
        self.cache_rows.data[self._cache_slot[bad]] = self.tt._rows(
            self._cached_ids[bad]
        )
        repaired = int(bad.sum())
        self._metrics["repairs"].inc(repaired)
        emit_event("cache.repair", module=self.metrics_label,
                   rows=repaired, step=int(self._steps))
        return repaired

    # ------------------------------------------------------------------ #
    # Checkpointable non-parameter state (see repro.reliability.checkpoint)
    # ------------------------------------------------------------------ #

    def extra_state(self) -> dict:
        """Cache bookkeeping a checkpoint must carry beyond parameters.

        Every registry counter is persisted: dropping any of them breaks
        the ``lookups == hits + misses`` invariant after resume.
        """
        state = {
            "cached_ids": self._cached_ids.copy(),
            "cache_slot": self._cache_slot.copy(),
            "steps": int(self._steps),
            "populated": bool(self._populated),
        }
        for key, counter in self._metrics.items():
            state[key] = int(counter.value)
        for key, value in self.tracker.state_dict().items():
            state[f"tracker.{key}"] = value
        return state

    def load_extra_state(self, state: dict) -> None:
        self._cached_ids = np.asarray(state["cached_ids"], dtype=np.int64)
        self._cache_slot = np.asarray(state["cache_slot"], dtype=np.int64)
        self._steps = int(state["steps"])
        self._populated = bool(state["populated"])
        for key, counter in self._metrics.items():
            # .get: checkpoints written before all counters were persisted
            # restore the ones they have and zero the rest.
            counter.set(int(state.get(key, 0)))
        self.tracker.load_state_dict({
            key.split(".", 1)[1]: value
            for key, value in state.items() if key.startswith("tracker.")
        })
        self._bag = None  # a forward made before the restore is void
