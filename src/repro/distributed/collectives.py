"""Byte-accounted collective operations for the in-process simulator.

A ``Communicator`` plays the role of NCCL/Gloo for K simulated workers:
the collectives are computed exactly (plain NumPy) while tallying the
bytes a real ring implementation would move, so benchmarks can compare
measured traffic against the analytic alpha-beta model.

Fault tolerance
---------------
When a :class:`~repro.reliability.fault_injection.FaultInjector` is
attached, every collective runs in *degraded mode*:

- each worker's contribution is "transmitted" with a CRC32 checksum;
  injected corruption (``collective.payload``) is detected at the
  receiver and the transfer is retried up to ``max_retries`` times;
- a worker whose transfers never verify, or that the injector drops
  outright (``collective.drop``), is excluded from the collective:
  ``allreduce_mean`` renormalises over the survivors, ``allreduce_sum``
  rescales by ``K / survivors`` (an unbiased estimate of the full sum),
  and ``allgather`` returns only the surviving contributions (ranks
  recorded in ``last_dropped``);
- injected stragglers (``collective.straggler``) are counted but never
  slept on.

All byte/count/degradation counters live in the shared telemetry
registry (``collective.bytes{op=...}``, ``collective.events{event=...}``,
labelled per communicator instance); the ``bytes_*``/``num_collectives``
attributes and the ``events`` dict remain as thin read views so existing
benchmark reports keep working. With no injector attached the fast exact
path runs unchanged.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.telemetry import emit_event, get_registry, trace

__all__ = ["Communicator", "CollectiveError"]

# Degradation-event counter names (also the keys of ``Communicator.events``).
_EVENT_NAMES = (
    "corruptions_detected",
    "retries",
    "workers_dropped",
    "degraded_collectives",
    "collective_restarts",
    "stragglers",
)

# Distinguishes communicator instances in the shared metrics registry.
_INSTANCE_SEQ = 0


class CollectiveError(RuntimeError):
    """A collective could not complete (every worker failed)."""


class Communicator:
    """Collectives over K simulated workers with ring-traffic accounting.

    Byte accounting follows the standard ring-collective costs:

    - allreduce of ``S`` bytes: each worker sends ``2 S (K-1)/K``;
    - allgather of per-worker ``S`` bytes: each sends ``S (K-1)``··/K·K
      — total ``S (K-1)`` crosses the wire per worker's contribution;
    - all-to-all where worker i sends ``S_ij`` to worker j: exactly the
      off-diagonal volume crosses the wire.

    Parameters
    ----------
    world_size:
        Number of simulated workers.
    injector:
        Optional :class:`~repro.reliability.fault_injection.FaultInjector`;
        attaching one enables degraded-mode execution (see module docs).
    max_retries:
        Re-transmissions attempted per worker per collective before the
        worker is declared failed for that collective.
    """

    def __init__(self, world_size: int, *, injector=None, max_retries: int = 2):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.world_size = world_size
        self.injector = injector
        self.max_retries = max_retries
        self.last_dropped: list[int] = []
        # All counters live in the shared metrics registry under a
        # per-instance ``comm`` label; the byte/count attributes and the
        # ``events`` dict the benchmarks read are thin views over them.
        global _INSTANCE_SEQ
        self.metrics_label = f"comm#{_INSTANCE_SEQ}"
        _INSTANCE_SEQ += 1
        reg = get_registry()
        self._c_bytes = {
            op: reg.counter("collective.bytes", op=op, comm=self.metrics_label)
            for op in ("allreduce", "allgather", "all_to_all")
        }
        self._c_count = reg.counter("collective.count", comm=self.metrics_label)
        self._c_events = {
            name: reg.counter("collective.events", event=name,
                              comm=self.metrics_label)
            for name in _EVENT_NAMES
        }

    @property
    def bytes_allreduce(self) -> int:
        return self._c_bytes["allreduce"].value

    @property
    def bytes_allgather(self) -> int:
        return self._c_bytes["allgather"].value

    @property
    def bytes_all_to_all(self) -> int:
        return self._c_bytes["all_to_all"].value

    @property
    def num_collectives(self) -> int:
        return self._c_count.value

    @property
    def events(self) -> dict[str, int]:
        """Degradation-event counters as a plain dict (report-ready copy)."""
        return {name: c.value for name, c in self._c_events.items()}

    @property
    def total_bytes(self) -> int:
        return self.bytes_allreduce + self.bytes_all_to_all + self.bytes_allgather

    def reset_counters(self) -> None:
        for counter in self._c_bytes.values():
            counter.reset()
        self._c_count.reset()
        for counter in self._c_events.values():
            counter.reset()
        self.last_dropped = []

    # ------------------------------------------------------------------ #
    # Degraded-mode plumbing
    # ------------------------------------------------------------------ #

    def _transmit(self, buffer: np.ndarray) -> np.ndarray | None:
        """Move one buffer through the (faulty) wire, checksum-verified.

        The sender's CRC32 travels with the payload (assumed intact, as a
        real transport frames it); a mismatch at the receiver triggers a
        re-transmission. Returns the verified payload, or ``None`` when
        ``max_retries`` re-transmissions all arrive corrupted.
        """
        if self.injector.fires("collective.straggler"):
            self._c_events["stragglers"].inc()
        expected = zlib.crc32(buffer.tobytes())
        for attempt in range(self.max_retries + 1):
            payload = buffer.copy()
            self.injector.corrupt("collective.payload", payload)
            if zlib.crc32(payload.tobytes()) == expected:
                return payload
            self._c_events["corruptions_detected"].inc()
            if attempt < self.max_retries:
                self._c_events["retries"].inc()
        return None

    def _collect(self, buffers: list[np.ndarray]) -> list[np.ndarray]:
        """Gather each worker's verified contribution, dropping failures.

        A collective that loses *every* worker is restarted (faults are
        transient) up to ``max_retries`` times before raising
        :class:`CollectiveError`.
        """
        for restart in range(self.max_retries + 1):
            contributions = []
            dropped = []
            for rank, buffer in enumerate(buffers):
                if self.injector.fires("collective.drop"):
                    dropped.append(rank)
                    continue
                payload = self._transmit(buffer)
                if payload is None:
                    dropped.append(rank)
                    continue
                contributions.append(payload)
            if contributions:
                self.last_dropped = dropped
                if dropped:
                    self._c_events["workers_dropped"].inc(len(dropped))
                    self._c_events["degraded_collectives"].inc()
                    emit_event("collective.degraded", comm=self.metrics_label,
                               dropped_ranks=dropped,
                               survivors=len(contributions))
                return contributions
            self._c_events["collective_restarts"].inc()
        raise CollectiveError(
            f"all {self.world_size} workers failed the collective in "
            f"{self.max_retries + 1} attempts (dropped or unrecoverably "
            "corrupted payloads)"
        )

    # ------------------------------------------------------------------ #

    def allreduce_mean(self, buffers: list[np.ndarray]) -> np.ndarray:
        """Average one array across workers; every worker gets the result.

        ``buffers`` holds worker ``i``'s contribution at position ``i``.
        Accumulation runs in float64 and the result is cast back to the
        input dtype, so float32 workers keep float32 gradients. Under an
        injector, failed workers are dropped and the mean renormalises
        over the survivors.
        """
        self._check(buffers)
        k = self.world_size
        size = buffers[0].nbytes
        if k > 1:
            self._c_bytes["allreduce"].inc(int(2 * size * (k - 1) / k) * k)
        self._c_count.inc()
        with trace("collective.allreduce", op="mean"):
            contributions = buffers if self.injector is None else self._collect(buffers)
            out = contributions[0].astype(np.float64, copy=True)
            for b in contributions[1:]:
                out += b
            out /= len(contributions)
            return out.astype(buffers[0].dtype, copy=False)

    def allreduce_sum(self, buffers: list[np.ndarray]) -> np.ndarray:
        """Sum one array across workers; every worker gets the result.

        Used where each worker holds a *partial* contribution to a global
        quantity (e.g. MLP gradients of a loss whose 1/B normalisation was
        already applied globally) — contrast with :meth:`allreduce_mean`
        for shard-local means. Under an injector, the survivor sum is
        rescaled by ``K / survivors`` so its magnitude stays an unbiased
        estimate of the full sum.
        """
        self._check(buffers)
        k = self.world_size
        size = buffers[0].nbytes
        if k > 1:
            self._c_bytes["allreduce"].inc(int(2 * size * (k - 1) / k) * k)
        self._c_count.inc()
        with trace("collective.allreduce", op="sum"):
            contributions = buffers if self.injector is None else self._collect(buffers)
            out = contributions[0].astype(np.float64, copy=True)
            for b in contributions[1:]:
                out += b
            if len(contributions) != k:
                out *= k / len(contributions)
            return out.astype(buffers[0].dtype, copy=False)

    def allgather(self, buffers: list[np.ndarray]) -> list[np.ndarray]:
        """Every worker receives every worker's array (returned as a list).

        Under an injector, failed workers' contributions are omitted from
        the result (their ranks are recorded in ``last_dropped``), so the
        returned list may be shorter than ``world_size``.
        """
        self._check(buffers)
        k = self.world_size
        if k > 1:
            self._c_bytes["allgather"].inc(sum(int(b.nbytes) * (k - 1) for b in buffers))
        self._c_count.inc()
        with trace("collective.allgather"):
            if self.injector is None:
                return [b.copy() for b in buffers]
            return self._collect(buffers)

    def all_to_all(self, chunks: list[list[np.ndarray]]) -> list[list[np.ndarray]]:
        """Transpose a K x K grid of arrays: worker ``i``'s ``chunks[i][j]``
        is delivered to worker ``j`` as ``result[j][i]``.

        Only off-diagonal chunks (actual remote traffic) are billed.
        """
        k = self.world_size
        if len(chunks) != k or any(len(row) != k for row in chunks):
            raise ValueError(f"expected a {k}x{k} grid of chunks")
        for i in range(k):
            for j in range(k):
                if i != j:
                    self._c_bytes["all_to_all"].inc(int(chunks[i][j].nbytes))
        self._c_count.inc()
        with trace("collective.all_to_all"):
            return [[chunks[i][j].copy() for i in range(k)] for j in range(k)]

    # ------------------------------------------------------------------ #

    def _check(self, buffers: list[np.ndarray]) -> None:
        if len(buffers) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} buffers, got {len(buffers)}"
            )
        shape = buffers[0].shape
        for i, b in enumerate(buffers[1:], start=1):
            if b.shape != shape:
                raise ValueError(
                    f"buffer {i} has shape {b.shape}, expected {shape}"
                )
