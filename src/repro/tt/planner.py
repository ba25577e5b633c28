"""Batch execution planner for the TT contraction chain (Algorithm 1).

The TT row lookup is a chain of ``d - 1`` batched GEMMs. This module is
the one executor every TT-family operator contracts through (plain,
cached, T3nsor's adjoint, the tensor-ring baseline):

- **Dedup once, share everywhere.** :meth:`ExecutionPlanner.plan_batch`
  collapses duplicate indices with one sort and hands the same
  :class:`BatchPlan` (decoded unique indices + inverse map) to forward,
  backward and the hybrid cache's miss path. Under Zipf traffic most of a
  batch is duplicates, so this removes most of the GEMM work outright.
  Every read (``lookup``, ``lookup_bags``, cache fills) plans with dedup
  on; an operator's ``dedup`` flag governs only its training forward,
  where collapsing duplicates changes the order in which their gradients
  are summed. Since a row's bytes depend on its id and the shape alone
  (next point), dedup leaves every read's output bytes unchanged.

- **One chain.** Every call contracts Algorithm 1's left-to-right chain:
  a left sweep over cores ``0..d-2``, one gather of core ``d - 1`` and
  one combine GEMM. Reads, training forwards and the recompute arm run
  the same GEMMs on the same operands, so a row's bytes depend on its id
  and the table's shape alone, and a read equals the training forward
  bit for bit. The sweep's left partials are the ``tr_k`` buffers
  Algorithm 2 consumes. :func:`chain_flops` counts the chain exactly.

- **No per-sample core gather.** Algorithm 1 hands ``GemmBatchedEx``
  *pointers* to the core slices; here every chain step groups the batch by
  core index and multiplies each lookup against a *view* of its slice
  (:func:`~repro.tt.kernels.segmented_matmul`), each lookup still its own
  GEMM. The sort behind the grouping is made once per core per step
  (:meth:`BatchPlan.runs`) and shared with Algorithm 2's kernels.

- **Buffer reuse.** In pooled mode every partial product is written into
  a :class:`BufferPool` scratch view instead of a fresh allocation.
  Pooled buffers are only valid until the next pooled call on the same
  planner, so side paths (``lookup`` during cache population/scrub) run
  unpooled — see ``TTEmbeddingBag.lookup``.

See docs/KERNELS.md. Planning effort is observable through the
counters ``tt.plan.flops_planned`` (``n_unique`` rows' chain FLOPs, what
a batch will execute), ``tt.plan.flops_executed``,
``tt.plan.flops_saved`` and ``tt.plan.dedup_removed``; ``repro
profile`` prints them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.telemetry import annotate_span, get_registry, trace
from repro.tt.kernels import segmented_matmul, sorted_runs
from repro.tt.shapes import TTShape

__all__ = ["BatchPlan", "BufferPool", "ExecutionPlanner", "chain_flops"]


def chain_flops(shape: TTShape) -> int:
    """Exact multiply-add FLOPs (2 per MAC) of one row through Algorithm
    1's chain: for ``k = 1..d-1`` the GEMM ``(P_k, R_k) @ (R_k, n_k
    R_{k+1})`` with ``P_k = n_0 ... n_{k-1}``, the last being the combine.
    """
    col, ranks = shape.col_factors, shape.ranks
    flops, p = 0, col[0]
    for k in range(1, shape.d):
        flops += 2 * p * ranks[k] * col[k] * ranks[k + 1]
        p *= col[k]
    return flops


@dataclass
class BatchPlan:
    """A planned batch: the dedup bookkeeping shared by fwd/bwd.

    ``decoded`` is ``(d, n_unique)``; ``inverse`` maps each of the ``n``
    raw positions to its unique row (``None`` when dedup is off or the
    batch had no duplicates removed).
    """

    n: int
    n_unique: int
    decoded: np.ndarray
    inverse: np.ndarray | None
    flops_planned: int
    flops_baseline: int
    _runs: dict = field(default_factory=dict, repr=False)

    def runs(self, k: int) -> tuple:
        """``sorted_runs(decoded[k])``, sorted once per step: the forward
        and both Algorithm 2 kernels group core ``k`` the same way."""
        if k not in self._runs:
            self._runs[k] = sorted_runs(self.decoded[k])
        return self._runs[k]


def _unique_inverse(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``np.unique(indices, return_inverse=True)`` without most of its
    fixed cost: one argsort and one comparison of neighbours, about 3.5 us
    a call at small ``n`` against ``np.unique``'s 10 us, which a served
    request would pay on each of its tables. ``(indices, None)`` when no
    id repeats, so a duplicate-free batch keeps its order.
    """
    order = np.argsort(indices)
    ordered = indices[order]
    first = np.empty(indices.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if first.all():
        return indices, None
    inverse = np.empty(indices.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _bucket(n: int) -> int:
    """Round up to the next power of two (minimum 1)."""
    return 1 << max(0, int(n - 1).bit_length()) if n > 1 else 1


class BufferPool:
    """Reusable scratch buffers for chain intermediates.

    Each logical stage asks for ``take(key, shape, dtype)`` and receives a
    C-contiguous view of a flat buffer whose capacity is rounded up to the
    next power of two, so steady-state steps of a bucketed batch size
    allocate nothing. Views are only valid until the same key is taken
    with a larger size — callers must not hold them across pooled calls.
    """

    def __init__(self):
        self._bufs: dict = {}

    def take(self, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        size = math.prod(shape)
        dtype = np.dtype(dtype)
        buf = self._bufs.get(key)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = np.empty(_bucket(size), dtype=dtype)
            self._bufs[key] = buf
        return buf[:size].reshape(shape)

    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._bufs.values())

    def clear(self) -> None:
        self._bufs.clear()


class ExecutionPlanner:
    """Per-module planner: dedup and pooled execution of the one chain.

    ``flops`` is :func:`chain_flops` of the shape: what one row costs.
    """

    def __init__(self, shape: TTShape):
        self.shape = shape
        self.flops = chain_flops(shape)
        self.pool = BufferPool()
        reg = get_registry()
        self._counters = {
            key: reg.counter(f"tt.plan.{key}")
            for key in ("flops_saved", "flops_planned", "flops_executed",
                        "dedup_removed")
        }

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #

    def plan_batch(self, indices: np.ndarray, *, dedup: bool) -> BatchPlan:
        """Build the shared per-batch plan: one dedup pass and the decode.

        A single id has nothing to collapse, so it skips the dedup pass.
        """
        indices = np.asarray(indices, dtype=np.int64)
        n = int(indices.size)
        with trace("tt.plan", dedup="on" if dedup else "off"):
            if dedup and n > 1:
                uniq, inverse = _unique_inverse(indices)
            else:
                uniq, inverse = indices, None
            decoded = self.shape.decode_indices(uniq)
            # Request traces see the dedup effectiveness per batch; the
            # aggregate tracer only folds counts, so this is trace-only.
            annotate_span(rows=n, unique=int(decoded.shape[1]))
        n_unique = int(decoded.shape[1])
        baseline = n * self.flops
        planned = n_unique * self.flops
        if n:
            self._counters["flops_planned"].inc(planned)
            self._counters["flops_saved"].inc(baseline - planned)
            self._counters["dedup_removed"].inc(n - n_unique)
        return BatchPlan(n, n_unique, decoded, inverse, planned, baseline)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(self, cores: list, plan: BatchPlan, *, keep_lefts: bool = False,
                pooled: bool = False
                ) -> tuple[np.ndarray, list[np.ndarray] | None]:
        """Contract the chain for the planned rows of one table.

        ``cores`` is the table's list of core parameters (mode-first
        layout) and ``plan`` its :class:`BatchPlan`. The left sweep
        gathers core 0 and takes one
        :func:`~repro.tt.kernels.segmented_matmul` step against a view of
        each touched slice of cores ``1..d-2``; core ``d - 1`` is
        gathered and one GEMM combines the two. Returns ``(rows, lefts)``
        where ``lefts`` (the ``d`` left partials, the rows last) is
        ``None`` unless ``keep_lefts``. Pooled outputs are views into
        :attr:`pool` and are clobbered by the next pooled call.
        """
        n = plan.n_unique
        dtype = cores[0].data.dtype
        if n == 0:
            rows = np.zeros((0, self.shape.dim), dtype=dtype)
            return rows, ([] if keep_lefts else None)
        last = self.shape.d - 1
        r, q = self.shape.ranks[last], self.shape.col_factors[last]
        lefts = self._sweep(cores, plan, pooled)
        right = self._gather(cores, plan, last, pooled).reshape(n, r, q)
        with trace("tt.forward.combine"):
            # (n, P, R_{d-1}) @ (n, R_{d-1}, n_{d-1})
            rows = np.matmul(lefts[-1], right, out=self._buf(
                pooled, "combine", (n, lefts[-1].shape[1], q), dtype))
        self._counters["flops_executed"].inc(n * self.flops)
        if keep_lefts:
            lefts.append(rows.reshape(n, -1, 1))
        return rows.reshape(n, self.shape.dim), (lefts if keep_lefts else None)

    def _buf(self, pooled: bool, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        return self.pool.take(key, shape, dtype) if pooled else np.empty(shape, dtype)

    def _gather(self, cores: list, plan: BatchPlan, k: int, pooled: bool
                ) -> np.ndarray:
        """Boundary core ``k``'s slices, one ``(n, n_k R)`` row each:
        ``<= n_k * R`` elements per lookup ("clip" only spares take's
        defensive copy of ``out``; decode_indices bounds-checked them)."""
        core = cores[k].data
        width = core[0].size
        with trace("tt.forward.gather", core=k):
            res = self._buf(pooled, k, (plan.n_unique, width), core.dtype)
            core.reshape(-1, width).take(plan.decoded[k], axis=0, out=res,
                                         mode="clip")
        return res

    def _sweep(self, cores: list, plan: BatchPlan, pooled: bool
               ) -> list[np.ndarray]:
        """Algorithm 1's left partials over cores ``0..d-2``: the product
        of cores ``0..k`` is ``(n, P_k, R_{k+1})``."""
        col, ranks = self.shape.col_factors, self.shape.ranks
        n = plan.n_unique
        res = self._gather(cores, plan, 0, pooled).reshape(n, col[0], ranks[1])
        partials = [res]
        for k in range(1, self.shape.d - 1):
            r_prev, nk, r_next = ranks[k], col[k], ranks[k + 1]
            with trace("tt.forward.segment_gemm", core=k):
                # x (n, P, R_{k-1}) @ G_k (R_{k-1}, n_k R_k)
                out = self._buf(pooled, k, (n, 1, res.shape[1], nk * r_next),
                                res.dtype)
                segmented_matmul(
                    res, plan.decoded[k],
                    cores[k].data.reshape(-1, 1, r_prev, nk * r_next),
                    plan.runs(k), out=out)
                res = out.reshape(n, -1, r_next)
            partials.append(res)
        return partials
