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

- **One chain, one number.** The chain is contracted as a left sweep
  over cores ``0..split-1``, a right sweep over cores ``d-1..split`` and
  one combine GEMM. Boundary ranks are 1, so ``split = d - 1`` *is*
  Algorithm 1's left-to-right chain and ``split = 1`` the right-to-left
  one. The split is an integer the shape decides once, at construction:
  ``d - 1`` whenever the left partials are kept for Algorithm 2 (only
  that sweep makes them all), otherwise the split with the fewest exact
  FLOPs (:func:`chain_flops`), ``d - 1`` winning ties. It depends on
  nothing a batch carries, so a row's bytes depend on its id and the
  table's shape alone. There is no option: only tests pass another
  ``split`` to :meth:`ExecutionPlanner.execute`.

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

Reads that keep nothing (inference, cache fills, the forward of a
``store_intermediates=False`` table, whose backward recomputes the left
partials at ``d - 1``) run the fewest-FLOPs split; that is ``d - 1`` on
every ``d = 3`` shape the paper builds. See docs/KERNELS.md. Planning
effort is observable through the ``tt.plan.*`` counters:
``flops_planned``/``flops_executed``/``flops_saved`` and
``dedup_removed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.telemetry import annotate_span, get_registry, trace
from repro.tt.kernels import segmented_matmul, sorted_runs
from repro.tt.shapes import TTShape

__all__ = ["BatchPlan", "BufferPool", "ExecutionPlanner", "chain_flops"]


def chain_flops(shape: TTShape, split: int) -> int:
    """Exact multiply-add FLOPs (2 per MAC) of one row contracted at
    ``split``: the left sweep's GEMMs over cores ``1..split-1``, the right
    sweep's over ``d-2..split`` and the combine, from the GEMM dimensions.
    """
    d, col, ranks = shape.d, shape.col_factors, shape.ranks
    if not 1 <= split <= d - 1:
        raise ValueError(f"split must be in [1, {d - 1}], got {split}")
    flops, p, q = 0, col[0], col[-1]
    for k in range(1, split):
        # (P, R_k) @ (R_k, n_k R_{k+1})
        flops += 2 * p * ranks[k] * col[k] * ranks[k + 1]
        p *= col[k]
    for k in range(d - 2, split - 1, -1):
        # (R_k n_k, R_{k+1}) @ (R_{k+1}, Q)
        flops += 2 * ranks[k] * col[k] * ranks[k + 1] * q
        q *= col[k]
    # Combine: (P, R_split) @ (R_split, Q) -> the row.
    return flops + 2 * p * ranks[split] * q


@dataclass
class BatchPlan:
    """A planned batch: split + dedup bookkeeping shared by fwd/bwd.

    ``decoded`` is ``(d, n_unique)``; ``inverse`` maps each of the ``n``
    raw positions to its unique row (``None`` when dedup is off or the
    batch had no duplicates removed).
    """

    split: int
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
    """Per-module planner: the shape's split, dedup, pooled execution.

    ``flops[s]`` is :func:`chain_flops` at split ``s`` and ``read_split``
    the split a lookup that keeps no left partials runs: the fewest
    FLOPs, trying ``d - 1`` first, then ``1, 2, ...`` — the first minimum
    wins, so Algorithm 1's own order wins every tie.
    """

    def __init__(self, shape: TTShape):
        self.shape = shape
        d = shape.d
        self.flops = {s: chain_flops(shape, s) for s in range(1, d)}
        self.read_split = min([d - 1, *range(1, d - 1)], key=self.flops.get)
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

    def plan_batch(self, indices: np.ndarray, *, dedup: bool,
                   need_lefts: bool) -> BatchPlan:
        """Build the shared per-batch plan: the split + one dedup pass.

        Algorithm 2 consumes every left partial product and only the
        ``d - 1`` sweep makes them, so ``need_lefts`` plans that split.
        A single id has nothing to collapse, so it skips the dedup pass.
        """
        indices = np.asarray(indices, dtype=np.int64)
        n = int(indices.size)
        last = self.shape.d - 1
        split = last if need_lefts else self.read_split
        with trace("tt.plan", split=split, dedup="on" if dedup else "off"):
            if dedup and n > 1:
                uniq, inverse = _unique_inverse(indices)
            else:
                uniq, inverse = indices, None
            decoded = self.shape.decode_indices(uniq)
            # Request traces see the dedup effectiveness per batch; the
            # aggregate tracer only folds counts, so this is trace-only.
            annotate_span(rows=n, unique=int(decoded.shape[1]))
        n_unique = int(decoded.shape[1])
        baseline = n * self.flops[last]
        planned = n_unique * self.flops[split]
        if n:
            self._counters["flops_planned"].inc(planned)
            self._counters["flops_saved"].inc(max(0, baseline - planned))
            self._counters["dedup_removed"].inc(n - n_unique)
        return BatchPlan(split, n, n_unique, decoded, inverse,
                         planned, baseline)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(self, cores: list, plan: BatchPlan, *, split: int | None = None,
                keep_lefts: bool = False, pooled: bool = False
                ) -> tuple[np.ndarray, list[np.ndarray] | None]:
        """Contract the chain for the planned rows of one table.

        ``cores`` is the table's list of core parameters (mode-first
        layout) and ``plan`` its :class:`BatchPlan`; the chain meets at
        ``plan.split`` unless ``split`` names another (tests, and the
        recompute arm's ``d - 1``). Every interior chain step is
        :func:`~repro.tt.kernels.segmented_matmul` against a view of each
        touched core slice; only the boundary core that *is* a sweep's
        first partial is gathered. Returns ``(rows, lefts)`` where
        ``lefts`` is ``None`` unless ``keep_lefts``. Pooled outputs are
        views into :attr:`pool` and are clobbered by the next pooled call.
        """
        d = self.shape.d
        if split is None:
            split = plan.split
        elif split not in self.flops:
            raise ValueError(f"split must be in [1, {d - 1}], got {split}")
        if keep_lefts and split != d - 1:
            raise ValueError(
                f"left partials require split {d - 1}, got {split}")
        n = plan.n_unique
        dtype = cores[0].data.dtype
        if n == 0:
            rows = np.zeros((0, self.shape.dim), dtype=dtype)
            return rows, ([] if keep_lefts else None)
        # One left sweep, one right sweep, one combine: both boundary
        # cores are gathered and only interior cores take a segmented step.
        lefts = self._sweep(cores, plan, range(split), pooled)
        right_t = self._sweep(cores, plan, range(d - 1, split - 1, -1),
                              pooled)[-1]
        with trace("tt.forward.combine", split=split):
            # (n, P_left, R_split) @ (n, Q_right, R_split)^T
            rows = np.matmul(lefts[-1], right_t.transpose(0, 2, 1), out=self._buf(
                pooled, "combine", (n, lefts[-1].shape[1], right_t.shape[1]),
                dtype))
        self._counters["flops_executed"].inc(n * self.flops[split])
        if keep_lefts:
            lefts.append(rows.reshape(n, -1, 1))
        return rows.reshape(n, self.shape.dim), (lefts if keep_lefts else None)

    def _buf(self, pooled: bool, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        return self.pool.take(key, shape, dtype) if pooled else np.empty(shape, dtype)

    def _sweep(self, cores: list, plan: BatchPlan, ks: range, pooled: bool
               ) -> list[np.ndarray]:
        """Partial products of one sweep over cores ``ks``, one per core.

        Ascending ``ks`` gives the left partials ``(n, P_k, R_{k+1})`` of
        Algorithm 1. Descending ``ks`` gives the right partials kept
        K-major transposed, ``(n, Q_k, R_k)``: the same kernel on
        ``G_k(i_k)^T`` per column of ``n_k``, as in Algorithm 2's sweep.
        """
        col, ranks = self.shape.col_factors, self.shape.ranks
        n, dtype = plan.n_unique, cores[0].data.dtype
        left = ks.step > 0
        side = "left" if left else "right"
        res, partials = None, []
        for k in ks:
            r_prev, nk, r_next = ranks[k], col[k], ranks[k + 1]
            r_out = r_next if left else r_prev
            if res is None:
                # The boundary core is the sweep's first partial: one row
                # gather of <= n_k * R elements per lookup ("clip" only
                # spares take's defensive copy of ``out``; decode_indices
                # bounds-checked the indices).
                with trace("tt.forward.gather", core=k):
                    res = self._buf(pooled, (side, k), (n, nk * r_out), dtype)
                    cores[k].data.reshape(-1, nk * r_out).take(
                        plan.decoded[k], axis=0, out=res, mode="clip")
                    res = (res.reshape(n, nk, r_out) if left
                           else res.reshape(n, r_out, nk).transpose(0, 2, 1))
            else:
                with trace("tt.forward.segment_gemm", core=k):
                    # x (n, P, R_{k-1}) @ G_k (R_{k-1}, n_k R_k), or on the
                    # right x^T (n, Q, R_k) @ G_k^T (R_k, R_{k-1}) per n_k
                    out = self._buf(
                        pooled, (side, k),
                        (n, 1, res.shape[1], nk * r_out) if left
                        else (n, nk, res.shape[1], r_out), dtype)
                    g = cores[k].data
                    segmented_matmul(
                        res, plan.decoded[k],
                        g.reshape(-1, 1, r_prev, nk * r_next) if left
                        else g.transpose(0, 2, 3, 1),
                        plan.runs(k), out=out)
                    res = out.reshape(n, -1, r_out)
            partials.append(res)
        return partials
