"""Batch execution planner for the TT contraction chain (Algorithm 1).

The TT row lookup is a chain of batched GEMMs whose cost depends on the
*order* the chain is contracted in — FBTT-Embedding (the paper's released
CUDA kernel) and EL-Rec both tune this before launching kernels. This
module brings that planning layer to the NumPy hot path:

- **Dedup once, share everywhere.** :meth:`ExecutionPlanner.plan_batch`
  collapses duplicate indices with one ``np.unique`` and hands the same
  :class:`BatchPlan` (decoded unique indices + inverse map) to forward,
  backward and the hybrid cache's miss path. Under Zipf traffic most of a
  batch is duplicates, so this removes most of the GEMM work outright.

- **Schedule selection by exact FLOP/bytes counting.** For a given
  :class:`~repro.tt.shapes.TTShape` the chain can be contracted
  left-to-right (``l2r``), right-to-left (``r2l``) or from both ends
  meeting at core ``k`` (``split@k``). :func:`candidate_schedules` counts
  exact multiply-add FLOPs and modelled memory traffic per row for every
  candidate; ``auto`` policy picks the cheapest, ``fixed``/``l2r``/
  ``r2l``/``split:k`` pin one. Because boundary ranks are 1, ``r2l`` has
  the same cost as ``split@1`` and ``l2r`` the same as ``split@{d-1}``;
  interior splits are only distinct for ``d >= 4``.

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

Backward (Algorithm 2) consumes *left* partial products, so any forward
that must keep or recompute ``lefts`` is pinned to ``l2r`` regardless of
policy; alternate schedules apply to lookup-only execution (inference,
cache fills, ``store_intermediates=False`` forwards recompute in ``l2r``).
This is also what keeps planned gradients bit-identical to the unplanned
path. See docs/KERNELS.md for the cost model and the benchmark gate.
Planning effort is observable through the ``tt.plan.*`` counters:
``flops_planned``/``flops_executed``/``flops_saved``, ``dedup_removed``,
and ``tt.plan.memo_hits``/``tt.plan.memo_misses`` for the schedule memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.telemetry import annotate_span, get_registry, trace
from repro.tt.kernels import segmented_matmul, sorted_runs
from repro.tt.shapes import TTShape

__all__ = [
    "Schedule",
    "BatchPlan",
    "BufferPool",
    "ExecutionPlanner",
    "candidate_schedules",
    "schedule_cost",
]

# Weight (in FLOP-equivalents per byte) of modelled memory traffic when
# ranking schedules. The chain is many small GEMMs whose partials are
# permuted in and out of core-index order around each step, so a pure
# FLOP count under-penalises schedules that stream larger intermediates;
# 0.5 flop/byte roughly matches the measured FLOP:bandwidth balance of
# NumPy batched matmul on the bench shapes and is documented in
# docs/KERNELS.md. Selection only changes where FLOP counts tie or nearly
# tie, so the exact value is not load-bearing.
_ALPHA_BYTES = 0.5


@dataclass(frozen=True)
class Schedule:
    """One contraction order for a fixed :class:`TTShape`.

    ``flops_per_row`` counts exact multiply-add FLOPs (2 per MAC) for one
    looked-up row; ``bytes_per_row`` is the modelled traffic: the two
    boundary-core gathers (read + write), every segmented step's permutes
    and GEMM operands (:func:`_segment_traffic`) and the combine GEMM,
    times the element size. Interior core slices are read in place.
    """

    kind: str  # "l2r" | "r2l" | "split"
    split: int | None
    flops_per_row: int
    bytes_per_row: int
    gemms: int

    @property
    def label(self) -> str:
        return f"split@{self.split}" if self.kind == "split" else self.kind

    def cost(self, n: int) -> float:
        """Modelled execution cost of an ``n``-row batch (FLOP-equivalents)."""
        return n * (self.flops_per_row + _ALPHA_BYTES * self.bytes_per_row)


@dataclass
class BatchPlan:
    """A planned batch: schedule + dedup bookkeeping shared by fwd/bwd.

    ``decoded`` is ``(d, n_unique)``; ``inverse`` maps each of the ``n``
    raw positions to its unique row (``None`` when dedup is off or the
    batch had no duplicates removed).
    """

    schedule: Schedule
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


def _partial_l2r(shape: TTShape, itemsize: int, lo: int, hi: int):
    """Cost of the left-to-right sweep over cores ``lo..hi-1``.

    Returns ``(flops, bytes, gemms, out_cols)`` per row, where the sweep's
    result has shape ``(prod col[lo:hi]) x ranks[hi]`` and ``out_cols`` is
    that row count (``P``).
    """
    col, ranks = shape.col_factors, shape.ranks
    traffic = 2 * ranks[lo] * col[lo] * ranks[lo + 1]  # boundary gather: read + write
    flops = 0
    gemms = 0
    p = col[lo]
    for k in range(lo + 1, hi):
        slice_elems = ranks[k] * col[k] * ranks[k + 1]
        in_elems = p * ranks[lo] * ranks[k]
        out_elems = p * ranks[lo] * col[k] * ranks[k + 1]
        # A (P*R_lo, R_k) @ B (R_k, n_k*R_{k+1}) -> C
        flops += 2 * in_elems * col[k] * ranks[k + 1]
        traffic += _segment_traffic(in_elems, slice_elems, out_elems)
        gemms += 1
        p *= col[k]
    return flops, traffic * itemsize, gemms, p


def _partial_r2l(shape: TTShape, itemsize: int, lo: int, hi: int):
    """Cost of the right-to-left sweep over cores ``lo..hi-1``.

    The result has shape ``ranks[lo] x (prod col[lo:hi])`` per row;
    returns ``(flops, bytes, gemms, out_cols)`` with ``out_cols = Q``.
    """
    col, ranks = shape.col_factors, shape.ranks
    last = hi - 1
    traffic = 2 * ranks[last] * col[last] * ranks[hi]  # boundary gather
    flops = 0
    gemms = 0
    q = col[last] * ranks[hi]  # ranks[hi] == 1 (hi == d at the one call site)
    for k in range(hi - 2, lo - 1, -1):
        slice_elems = ranks[k] * col[k] * ranks[k + 1]
        out_elems = ranks[k] * col[k] * q
        # A (R_k*n_k, R_{k+1}) @ B (R_{k+1}, Q) -> C
        flops += 2 * slice_elems * q
        traffic += _segment_traffic(ranks[k + 1] * q, slice_elems, out_elems)
        gemms += 1
        q *= col[k]
    return flops, traffic * itemsize, gemms, q


def _segment_traffic(in_elems: int, slice_elems: int, out_elems: int) -> int:
    """Elements one lookup moves in a segmented step: its partial is
    permuted into core-index order and read by the GEMM (write + 2 reads),
    its slice is read in place, and the product is written and permuted
    back (2 writes + read). No slice is copied."""
    return 3 * in_elems + slice_elems + 3 * out_elems


def schedule_cost(shape: TTShape, kind: str, split: int | None = None,
                  itemsize: int = 8) -> Schedule:
    """Exact per-row FLOP/bytes model for one contraction order.

    Boundary ranks are 1, so ``l2r`` is ``split@(d-1)`` and ``r2l`` is
    ``split@1`` — same GEMMs, the last one relabelled as the combine —
    and that is how :meth:`ExecutionPlanner.execute` runs them.
    """
    d = shape.d
    if kind in ("l2r", "r2l"):
        meet = schedule_cost(shape, "split", d - 1 if kind == "l2r" else 1,
                             itemsize)
        return replace(meet, kind=kind, split=None)
    if kind == "split":
        if split is None or not (1 <= split <= d - 1):
            raise ValueError(f"split must be in [1, {d - 1}], got {split}")
        lf, lb, lg, p_left = _partial_l2r(shape, itemsize, 0, split)
        rf, rb, rg, q_right = _partial_r2l(shape, itemsize, split, d)
        r_mid = shape.ranks[split]
        # Combine: (P_left, R_split) @ (R_split, Q_right) -> the row.
        flops = lf + rf + 2 * p_left * r_mid * q_right
        nbytes = lb + rb + itemsize * (
            p_left * r_mid + r_mid * q_right + p_left * q_right
        )
        return Schedule("split", split, flops, nbytes, lg + rg + 1)
    raise ValueError(f"unknown schedule kind {kind!r}")


def candidate_schedules(shape: TTShape, itemsize: int = 8) -> list[Schedule]:
    """Every contraction order the planner considers, ``l2r`` first.

    Ordering matters: ``auto`` selection breaks cost ties in list order,
    preferring the simplest schedule (``l2r``, then ``r2l``, then splits).
    """
    cands = [schedule_cost(shape, "l2r", itemsize=itemsize),
             schedule_cost(shape, "r2l", itemsize=itemsize)]
    for s in range(1, shape.d):
        cands.append(schedule_cost(shape, "split", s, itemsize=itemsize))
    return cands


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
    """Per-module planner: schedule choice, dedup, pooled execution.

    Parameters
    ----------
    shape:
        The :class:`TTShape` all plans are made for.
    policy:
        ``"auto"`` picks the cheapest schedule per batch-size bucket;
        ``"fixed"``/``"l2r"`` pins left-to-right (the pre-planner
        behaviour); ``"r2l"`` pins right-to-left; ``"split:k"`` pins the
        two-sided sweep meeting at core ``k``. Any forward that must
        produce left partials for Algorithm 2 uses ``l2r`` regardless.
    itemsize:
        Element size (bytes) used by the traffic model.
    """

    def __init__(self, shape: TTShape, policy: str = "auto", itemsize: int = 8):
        self.shape = shape
        self.itemsize = int(itemsize)
        self.candidates = candidate_schedules(shape, self.itemsize)
        self._l2r = self.candidates[0]
        self._forced: Schedule | None = None
        policy = str(policy)
        if policy == "auto":
            pass
        elif policy in ("fixed", "l2r"):
            self._forced = self._l2r
        elif policy == "r2l":
            self._forced = self.candidates[1]
        elif policy.startswith("split:"):
            split = int(policy.split(":", 1)[1])
            self._forced = schedule_cost(shape, "split", split, self.itemsize)
        else:
            raise ValueError(
                f"unknown plan policy {policy!r}; expected 'auto', 'fixed', "
                "'l2r', 'r2l' or 'split:<k>'"
            )
        self.policy = policy
        self.pool = BufferPool()
        self._memo: dict[tuple[int, bool], Schedule] = {}
        reg = get_registry()
        self._counters = {
            key: reg.counter(f"tt.plan.{key}")
            for key in ("flops_saved", "flops_planned", "flops_executed",
                        "dedup_removed", "memo_hits", "memo_misses")
        }

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #

    def schedule_for(self, n: int, *, need_lefts: bool = False) -> Schedule:
        """Cheapest legal schedule for an ``n``-row batch (memoized).

        Memoized per ``(batch-size bucket, need_lefts)``: buffer
        capacities are bucket-sized and :meth:`Schedule.cost` may weigh
        batch size, so the bucket is part of the plan identity.
        """
        key = (_bucket(n), bool(need_lefts))
        hit = self._memo.get(key)
        if hit is not None:
            self._counters["memo_hits"].inc()
            return hit
        self._counters["memo_misses"].inc()
        if need_lefts:
            # Algorithm 2 consumes left partial products; only l2r makes them.
            chosen = self._l2r
        elif self._forced is not None:
            chosen = self._forced
        else:
            chosen = min(self.candidates, key=lambda s: s.cost(key[0]))
        self._memo[key] = chosen
        return chosen

    def plan_batch(self, indices: np.ndarray, *, dedup: bool,
                   need_lefts: bool) -> BatchPlan:
        """Build the shared per-batch plan: schedule + one dedup pass."""
        indices = np.asarray(indices, dtype=np.int64)
        n = int(indices.size)
        schedule = self.schedule_for(n, need_lefts=need_lefts)
        with trace("tt.plan", schedule=schedule.label,
                   dedup="on" if dedup else "off"):
            if dedup and n:
                uniq, inverse = np.unique(indices, return_inverse=True)
                inverse = inverse.reshape(-1)
                if uniq.size == n:
                    uniq, inverse = indices, None
            else:
                uniq, inverse = indices, None
            decoded = self.shape.decode_indices(uniq)
            # Request traces see the dedup effectiveness per batch; the
            # aggregate tracer only folds counts, so this is trace-only.
            annotate_span(rows=n, unique=int(decoded.shape[1]))
        n_unique = int(decoded.shape[1])
        baseline = n * self._l2r.flops_per_row
        planned = n_unique * schedule.flops_per_row
        if n:
            self._counters["flops_planned"].inc(planned)
            self._counters["flops_saved"].inc(max(0, baseline - planned))
            self._counters["dedup_removed"].inc(n - n_unique)
        return BatchPlan(schedule, n, n_unique, decoded, inverse,
                         planned, baseline)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(self, schedule: Schedule, cores: list, plan: BatchPlan,
                *, keep_lefts: bool = False, pooled: bool = False
                ) -> tuple[np.ndarray, list[np.ndarray] | None]:
        """Contract the chain for the planned rows of one table.

        ``cores`` is the table's list of core parameters (mode-first
        layout) and ``plan`` its :class:`BatchPlan`. Every interior chain
        step is :func:`~repro.tt.kernels.segmented_matmul` against a view
        of each touched core slice; only the boundary core that *is* a
        sweep's first partial is gathered. Returns ``(rows, lefts)`` where
        ``lefts`` is ``None`` unless ``keep_lefts``. Pooled outputs are
        views into :attr:`pool` and are clobbered by the next pooled call.
        """
        if keep_lefts and schedule.kind != "l2r":
            raise ValueError(
                f"left partials require the l2r schedule, got {schedule.label}"
            )
        n = plan.n_unique
        dtype = cores[0].data.dtype
        if n == 0:
            rows = np.zeros((0, self.shape.dim), dtype=dtype)
            return rows, ([] if keep_lefts else None)
        # Boundary ranks are 1, so l2r *is* split@(d-1) and r2l split@1
        # (same GEMMs, the last one relabelled "combine"): both boundary
        # cores are gathered and only interior cores take a segmented step.
        d = self.shape.d
        split = {"l2r": d - 1, "r2l": 1}.get(schedule.kind, schedule.split)
        lefts = self._sweep(cores, plan, range(split), pooled)
        right_t = self._sweep(cores, plan, range(d - 1, split - 1, -1),
                              pooled)[-1]
        with trace("tt.forward.combine", split=split):
            # (n, P_left, R_split) @ (n, Q_right, R_split)^T
            rows = np.matmul(lefts[-1], right_t.transpose(0, 2, 1), out=self._buf(
                pooled, "combine", (n, lefts[-1].shape[1], right_t.shape[1]),
                dtype))
        self._counters["flops_executed"].inc(n * schedule.flops_per_row)
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
