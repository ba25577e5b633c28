"""Low-level kernels shared by the TT embedding operators.

The production forward/backward paths in
:class:`~repro.tt.embedding_bag.TTEmbeddingBag` are built from segmented
GEMMs — the batch grouped by core index, each group multiplied against its
core slice in place, the NumPy analogue of the pointer-array cuBLAS
``GemmBatchedEx`` calls in paper Algorithms 1-2. This module holds:

- :func:`segmented_outer_add` — Algorithm 2's core gradient as a
  segmented GEMM: samples are grouped by core index and each touched
  slice gets one ``A_groupᵀ @ B_group`` product, so duplicates are reduced
  inside the contraction, no per-sample gradient block exists, and the
  result is already the coalesced ``(slices, blocks)`` pair a core's
  gradient is;
- :func:`segmented_matmul` — one chain step ``x[s] @ G_k(i_k[s])`` against
  one view of each touched slice instead of a per-sample gather: every
  step of Algorithm 1 and Algorithm 2's ``Right_{k-1} = G_k(i_k) Right_k``;
- :func:`tt_lookup_reference` — a deliberately naive per-row implementation
  of paper Eq. 3 used as the correctness oracle in tests and as the
  "no batching" arm of the kernel ablation benchmark.

Row-shaped gradients (the dedup combine, cache rows, the dense table and
the baselines) coalesce through :func:`repro.ops.module.coalesce_rows`,
which lives beside :class:`~repro.ops.module.Parameter` because
:mod:`repro.ops`'s dense table needs it and cannot import this package.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry import trace
from repro.tt.shapes import TTShape
from repro.utils.dtypes import result_dtype

__all__ = ["segmented_matmul", "segmented_outer_add", "sorted_runs",
           "tt_lookup_reference"]


def sorted_runs(rows: np.ndarray) -> tuple[np.ndarray | None, np.ndarray, list[int]]:
    """``(order, uniq, bounds)``: ``order`` stably sorts ``rows`` and run
    ``rows[order][bounds[i]:bounds[i + 1]]`` holds only ``uniq[i]``.

    ``order`` is ``None`` when ``rows`` is already sorted (always at
    ``n = 1``, and for the leading core of a deduplicated batch), which
    lets the segmented kernels skip their permute-in and permute-out.
    """
    n = rows.shape[0]
    if n == 1:
        return None, rows, [0, 1]
    order = None
    if (rows[1:] < rows[:-1]).any():
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
    starts = [0, *((rows[1:] != rows[:-1]).nonzero()[0] + 1).tolist()]
    return order, rows[starts], [*starts, n]


def segmented_outer_add(rows: np.ndarray, a: np.ndarray, b: np.ndarray,
                        runs: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(uniq, block)`` with ``block[i] = sum(a[s].T @ b[s] for s where
    rows[s] == uniq[i])`` and ``uniq`` the sorted unique ``rows``.

    ``rows`` is ``(n,)`` int, ``a`` is ``(n, Q, A)``, ``b`` is ``(n, Q, B)``
    and ``block`` ``(len(uniq), A, B)``. Both factors are gathered once in
    sorted ``rows`` order and flattened K-major to ``(n*Q, A)`` /
    ``(n*Q, B)``, so the samples of one slice are a contiguous run and
    their summed outer product is a single GEMM with ``K = group * Q`` —
    duplicates are reduced inside the contraction and the per-sample
    ``(n, A, B)`` block never exists. ``runs`` is ``sorted_runs(rows)``
    when the caller already has it.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[0]
    if a.shape[:2] != b.shape[:2] or a.shape[0] != n:
        raise ValueError(
            f"rows ({n}), a {a.shape} and b {b.shape} disagree on (n, Q)")
    q, width_a, width_b = a.shape[1], a.shape[2], b.shape[2]
    if n == 0:
        return rows, np.empty((0, width_a, width_b), dtype=result_dtype(a, b))
    with trace("kernels.segmented_outer_add"):
        order, uniq, bounds = runs or sorted_runs(rows)
        if order is not None:
            a, b = np.take(a, order, axis=0), np.take(b, order, axis=0)
        a, b = a.reshape(n * q, width_a), b.reshape(n * q, width_b)
        block = np.empty((uniq.size, width_a, width_b), dtype=result_dtype(a, b))
        for i in range(uniq.size):
            run = slice(bounds[i] * q, bounds[i + 1] * q)
            np.matmul(a[run].T, b[run], out=block[i])
    return uniq, block


def segmented_matmul(x: np.ndarray, rows: np.ndarray, mats: np.ndarray,
                     runs: tuple | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """``out[s] = x[s] @ mats[rows[s]]`` without gathering ``mats`` per sample.

    ``x`` is ``(n, Q, K)``, ``mats`` is ``(m, J, K, N)`` (any strides) and
    the result ``(n, J, Q, N)``, written into ``out`` when given. Samples
    are grouped by ``rows`` (``runs`` is ``sorted_runs(rows)`` when the
    caller already has it) and each group multiplies one *view* of its
    slice, so the ``(n, J, K, N)`` gather — for a middle TT core the
    largest transient of a step — is never made. Every sample is its own
    GEMM on a C-contiguous ``x[s]``, so its result does not depend on
    which other samples share the batch or on where in it the sample sits.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[0]
    if x.shape[0] != n:
        raise ValueError(f"rows ({n}) and x ({x.shape[0]}) disagree")
    if out is None:
        out = np.empty((n, mats.shape[1], x.shape[1], mats.shape[3]),
                       dtype=result_dtype(x, mats))
    if n == 0:
        return out
    with trace("kernels.segmented_matmul"):
        order, uniq, bounds = runs or sorted_runs(rows)
        # C-contiguous either way, so a sample's GEMM sees one layout
        # whether or not its batch needed the permute.
        x = (np.ascontiguousarray(x) if order is None
             else np.take(x, order, axis=0))[:, None]
        sorted_out = out if order is None else np.empty_like(out)
        for i, j in enumerate(uniq.tolist()):
            run = slice(bounds[i], bounds[i + 1])
            np.matmul(x[run], mats[j], out=sorted_out[run])
        if order is not None:
            out[order] = sorted_out
    return out


def tt_lookup_reference(cores: list[np.ndarray], shape: TTShape,
                        indices: np.ndarray) -> np.ndarray:
    """Per-row TT lookup by explicit matrix chain (paper Eq. 3), no batching.

    ``cores`` use the mode-first layout ``(m_k, R_{k-1}, n_k, R_k)``.
    Quadratic-time oracle: clear, slow, and used to validate the fast path.
    """
    indices = np.asarray(indices, dtype=np.int64)
    decoded = shape.decode_indices(indices)
    with trace("kernels.naive_chain", rows=int(indices.size)):
        return _naive_chain(cores, shape, decoded, indices.size)


def _naive_chain(cores: list[np.ndarray], shape: TTShape, decoded: np.ndarray,
                 num_rows: int) -> np.ndarray:
    # The gather buffer follows the cores' dtype (the single dtype policy;
    # a hard-coded float64 here would silently upcast float32 cores).
    dtype = result_dtype(*cores)
    out = np.empty((num_rows, shape.dim), dtype=dtype)
    for row in range(num_rows):
        acc = np.ones((1, 1), dtype=dtype)
        for k in range(shape.d):
            slice_k = cores[k][decoded[k, row]]  # (R_{k-1}, n_k, R_k)
            r_prev, nk, rk = slice_k.shape
            # (P, R_{k-1}) @ (R_{k-1}, n_k*R_k) -> (P, n_k*R_k) -> (P*n_k, R_k)
            acc = (acc @ slice_k.reshape(r_prev, nk * rk)).reshape(-1, rk)
        out[row] = acc.reshape(-1)
    return out
