"""T3nsor-style baseline: decompress the whole table on the fly (Fig. 8).

The state-of-the-art TT embedding library the paper compares against
(Hrinchuk et al., 2020, "t3nsor") materialises the *entire* dense table
from the TT cores on every forward pass, then performs a standard
embedding gather. Consequently its activation memory footprint equals the
uncompressed table (``O(M*N)``) and its compute does not shrink with batch
size — the two deficiencies Fig. 8 quantifies. TT-Rec's kernel only ever
materialises the ``batch x N`` rows actually touched.

This re-implementation reproduces that strategy faithfully on the same
core layout so the Fig. 8 comparison is apples-to-apples.
"""

from __future__ import annotations

import numpy as np

from repro.ops.embedding import segment_sum
from repro.ops.module import Module, Parameter
from repro.tt.decomposition import tt_full_tensor
from repro.tt.embedding_bag import accumulate_core_grads, unpool_grads
from repro.tt.initialization import tt_core_initializer
from repro.tt.planner import ExecutionPlanner
from repro.tt.shapes import TTShape
from repro.utils.seeding import as_rng
from repro.utils.validation import check_csr

__all__ = ["T3nsorEmbeddingBag"]


class T3nsorEmbeddingBag(Module):
    """TT-compressed table that decompresses fully on each forward pass."""

    def __init__(self, num_rows: int, dim: int, *, shape: TTShape | None = None,
                 rank: int = 32, d: int = 3, mode: str = "sum",
                 initializer="gaussian",
                 rng: int | None | np.random.Generator = None,
                 name: str = "t3nsor_emb"):
        if mode not in ("sum", "mean"):
            raise ValueError(f"mode must be 'sum' or 'mean', got {mode!r}")
        if shape is None:
            shape = TTShape.suggested(num_rows, dim, d=d, rank=rank)
        rng = as_rng(rng)
        self.num_rows = num_rows
        self.dim = dim
        self.shape = shape
        self.mode = mode
        init_fn = initializer if callable(initializer) else tt_core_initializer(initializer)
        self.cores = [
            Parameter(core, name=f"{name}.core{k}", sparse=False)
            for k, core in enumerate(init_fn(shape, rng))
        ]
        self._cache: dict | None = None

    @property
    def dtype(self) -> np.dtype:
        return self.cores[0].data.dtype

    def materialize(self) -> np.ndarray:
        """Full-table decompression — executed on *every* forward pass."""
        return tt_full_tensor([p.data for p in self.cores])[: self.num_rows]

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """Row materialisation — via full-table decompression, of course."""
        indices = np.asarray(indices, dtype=np.int64)
        return self.materialize()[indices]

    @property
    def peak_activation_elements(self) -> int:
        """Elements of transient state per forward: the whole padded table."""
        return self.shape.padded_rows * self.dim

    def forward(self, indices: np.ndarray, offsets: np.ndarray | None = None,
                per_sample_weights: np.ndarray | None = None) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if offsets is None:
            offsets = np.arange(indices.size + 1, dtype=np.int64)
        indices, offsets = check_csr(indices, offsets, self.num_rows)
        full = self.materialize()
        rows = full[indices]
        alpha = None
        if per_sample_weights is not None:
            alpha = np.asarray(per_sample_weights, dtype=self.dtype).reshape(-1)
            rows = rows * alpha[:, None]
        out = segment_sum(rows, offsets)
        counts = np.diff(offsets)
        if self.mode == "mean":
            scale = np.asarray(np.where(counts > 0, counts, 1), dtype=out.dtype)
            out = out / scale[:, None]
        self._cache = {"indices": indices, "alpha": alpha, "counts": counts}
        return out

    __call__ = forward

    def backward(self, grad_out: np.ndarray) -> None:
        """Backprop through full decompression: dense ``dW`` then core grads.

        The dense table gradient is scattered from the touched rows, then
        pushed through the reconstruction — an ``O(M*N)``-memory step, the
        exact cost TT-Rec's Algorithm 2 avoids.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        c = self._cache
        grad_rows = unpool_grads(np.asarray(grad_out, dtype=self.dtype),
                                 c["counts"], c["alpha"], self.mode)
        d_full = np.zeros((self.shape.padded_rows, self.dim),
                          dtype=grad_rows.dtype)
        np.add.at(d_full, c["indices"], grad_rows)
        self._backprop_full(d_full)

    def _backprop_full(self, d_full: np.ndarray) -> None:
        """Core gradients from a dense table gradient.

        Treats every padded row as "looked up once with gradient
        ``d_full[i]``" and reuses the TT chain-rule sweep; this is
        mathematically the adjoint of :func:`tt_full_tensor`.
        """
        planner = ExecutionPlanner(self.shape, "l2r",
                                   itemsize=self.dtype.itemsize)
        plan = planner.plan_batch(
            np.arange(self.shape.padded_rows, dtype=np.int64), dedup=False,
            need_lefts=True)
        members = [(self.cores, plan)]
        _, lefts = planner.execute(plan.schedule, members, keep_lefts=True)
        accumulate_core_grads(self.shape, members, d_full, lefts)
