"""Two-factor low-rank embedding (Ghaemmaghami et al. 2020 style).

``W ~= A @ B`` with ``A: (num_rows, r)`` and ``B: (r, dim)``. A lookup is
one small gather plus a ``(bag, r) @ (r, dim)`` GEMM, and the parameter
count is ``num_rows*r + r*dim`` — so unlike TT, compression is capped at
``dim / r`` and cannot reach the orders of magnitude TT offers at equal
rank. The baseline bench shows exactly that ceiling.
"""

from __future__ import annotations

import numpy as np

from repro.ops.embedding import CompressedEmbedding
from repro.ops.module import Parameter, coalesce_rows
from repro.utils.seeding import as_rng

__all__ = ["LowRankEmbeddingBag"]


class LowRankEmbeddingBag(CompressedEmbedding):
    """Pooled embedding lookup through a rank-``r`` factorization.

    Bags are pooled in *factor space* (``r << dim``) and projected by one
    GEMM per batch, so the forward's rows are rows of ``A`` and the pool
    step (and its adjoint) carries the ``B`` projection.
    """

    def __init__(self, num_rows: int, dim: int, rank: int, *, mode: str = "sum",
                 rng: int | None | np.random.Generator = None,
                 name: str = "lowrank_emb"):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if rank > dim:
            raise ValueError(
                f"rank ({rank}) above dim ({dim}) stores more than the dense table"
            )
        super().__init__(num_rows, dim, mode)
        rng = as_rng(rng)
        self.rank = rank
        # Scale so W = A @ B matches the DLRM default Uniform(±1/sqrt(M))
        # variance: Var(W_ij) = rank * var_a * var_b = 1/(3M).
        entry_std = (1.0 / (3.0 * num_rows * rank)) ** 0.25
        self.factor_a = Parameter(
            rng.normal(0.0, entry_std, size=(num_rows, rank)),
            name=f"{name}.A", sparse=True,
        )
        self.factor_b = Parameter(
            rng.normal(0.0, entry_std, size=(rank, dim)), name=f"{name}.B"
        )

    def _rows(self, indices: np.ndarray) -> np.ndarray:
        return self.factor_a.data[indices] @ self.factor_b.data

    def _read_rows(self, indices: np.ndarray) -> np.ndarray:
        return self.factor_a.data[indices]  # (n, r)

    def _pool(self, a_rows, offsets, alpha):
        pooled_a, counts = super()._pool(a_rows, offsets, alpha)  # (m, r)
        return pooled_a @ self.factor_b.data, (pooled_a, counts)

    def _unpool(self, grad_out, kept, alpha):
        # dB = pooled_a^T dO; d pooled_a = dO B^T, un-pooled to (n, r).
        pooled_a, counts = kept
        self.factor_b.grad += pooled_a.T @ grad_out
        return super()._unpool(grad_out @ self.factor_b.data.T, counts, alpha)

    def _backward_rows(self, indices, grad_rows, saved) -> None:
        self.factor_a.accumulate(*coalesce_rows(indices, grad_rows))

    def materialize(self) -> np.ndarray:
        """Dense ``num_rows x dim`` table (analysis only)."""
        return self.factor_a.data @ self.factor_b.data
