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

from repro.ops.embedding import CompressedEmbedding
from repro.ops.module import Parameter, coalesce_rows
from repro.tt.decomposition import tt_full_tensor
from repro.tt.embedding_bag import accumulate_core_grads
from repro.tt.initialization import tt_core_initializer
from repro.tt.planner import ExecutionPlanner
from repro.tt.shapes import TTShape
from repro.utils.seeding import as_rng

__all__ = ["T3nsorEmbeddingBag"]


class T3nsorEmbeddingBag(CompressedEmbedding):
    """TT-compressed table that decompresses fully on each forward pass."""

    def __init__(self, num_rows: int, dim: int, *, shape: TTShape | None = None,
                 rank: int = 32, d: int = 3, mode: str = "sum",
                 initializer="gaussian",
                 rng: int | None | np.random.Generator = None,
                 name: str = "t3nsor_emb"):
        super().__init__(num_rows, dim, mode)
        if shape is None:
            shape = TTShape.suggested(num_rows, dim, d=d, rank=rank)
        self.shape = shape
        init_fn = initializer if callable(initializer) else tt_core_initializer(initializer)
        # Sparse like every TT core: a core's gradient is the pair
        # accumulate_core_grads builds (here nearly every slice).
        self.cores = [
            Parameter(core, name=f"{name}.core{k}", sparse=True)
            for k, core in enumerate(init_fn(shape, as_rng(rng)))
        ]

    def materialize(self) -> np.ndarray:
        """Full-table decompression — executed on *every* forward pass."""
        return tt_full_tensor([p.data for p in self.cores])[: self.num_rows]

    def _rows(self, indices: np.ndarray) -> np.ndarray:
        """Row materialisation — via full-table decompression, of course."""
        return self.materialize()[indices]

    @property
    def peak_activation_elements(self) -> int:
        """Elements of transient state per forward: the whole padded table."""
        return self.shape.padded_rows * self.dim

    def _backward_rows(self, indices, grad_rows, saved) -> None:
        """Backprop through full decompression: dense ``dW`` then core grads.

        The dense table gradient is scattered from the touched rows, then
        pushed through the reconstruction — an ``O(M*N)``-memory step, the
        exact cost TT-Rec's Algorithm 2 avoids.
        """
        if not indices.size:  # all bags empty: no row, no core gradient
            return
        d_full = np.zeros((self.shape.padded_rows, self.dim),
                          dtype=grad_rows.dtype)
        rows, summed = coalesce_rows(indices, grad_rows)
        d_full[rows] = summed
        self._backprop_full(d_full)

    def _backprop_full(self, d_full: np.ndarray) -> None:
        """Core gradients from a dense table gradient.

        Treats every padded row as "looked up once with gradient
        ``d_full[i]``" and reuses the TT chain-rule sweep; this is
        mathematically the adjoint of :func:`tt_full_tensor`.
        """
        planner = ExecutionPlanner(self.shape)
        plan = planner.plan_batch(
            np.arange(self.shape.padded_rows, dtype=np.int64), dedup=False)
        _, lefts = planner.execute(self.cores, plan, keep_lefts=True)
        accumulate_core_grads(self.shape, self.cores, plan, d_full, lefts)
