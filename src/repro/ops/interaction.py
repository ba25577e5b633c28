"""DLRM feature-interaction operators.

DLRM combines the bottom-MLP output with the pooled embedding vectors via
an explicit second-order interaction: all pairwise dot products between the
feature vectors, concatenated with the dense vector (``DotInteraction``,
the MLPerf-DLRM configuration TT-Rec trains, ``arch-interaction-op=dot``).
"""

from __future__ import annotations

import numpy as np

from repro.ops.module import Module
from repro.utils.dtypes import default_dtype

__all__ = ["DotInteraction"]


class DotInteraction(Module):
    """Pairwise-dot interaction, ``arch-interaction-op=dot`` in DLRM.

    Input: the dense vector ``x`` of shape ``(B, D)`` and ``S`` sparse
    feature vectors each ``(B, D)``. Stacking them gives ``T`` of shape
    ``(B, F, D)`` with ``F = S + 1``; the layer emits
    ``concat([x, lower_triangle(T @ T^T)])`` of width
    ``D + F*(F-1)//2`` (strictly-lower triangle, no self-interactions,
    matching ``arch-interaction-itself=False``). ``forward`` hands back
    ``T`` as what ``backward`` reads.
    """

    @staticmethod
    def output_dim(dense_dim: int, num_sparse: int) -> int:
        f = num_sparse + 1
        return dense_dim + f * (f - 1) // 2

    def forward(self, x: np.ndarray,
                sparse: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=default_dtype())
        if x.ndim != 2:
            raise ValueError(f"dense input must be 2-D, got shape {x.shape}")
        feats = [x] + [np.asarray(v, dtype=x.dtype) for v in sparse]
        for i, v in enumerate(feats):
            if v.shape != x.shape:
                raise ValueError(
                    f"feature {i} has shape {v.shape}, expected {x.shape}"
                )
        stacked = np.stack(feats, axis=1)  # (B, F, D)
        z = stacked @ stacked.transpose(0, 2, 1)  # (B, F, F)
        li, lj = np.tril_indices(stacked.shape[1], k=-1)
        return np.concatenate([x, z[:, li, lj]], axis=1), stacked

    def backward(self, grad_out: np.ndarray,
                 stacked: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Return ``(grad_x, [grad_sparse_0, ...])`` for the ``stacked``
        that :meth:`forward` handed back."""
        b, f, d = stacked.shape
        li, lj = np.tril_indices(f, k=-1)
        grad_out = np.asarray(grad_out, dtype=stacked.dtype)
        grad_x_direct = grad_out[:, :d]
        # z = T T^T  =>  dT = (gz + gz^T) T. The two triangles are disjoint
        # and the diagonal is 0, so gz + gz^T is pair (i, j)'s gradient at
        # both (i, j) and (j, i): one gather of grad_out's pair columns,
        # then the diagonal zeroed, with no transposed add. (``take`` keeps
        # the result row-major; ``grad_out[:, cols]`` would not, and the
        # reshape below would copy it.)
        pair = d + np.arange(li.size)
        cols = np.zeros((f, f), dtype=np.intp)
        cols[li, lj] = pair
        cols[lj, li] = pair
        sym = np.take(grad_out, cols.reshape(-1), axis=1)
        sym[:, :: f + 1] = 0.0
        grad_stacked = sym.reshape(b, f, f) @ stacked
        grad_x = grad_stacked[:, 0, :] + grad_x_direct
        grad_sparse = [grad_stacked[:, i, :] for i in range(1, f)]
        return grad_x, grad_sparse
