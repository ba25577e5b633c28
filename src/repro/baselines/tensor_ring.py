"""Tensor-Ring embedding (Wang et al. 2018) — the tensorization alternative.

Tensor-Ring (TR) decomposition generalises TT by closing the chain into a
ring: boundary ranks equal a shared ring rank ``R0 >= 1`` instead of 1,
and a table entry is the *trace* of the matrix-product chain:

    W(i, j) = Tr( G_1(i_1, j_1) G_2(i_2, j_2) ... G_d(i_d, j_d) )

With ``R0 == 1`` TR degenerates exactly to TT. The paper's Related Work
notes TR "can preserve the weights with moderately lower compression
ratios than that of TT" — the baseline bench quantifies that trade-off on
the same tables.

A tensor ring *is* a tensor train whose closed boundary rank is folded
into the first and last mode: the TR cores ``(m_1, R0, n_1, R_1)`` and
``(m_d, R_{d-1}, n_d, R0)`` are, byte for byte, the TT cores
``(m_1, 1, R0 n_1, R_1)`` and ``(m_d, R_{d-1}, n_d R0, 1)``, and the TR
row is the trace over the two ``R0`` axes of that TT row. So the operator
holds a :class:`~repro.tt.embedding_bag.TTEmbeddingBag` on the folded
shape — one chain executor, one Algorithm 2, one index decode for both
families — and adds only the trace and its adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ops.embedding import CompressedEmbedding
from repro.tt.embedding_bag import TTEmbeddingBag
from repro.tt.shapes import TTShape

__all__ = ["TRShape", "TREmbeddingBag"]


@dataclass(frozen=True)
class TRShape:
    """One TR-compressed table: the ring's validation over a folded TT shape.

    ``ranks`` has length ``d + 1`` with ``ranks[0] == ranks[-1]`` — the
    ring rank. ``folded`` is the boundary-folded :class:`TTShape` (``dim``
    there is ``R0 * dim * R0``); index decoding, padding, core shapes and
    the parameter count are its.
    """

    num_rows: int
    dim: int
    row_factors: tuple[int, ...]
    col_factors: tuple[int, ...]
    ranks: tuple[int, ...]
    folded: TTShape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.ranks or self.ranks[0] != self.ranks[-1]:
            raise ValueError(f"ring boundary ranks must match, got {self.ranks}")
        r0, col = self.ranks[0], self.col_factors
        object.__setattr__(self, "folded", TTShape(
            self.num_rows, r0 * self.dim * r0, tuple(self.row_factors),
            (r0 * col[0], *col[1:-1], col[-1] * r0), (1, *self.ranks[1:-1], 1)))

    @classmethod
    def suggested(cls, num_rows: int, dim: int, *, d: int = 3, rank: int = 8) -> TRShape:
        """:meth:`TTShape.suggested`'s factorization with a uniform rank on
        every boundary, the ring's included."""
        tt = TTShape.suggested(num_rows, dim, d=d, rank=rank)
        return cls(num_rows, dim, tt.row_factors, tt.col_factors,
                   (rank,) * (d + 1))

    @property
    def ring_rank(self) -> int:
        return self.ranks[0]


class TREmbeddingBag(CompressedEmbedding):
    """Bag-pooled embedding lookup backed by Tensor-Ring cores."""

    def __init__(self, num_rows: int, dim: int, *, shape: TRShape | None = None,
                 rank: int = 8, d: int = 3, mode: str = "sum",
                 rng: int | None | np.random.Generator = None,
                 name: str = "tr_emb"):
        super().__init__(num_rows, dim, mode)
        if shape is None:
            shape = TRShape.suggested(num_rows, dim, d=d, rank=rank)
        self.shape = shape
        r0 = shape.ring_rank
        # Variance-matched init: each entry is a sum over R0 * prod(R_k)
        # ring paths of d-fold products; match N(0, 1/3n) like TT (§3.2).
        paths = float(np.prod(shape.ranks[:-1]))  # R0 * R1 * ... * R_{d-1}
        entry_std = (1.0 / (3.0 * num_rows) / paths) ** (1.0 / (2 * shape.folded.d))
        self.folded = TTEmbeddingBag(
            num_rows, r0 * dim * r0, shape=shape.folded, mode=mode, rng=rng, name=name,
            initializer=lambda tt, gen: [
                gen.normal(0.0, entry_std, size=tt.core_shape(k))
                for k in range(tt.d)])
        self.cores = self.folded.cores

    def _close(self, tt_rows: np.ndarray) -> np.ndarray:
        """Close the ring: ``out[b, p] = sum_a row[b, a, p, a]``."""
        r0 = self.shape.ring_rank
        return np.trace(tt_rows.reshape(-1, r0, self.dim, r0), axis1=1, axis2=3)

    def _rows(self, indices: np.ndarray) -> np.ndarray:
        return self._close(self.folded._rows(indices))

    def _forward_rows(self, indices: np.ndarray):
        tt_rows, saved = self.folded._forward_rows(indices)
        return self._close(tt_rows), saved

    def _backward_rows(self, indices, grad_rows, saved) -> None:
        """The trace's adjoint — the row gradient on the ``R0`` diagonal of
        the TT row's gradient — handed to Algorithm 2."""
        eye = np.eye(self.shape.ring_rank, dtype=grad_rows.dtype)
        tt_grad = grad_rows[:, None, :, None] * eye[:, None, :]
        self.folded._backward_rows(indices, tt_grad.reshape(-1, self.folded.dim), saved)

    def materialize(self) -> np.ndarray:
        """Dense table from the ring cores (analysis/tests only)."""
        return self._rows(np.arange(self.num_rows, dtype=np.int64))
