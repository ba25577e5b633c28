"""Feature-hashing embedding (Weinberger et al. 2009) — collision baseline.

Maps each of ``num_rows`` logical rows onto ``num_buckets << num_rows``
physical rows via a mixing hash; optionally applies a sign hash so
colliding rows partially cancel rather than add (the classic hashing-trick
variance reduction). The paper's Related Work cites this as the seminal
embedding-compression approach whose collisions cost accuracy at high
compression — the behaviour the baseline bench quantifies.
"""

from __future__ import annotations

import numpy as np

from repro.cache.hashtable import splitmix64
from repro.ops.embedding import CompressedEmbedding, EmbeddingBag
from repro.utils.seeding import as_rng

__all__ = ["HashedEmbeddingBag"]


class HashedEmbeddingBag(CompressedEmbedding):
    """EmbeddingBag over a hashed, smaller physical table.

    Parameters
    ----------
    num_rows:
        Logical vocabulary size (what callers index with).
    num_buckets:
        Physical rows actually stored; compression ratio is
        ``num_rows / num_buckets``.
    signed:
        Apply a ±1 sign hash per logical row (feature-hashing style) so
        collisions cancel in expectation.
    """

    def __init__(self, num_rows: int, dim: int, num_buckets: int, *,
                 mode: str = "sum", signed: bool = False, salt: int = 0,
                 rng: int | None | np.random.Generator = None,
                 name: str = "hashed_emb"):
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        if num_buckets > num_rows:
            raise ValueError(
                f"num_buckets ({num_buckets}) exceeding num_rows ({num_rows}) "
                "defeats the purpose of hashing"
            )
        super().__init__(num_rows, dim, mode)
        self.num_buckets = num_buckets
        self.signed = signed
        self.salt = salt
        self.table = EmbeddingBag(num_buckets, dim, mode=mode, rng=as_rng(rng),
                                  name=f"{name}.table")

    # ------------------------------------------------------------------ #

    def _hash(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        mixed = splitmix64(indices + np.int64(self.salt * 0x9E3779B9))
        buckets = (mixed % np.uint64(self.num_buckets)).astype(np.int64)
        signs = None
        if self.signed:
            signs = np.where((mixed >> np.uint64(63)) & np.uint64(1), -1.0, 1.0
                             ).astype(self.dtype)
        return buckets, signs

    def _rows(self, indices: np.ndarray) -> np.ndarray:
        buckets, signs = self._hash(indices)
        rows = self.table.weight.data[buckets]
        return rows if signs is None else rows * signs[:, None]

    def _backward_rows(self, indices, grad_rows, saved) -> None:
        buckets, signs = self._hash(indices)
        if signs is not None:
            grad_rows = grad_rows * signs[:, None]
        self.table._backward_rows(buckets, grad_rows, None)
