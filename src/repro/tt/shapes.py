"""TT shape and rank bookkeeping (paper §2, Eq. 2; Table 2 arithmetic).

A TT-compressed ``M x N`` embedding table is described by

- row factors ``(m_1, ..., m_d)`` with ``prod(m_k) >= M`` (padding rows
  beyond ``M`` is allowed — they are never indexed),
- column factors ``(n_1, ..., n_d)`` with ``prod(n_k) == N``,
- ranks ``(R_0=1, R_1, ..., R_{d-1}, R_d=1)``.

Core ``k`` (0-based) then has the paper shape
``(R_k, m_{k+1}, n_{k+1}, R_{k+1})``.

Implementation note: :class:`repro.tt.embedding_bag.TTEmbeddingBag` stores
each core with the *mode index first* — ``(m_k, R_{k-1}, n_k, R_k)`` — so
that a core slice ``core[i_k]`` is one contiguous block: Algorithm 1
multiplies against it as a view (:func:`repro.tt.kernels.segmented_matmul`)
and Algorithm 2 writes each touched slice's gradient as one contiguous
``grad[i_k] += A^T B`` (:func:`repro.tt.kernels.segmented_outer_add`).
:meth:`TTShape.core_shape` /
:meth:`TTShape.paper_core_shape` give both layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.factorization import factorize_into, suggested_tt_shapes

__all__ = ["TTShape"]


@dataclass(frozen=True)
class TTShape:
    """Immutable description of one TT-compressed embedding table."""

    num_rows: int
    dim: int
    row_factors: tuple[int, ...]
    col_factors: tuple[int, ...]
    ranks: tuple[int, ...]  # length d+1, ranks[0] == ranks[-1] == 1

    def __post_init__(self):
        d = len(self.row_factors)
        if d < 2:
            raise ValueError(f"TT needs at least 2 cores, got row_factors={self.row_factors}")
        if len(self.col_factors) != d:
            raise ValueError(
                f"row_factors ({d}) and col_factors ({len(self.col_factors)}) "
                "must have the same length"
            )
        if len(self.ranks) != d + 1:
            raise ValueError(f"ranks must have length d+1={d + 1}, got {len(self.ranks)}")
        if self.ranks[0] != 1 or self.ranks[-1] != 1:
            raise ValueError(f"boundary ranks must be 1, got {self.ranks}")
        if any(r < 1 for r in self.ranks):
            raise ValueError(f"ranks must be >= 1, got {self.ranks}")
        if any(f < 1 for f in self.row_factors + self.col_factors):
            raise ValueError("all factors must be >= 1")
        if math.prod(self.row_factors) < self.num_rows:
            raise ValueError(
                f"prod(row_factors)={math.prod(self.row_factors)} is smaller than "
                f"num_rows={self.num_rows}"
            )
        if math.prod(self.col_factors) != self.dim:
            raise ValueError(
                f"prod(col_factors)={math.prod(self.col_factors)} must equal dim={self.dim}"
            )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def suggested(cls, num_rows: int, dim: int, *, d: int = 3, rank: int = 32) -> TTShape:
        """Auto-factorize a table like the paper does (Table 2 style).

        Row factors are balanced with round-up padding; column factors split
        ``dim`` exactly; all internal ranks equal ``rank`` (clipped to the
        maximum useful rank at each boundary).
        """
        row_factors = tuple(suggested_tt_shapes(num_rows, d))
        col_factors = tuple(sorted(factorize_into(dim, d)))
        return cls.with_uniform_rank(num_rows, dim, row_factors, col_factors, rank)

    @classmethod
    def with_uniform_rank(cls, num_rows: int, dim: int, row_factors: tuple[int, ...],
                          col_factors: tuple[int, ...], rank: int) -> TTShape:
        """Build a shape whose internal ranks are ``min(rank, max useful)``.

        A rank larger than the product of mode sizes on either side of the
        boundary adds parameters without expressive power, so it is clipped
        (standard TT practice; also keeps TT-SVD exact-rank checks sane).
        """
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        d = len(row_factors)
        ranks = [1]
        left = 1
        total = math.prod(row_factors) * math.prod(col_factors)
        for k in range(d - 1):
            left *= row_factors[k] * col_factors[k]
            right = total // left
            ranks.append(min(rank, left, right))
        ranks.append(1)
        return cls(num_rows, dim, tuple(row_factors), tuple(col_factors), tuple(ranks))

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    @property
    def d(self) -> int:
        """Number of TT cores."""
        return len(self.row_factors)

    @property
    def padded_rows(self) -> int:
        """Row capacity after padding: ``prod(row_factors) >= num_rows``."""
        return math.prod(self.row_factors)

    def core_shape(self, k: int) -> tuple[int, int, int, int]:
        """Mode-first storage layout of core ``k``: ``(m_k, R_{k-1}, n_k, R_k)``."""
        return (self.row_factors[k], self.ranks[k], self.col_factors[k], self.ranks[k + 1])

    def paper_core_shape(self, k: int) -> tuple[int, int, int, int]:
        """Paper layout of core ``k``: ``(R_{k-1}, m_k, n_k, R_k)`` (Eq. 2)."""
        return (self.ranks[k], self.row_factors[k], self.col_factors[k], self.ranks[k + 1])

    def num_params(self) -> int:
        """Total TT parameter count (paper Table 2, '# of TT Parameters')."""
        return sum(math.prod(self.core_shape(k)) for k in range(self.d))

    def uncompressed_params(self) -> int:
        """Parameters of the dense table being replaced (true rows, no padding)."""
        return self.num_rows * self.dim

    def compression_ratio(self) -> float:
        """Memory reduction factor (paper Table 2, 'Memory Reduction')."""
        return self.uncompressed_params() / self.num_params()

    # ------------------------------------------------------------------ #
    # Index decoding
    # ------------------------------------------------------------------ #

    def decode_indices(self, indices: np.ndarray) -> np.ndarray:
        """Decode flat row indices into per-core indices.

        Returns an ``(d, n)`` int64 array where row ``k`` holds ``i_k`` for
        every input index: ``i = sum_k i_k * prod_{j>k} m_j`` (paper §3.1,
        ``i_1`` most significant; ``np.ravel_multi_index`` is the inverse).
        """
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        try:
            return np.array(np.unravel_index(indices, self.row_factors))
        except ValueError:
            raise IndexError(
                f"row index out of range [0, {self.padded_rows}): "
                f"min={indices.min()}, max={indices.max()}"
            ) from None

    def describe(self) -> str:
        """One-line human-readable summary (used by the bench harness)."""
        cores = " x ".join(str(self.paper_core_shape(k)) for k in range(self.d))
        return (
            f"{self.num_rows}x{self.dim} -> {cores}, params={self.num_params()}, "
            f"compression={self.compression_ratio():.0f}x"
        )
