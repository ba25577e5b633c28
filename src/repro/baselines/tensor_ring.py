"""Tensor-Ring embedding (Wang et al. 2018) — the tensorization alternative.

Tensor-Ring (TR) decomposition generalises TT by closing the chain into a
ring: boundary ranks equal a shared ring rank ``R0 >= 1`` instead of 1,
and a table entry is the *trace* of the matrix-product chain:

    W(i, j) = Tr( G_1(i_1, j_1) G_2(i_2, j_2) ... G_d(i_d, j_d) )

With ``R0 == 1`` TR degenerates exactly to TT. The paper's Related Work
notes TR "can preserve the weights with moderately lower compression
ratios than that of TT" — the baseline bench quantifies that trade-off on
the same tables.

Kernels mirror the TT implementation (mode-first core layout, batched
GEMM chains, left/right partial products in backward) with the ring index
carried through as an extra batch-like dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ops.embedding import CompressedEmbedding
from repro.ops.module import Parameter
from repro.tt.kernels import scatter_add_rows
from repro.utils.dtypes import default_dtype
from repro.utils.factorization import factorize_into, suggested_tt_shapes
from repro.utils.seeding import as_rng

__all__ = ["TRShape", "TREmbeddingBag"]


@dataclass(frozen=True)
class TRShape:
    """Shape/rank bookkeeping for one TR-compressed table.

    ``ranks`` has length ``d + 1`` with ``ranks[0] == ranks[-1]`` — the
    ring rank. Core ``k`` is stored mode-first: ``(m_k, R_k, n_k, R_{k+1})``.
    """

    num_rows: int
    dim: int
    row_factors: tuple[int, ...]
    col_factors: tuple[int, ...]
    ranks: tuple[int, ...]

    def __post_init__(self):
        d = len(self.row_factors)
        if d < 2:
            raise ValueError(f"TR needs at least 2 cores, got {self.row_factors}")
        if len(self.col_factors) != d:
            raise ValueError("row_factors and col_factors must have equal length")
        if len(self.ranks) != d + 1:
            raise ValueError(f"ranks must have length d+1={d + 1}, got {len(self.ranks)}")
        if self.ranks[0] != self.ranks[-1]:
            raise ValueError(
                f"ring boundary ranks must match, got {self.ranks[0]} != {self.ranks[-1]}"
            )
        if any(r < 1 for r in self.ranks):
            raise ValueError(f"ranks must be >= 1, got {self.ranks}")
        if math.prod(self.row_factors) < self.num_rows:
            raise ValueError("prod(row_factors) must cover num_rows")
        if math.prod(self.col_factors) != self.dim:
            raise ValueError("prod(col_factors) must equal dim")

    @classmethod
    def suggested(cls, num_rows: int, dim: int, *, d: int = 3, rank: int = 8) -> TRShape:
        """Balanced factorization with a uniform rank on every boundary."""
        row_factors = tuple(suggested_tt_shapes(num_rows, d))
        col_factors = tuple(sorted(factorize_into(dim, d)))
        return cls(num_rows, dim, row_factors, col_factors, tuple([rank] * (d + 1)))

    @property
    def d(self) -> int:
        return len(self.row_factors)

    @property
    def ring_rank(self) -> int:
        return self.ranks[0]

    @property
    def padded_rows(self) -> int:
        return math.prod(self.row_factors)

    def core_shape(self, k: int) -> tuple[int, int, int, int]:
        return (self.row_factors[k], self.ranks[k], self.col_factors[k],
                self.ranks[k + 1])

    def num_params(self) -> int:
        return sum(math.prod(self.core_shape(k)) for k in range(self.d))

    def compression_ratio(self) -> float:
        return (self.num_rows * self.dim) / self.num_params()

    def decode_indices(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.padded_rows):
            raise IndexError(
                f"row index out of range [0, {self.padded_rows}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        out = np.empty((self.d, indices.size), dtype=np.int64)
        rem = indices
        rest = self.padded_rows
        for k, m in enumerate(self.row_factors):
            rest //= m
            out[k] = rem // rest
            rem = rem % rest
        return out


class TREmbeddingBag(CompressedEmbedding):
    """Bag-pooled embedding lookup backed by Tensor-Ring cores."""

    kind = "tr"

    def __init__(self, num_rows: int, dim: int, *, shape: TRShape | None = None,
                 rank: int = 8, d: int = 3, mode: str = "sum",
                 rng: int | None | np.random.Generator = None,
                 name: str = "tr_emb"):
        super().__init__(num_rows, dim, mode)
        if shape is None:
            shape = TRShape.suggested(num_rows, dim, d=d, rank=rank)
        if shape.num_rows != num_rows or shape.dim != dim:
            raise ValueError(
                f"shape describes a {shape.num_rows}x{shape.dim} table, "
                f"expected {num_rows}x{dim}"
            )
        rng = as_rng(rng)
        self.shape = shape
        # Variance-matched init: each entry is a sum over R0 * prod(R_k)
        # ring paths of d-fold products; match N(0, 1/3n) like TT (§3.2).
        paths = float(np.prod(shape.ranks[:-1]))  # R0 * R1 * ... * R_{d-1}
        target = 1.0 / (3.0 * num_rows)
        entry_std = (target / paths) ** (1.0 / (2 * shape.d))
        self.cores: list[Parameter] = [
            Parameter(rng.normal(0.0, entry_std, size=shape.core_shape(k)),
                      name=f"{name}.core{k}", sparse=True)
            for k in range(shape.d)
        ]

    # ------------------------------------------------------------------ #

    def _row_chain(self, decoded: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Ring chain; returns ``(rows, lefts)``.

        ``lefts[k]`` has shape ``(B, R0, P_k, R_{k+1})`` — the TT left
        partial with the open ring index ``R0`` carried in front.
        """
        n = decoded.shape[1]
        r0 = self.shape.ring_rank
        first = self.cores[0].data[decoded[0]]  # (B, R0, n1, R1)
        res = first.reshape(n, r0, self.shape.col_factors[0], self.shape.ranks[1])
        lefts = [res]
        for k in range(1, self.shape.d):
            core = self.cores[k].data[decoded[k]]  # (B, R_k, n_k, R_{k+1})
            r_prev = self.shape.ranks[k]
            r_next = self.shape.ranks[k + 1]
            nk = self.shape.col_factors[k]
            # Broadcast the per-sample core across the ring dimension.
            res = np.matmul(res, core.reshape(n, 1, r_prev, nk * r_next))
            res = res.reshape(n, r0, -1, r_next)
            lefts.append(res)
        # Close the ring: out[b, p] = sum_a res[b, a, p, a]
        rows = np.einsum("bapa->bp", res)
        return rows, lefts

    def _forward_rows(self, indices: np.ndarray):
        decoded = self.shape.decode_indices(indices)
        if indices.size == 0:
            return np.zeros((0, self.dim), dtype=self.dtype), (decoded, [])
        rows, lefts = self._row_chain(decoded)
        return rows, (decoded, lefts)

    def _rows(self, indices: np.ndarray) -> np.ndarray:
        return self._forward_rows(indices)[0]

    def materialize(self) -> np.ndarray:
        """Dense table from the ring cores (analysis/tests only)."""
        return self._rows(np.arange(self.num_rows, dtype=np.int64))

    def _backward_rows(self, indices, grad_rows, saved) -> None:
        decoded, lefts = saved
        n = decoded.shape[1]
        if n == 0:
            return
        d = self.shape.d
        r0 = self.shape.ring_rank
        eye = np.broadcast_to(np.eye(r0, dtype=self.dtype)[None, :, None, :],
                              (n, r0, 1, r0))
        # right[k] has shape (B, R_{k+1}, Q_k, R0): product of cores k+1..d-1
        # with the ring closed on the right.
        right = eye  # k = d-1: identity, Q = 1
        q = 1
        for k in range(d - 1, -1, -1):
            r_prev = self.shape.ranks[k]
            r_next = self.shape.ranks[k + 1]
            nk = self.shape.col_factors[k]
            left = lefts[k - 1] if k > 0 else eye  # (B, R0, P, R_k)
            p = left.shape[2]
            d_out = grad_rows.reshape(n, p, nk, q)
            # U[b,p,a,s,z] = sum_q dO[b,p,a,q] * right[b,s,q,z]
            u = np.einsum("bpaq,bsqz->bpasz", d_out, right)
            # g[b,r,a,s] = sum_{z,p} left[b,z,p,r] * U[b,p,a,s,z]
            g = np.einsum("bzpr,bpasz->bras", left, u)
            scatter_add_rows(self.cores[k].grad, decoded[k], g)
            self.cores[k].record_touched(decoded[k])
            if k > 0:
                core = self.cores[k].data[decoded[k]]  # (B, R_k, n_k, R_{k+1})
                flat = np.matmul(
                    core.reshape(n, r_prev * nk, r_next),
                    right.reshape(n, r_next, q * r0),
                )
                right = flat.reshape(n, r_prev, nk * q, r0)
                q *= nk

    # ------------------------------------------------------------------ #

    @staticmethod
    def _spec_shape(spec) -> TRShape:
        return TRShape.suggested(spec.num_rows, spec.dim,
                                 d=int(spec.get("d", 3)),
                                 rank=int(spec.get("rank", 4)))

    @classmethod
    def from_spec(cls, spec) -> "TREmbeddingBag":
        """Knobs: ``rank``, ``d``."""
        cls._check_knobs(spec, {"rank", "d"})
        return cls(spec.num_rows, spec.dim, shape=cls._spec_shape(spec),
                   mode=spec.mode, rng=as_rng(spec.seed),
                   name=spec.name or "tr_emb")

    @classmethod
    def predict_memory_bytes(cls, spec) -> int:
        return cls._spec_shape(spec).num_params() * default_dtype().itemsize
