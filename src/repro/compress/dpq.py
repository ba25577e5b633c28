"""Differentiable product quantization (DPQ, Chen et al. 2020 style).

Each ``dim``-wide row is split into ``num_subspaces`` contiguous chunks;
every chunk stores only an integer code into a per-subspace codebook of
``codebook_size`` centroids. Memory is ``S*K*(dim/S)`` floats of codebook
plus one small integer per (row, subspace) — for large tables the code
matrix dominates and the ratio approaches ``dim * itemsize / S`` bytes
saved per row.

Training uses the straight-through estimator: the forward pass reads the
(discrete) codebook rows, and the backward pass routes the pooled
gradient straight into the selected codebook entries, skipping the
non-differentiable argmax that picked them. Codes themselves move only
via :meth:`assign_codes` (a Lloyd refresh against a dense target), which
mirrors how the cited scheme re-assigns after codebook drift.
"""

from __future__ import annotations

import numpy as np

from repro.ops.embedding import CompressedEmbedding
from repro.ops.module import Parameter, coalesce_rows
from repro.utils.seeding import as_rng

__all__ = ["DPQEmbeddingBag"]


def _code_dtype(codebook_size: int) -> np.dtype:
    return np.dtype(np.uint8 if codebook_size <= 256 else np.uint16)


class DPQEmbeddingBag(CompressedEmbedding):
    """Product-quantization embedding with straight-through gradients.

    Knobs: ``num_subspaces`` (must divide ``dim``), ``codebook_size``.
    """

    def __init__(self, num_rows: int, dim: int, *, num_subspaces: int = 4,
                 codebook_size: int = 256, mode: str = "sum",
                 rng: int | None | np.random.Generator = None,
                 name: str = "dpq_emb"):
        super().__init__(num_rows, dim, mode)
        self.num_subspaces = int(num_subspaces)
        self.codebook_size = int(codebook_size)
        if self.num_subspaces < 1 or self.dim % self.num_subspaces != 0:
            raise ValueError(
                f"num_subspaces ({self.num_subspaces}) must divide dim ({self.dim})"
            )
        if not (2 <= self.codebook_size <= 65536):
            raise ValueError(
                f"codebook_size must be in [2, 65536], got {self.codebook_size}"
            )
        self.sub_dim = self.dim // self.num_subspaces
        rng = as_rng(rng)
        # One flat codebook of S*K centroids; subspace s owns the slice
        # [s*K, (s+1)*K), so a (row, s) pair addresses entry
        # codes[row, s] + s*K. Variance matches the DLRM dense default
        # Uniform(±1/sqrt(M)): Var = 1/(3M).
        entry_std = (1.0 / (3.0 * self.num_rows)) ** 0.5
        self.codebooks = Parameter(
            rng.normal(0.0, entry_std,
                       size=(self.num_subspaces * self.codebook_size,
                             self.sub_dim)),
            name=f"{name}.codebooks", sparse=True,
        )
        self.codes = rng.integers(
            0, self.codebook_size, size=(self.num_rows, self.num_subspaces),
            dtype=_code_dtype(self.codebook_size),
        )
        # Per-subspace base offsets into the flat codebook.
        self._base = (np.arange(self.num_subspaces, dtype=np.int64)
                      * self.codebook_size)

    # ------------------------------------------------------------------ #

    def _global_codes(self, indices: np.ndarray) -> np.ndarray:
        """Flat codebook row ids for each (index, subspace): (n, S) int64."""
        return self.codes[indices].astype(np.int64) + self._base[None, :]

    def _rows(self, indices: np.ndarray) -> np.ndarray:
        flat = self._global_codes(indices).reshape(-1)  # (n*S,)
        rows = self.codebooks.data[flat]                # (n*S, sub_dim)
        return rows.reshape(indices.shape[0], self.dim)

    def _backward_rows(self, indices, grad_rows, saved) -> None:
        # Straight-through: the pooled gradient lands on the codebook
        # entries the forward actually read.
        flat = self._global_codes(indices).reshape(-1)  # (n*S,)
        vals = grad_rows.reshape(-1, self.sub_dim)      # (n*S, sub_dim)
        self.codebooks.accumulate(*coalesce_rows(flat, vals))

    # ------------------------------------------------------------------ #
    # Code (re-)assignment
    # ------------------------------------------------------------------ #

    def assign_codes(self, table: np.ndarray, *, iters: int = 0,
                     rng: int | None | np.random.Generator = None) -> float:
        """Re-assign codes (and optionally refresh codebooks) to fit ``table``.

        With ``iters == 0`` only the nearest-centroid assignment runs;
        ``iters > 0`` adds Lloyd refinement steps per subspace. Returns the
        mean squared reconstruction error after assignment.
        """
        table = np.asarray(table, dtype=self.dtype)
        if table.shape != (self.num_rows, self.dim):
            raise ValueError(
                f"table shape {table.shape} != ({self.num_rows}, {self.dim})"
            )
        rng = as_rng(rng)
        K = self.codebook_size
        sse = 0.0
        for s in range(self.num_subspaces):
            chunk = table[:, s * self.sub_dim:(s + 1) * self.sub_dim]
            book = self.codebooks.data[s * K:(s + 1) * K]
            for _ in range(iters):
                codes = self._nearest(chunk, book)
                for k in range(K):
                    members = chunk[codes == k]
                    if members.shape[0]:
                        book[k] = members.mean(axis=0)
                    else:  # dead centroid: respawn on a random row
                        book[k] = chunk[rng.integers(0, chunk.shape[0])]
            codes = self._nearest(chunk, book)
            self.codes[:, s] = codes  # same-kind downcast on assignment
            sse += float(((book[codes] - chunk) ** 2).sum())
        return sse / table.size

    @staticmethod
    def _nearest(chunk: np.ndarray, book: np.ndarray) -> np.ndarray:
        # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; drop the x term (argmin).
        scores = chunk @ book.T - 0.5 * (book * book).sum(axis=1)[None, :]
        return scores.argmax(axis=1)

    @classmethod
    def from_dense(cls, table: np.ndarray, *, num_subspaces: int = 4,
                   codebook_size: int = 256, iters: int = 5,
                   mode: str = "sum", seed: int = 0,
                   name: str = "dpq_emb") -> "DPQEmbeddingBag":
        """Fit codes + codebooks to a trained dense table (PQ workflow)."""
        table = np.asarray(table)
        emb = cls(*table.shape, num_subspaces=num_subspaces,
                  codebook_size=codebook_size, mode=mode, rng=seed, name=name)
        emb.assign_codes(table, iters=iters, rng=seed)
        return emb

    # ------------------------------------------------------------------ #

    def _extra_arrays(self) -> list[np.ndarray]:
        return [self.codes]

    def extra_state(self) -> dict:
        return {"codes": self.codes}

    def load_extra_state(self, state: dict) -> None:
        self.codes = np.asarray(state["codes"], dtype=self.codes.dtype
                                ).reshape(self.num_rows, self.num_subspaces)
