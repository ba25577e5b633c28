"""Adaptive low-precision training (ALPT, Li et al. 2023 style).

The table is stored as ``bits``-wide signed integer codes with one
*learned* scale per row: ``W[i] = (codes[i] / qmax) * scales[i]``, i.e.
the scale is the row's full range and codes are a fraction of it — the
normalization keeps the scale's gradient (``sum_j g_j c_j / qmax``, with
``|c/qmax| <= 1``) at the same magnitude as an ordinary weight-row
gradient, so one global learning rate trains both. Unlike
post-training quantization the scales receive real gradients (they are a
Parameter, updated by whatever optimizer drives training), and the codes
themselves are refreshed in-place by an internal stochastically-rounded
SGD step on the touched rows — so the quantization grid adapts to the
weight distribution *during* training instead of being fit once at the
end.

Memory is one integer per weight plus one float per row; at 8 bits and
float64 policy that is an ~7.5x ratio, independent of table size.
"""

from __future__ import annotations

import json

import numpy as np

from repro.ops.embedding import CompressedEmbedding
from repro.ops.module import Parameter, sum_rows
from repro.utils.dtypes import result_dtype
from repro.utils.seeding import as_rng

__all__ = ["ALPTEmbeddingBag"]


class ALPTEmbeddingBag(CompressedEmbedding):
    """Integer-code table with learned per-row scales.

    Knobs: ``bits`` (2..16, default 8) and ``weight_lr`` — the step size
    of the internal stochastic-rounding update that moves the codes
    (0 freezes codes, training only the scales). ``seed`` seeds the init
    and, as ``seed + 1``, the stochastic-rounding stream.
    """

    def __init__(self, num_rows: int, dim: int, *, bits: int = 8,
                 weight_lr: float = 0.05, mode: str = "sum", seed: int = 0,
                 name: str = "alpt_emb"):
        super().__init__(num_rows, dim, mode)
        self.bits = int(bits)
        if not (2 <= self.bits <= 16):
            raise ValueError(f"bits must be in [2, 16], got {self.bits}")
        self.weight_lr = float(weight_lr)
        self.qmax = (1 << (self.bits - 1)) - 1
        rng = as_rng(seed)
        # Start from the DLRM dense default Uniform(±1/sqrt(M)), then
        # snap onto the per-row grid.
        bound = 1.0 / np.sqrt(self.num_rows)
        dense = rng.uniform(-bound, bound, size=(self.num_rows, self.dim))
        row_max = np.abs(dense).max(axis=1, keepdims=True)
        scales = np.where(row_max > 0, row_max, bound)
        code_dtype = np.int8 if self.bits <= 8 else np.int16
        self.codes = np.clip(np.rint(dense / scales * self.qmax),
                             -self.qmax, self.qmax).astype(code_dtype)
        self.scales = Parameter(scales, name=f"{name}.scales", sparse=True)
        # Deterministic stream for the stochastic rounding of code updates,
        # separate from the init stream so replays line up.
        self._round_rng = as_rng(seed + 1)

    # ------------------------------------------------------------------ #

    def _rows(self, indices: np.ndarray) -> np.ndarray:
        dt = result_dtype(self.scales.data)
        frac = self.codes[indices].astype(dt) * (1.0 / self.qmax)
        return frac * self.scales.data[indices]

    def _backward_rows(self, indices, grad_rows, saved) -> None:
        # (n, dim) code fractions in [-1, 1]
        frac_rows = self.codes[indices].astype(grad_rows.dtype) * (1.0 / self.qmax)
        # dL/dscale_i = sum_j dL/dW_ij * c_ij/qmax  (W = c/qmax * scale).
        grad_scale = (grad_rows * frac_rows).sum(axis=1, keepdims=True)
        uniq, inverse = np.unique(indices, return_inverse=True)
        self.scales.accumulate(uniq, sum_rows(inverse, grad_scale, uniq.size))
        if self.weight_lr > 0.0:
            self._update_codes(uniq, sum_rows(inverse, grad_rows, uniq.size))

    def _update_codes(self, uniq: np.ndarray, grad_w: np.ndarray) -> None:
        """Stochastically-rounded SGD step on the touched code rows
        (``grad_w`` is their coalesced weight gradient)."""
        scales = self.scales.data[uniq]  # (u, 1)
        # Step in weight space, then express the result on the row grid
        # (one grid step = scale/qmax in weight units).
        safe = np.where(np.abs(scales) > 1e-12, scales, 1e-12)
        target = (self.codes[uniq].astype(grad_w.dtype)
                  - self.weight_lr * grad_w * self.qmax / safe)
        lo = np.floor(target)
        frac = target - lo
        rounded = lo + (self._round_rng.random(size=target.shape) < frac)
        self.codes[uniq] = np.clip(rounded, -self.qmax, self.qmax
                                   ).astype(self.codes.dtype)

    # ------------------------------------------------------------------ #

    def _extra_arrays(self) -> list[np.ndarray]:
        return [self.codes]

    def extra_state(self) -> dict:
        """The codes and the stochastic-rounding stream: a resumed run must
        round exactly as the uninterrupted one would have."""
        return {"codes": self.codes,
                "round_rng": json.dumps(self._round_rng.bit_generator.state)}

    def load_extra_state(self, state: dict) -> None:
        self.codes = np.asarray(state["codes"], dtype=self.codes.dtype
                                ).reshape(self.num_rows, self.dim)
        self._round_rng.bit_generator.state = json.loads(str(state["round_rng"]))

    def materialize(self) -> np.ndarray:
        """Dense ``num_rows x dim`` table (analysis only)."""
        dt = result_dtype(self.scales.data)
        return self.codes.astype(dt) * (1.0 / self.qmax) * self.scales.data
