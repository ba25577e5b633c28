"""Post-training row-wise uniform quantization (Guan et al. 2019).

Compresses a *trained* dense table to ``bits``-wide integer codes with a
per-row scale and zero-point — the 4-bit scheme the paper's Related Work
cites as the quantization approach for recommendation inference. Like the
original, this operator is inference-only: ``backward`` raises, because
training through a quantizer needs STE machinery the cited work does not
use for embeddings.
"""

from __future__ import annotations

import numpy as np

from repro.ops.embedding import CompressedEmbedding
from repro.utils.dtypes import result_dtype

__all__ = ["quantize_rows", "dequantize_rows", "QuantizedEmbeddingBag"]


def quantize_rows(table: np.ndarray, bits: int = 4
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise affine quantization: ``codes, scales, zero_points``.

    Each row is mapped to ``round((x - min) / scale)`` with
    ``scale = (max - min) / (2^bits - 1)``; constant rows get scale 0 and
    decode exactly.
    """
    if not (1 <= bits <= 16):
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    table = np.asarray(table)
    # Preserve the table's floating dtype; fall back to the policy dtype
    # for integer input (repro.utils.dtypes).
    table = np.asarray(table, dtype=result_dtype(table))
    if table.ndim != 2:
        raise ValueError(f"table must be 2-D, got shape {table.shape}")
    levels = (1 << bits) - 1
    mins = table.min(axis=1)
    maxs = table.max(axis=1)
    scales = (maxs - mins) / levels
    safe = np.where(scales > 0, scales, 1.0)
    codes = np.rint((table - mins[:, None]) / safe[:, None])
    codes = np.clip(codes, 0, levels)
    dtype = np.uint8 if bits <= 8 else np.uint16
    return codes.astype(dtype), scales, mins


def dequantize_rows(codes: np.ndarray, scales: np.ndarray,
                    zero_points: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize_rows` (up to quantization error)."""
    dt = result_dtype(scales, zero_points)
    return codes.astype(dt) * scales[:, None] + zero_points[:, None]


class QuantizedEmbeddingBag(CompressedEmbedding):
    """Inference-only EmbeddingBag over a quantized table.

    Construct from a trained dense table (``from_dense``) — matching the
    post-training workflow of the cited scheme.
    """

    supports_gradient = False

    def __init__(self, codes: np.ndarray, scales: np.ndarray,
                 zero_points: np.ndarray, bits: int, *, mode: str = "sum"):
        if codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got {codes.shape}")
        if scales.shape != (codes.shape[0],) or zero_points.shape != (codes.shape[0],):
            raise ValueError("scales/zero_points must be per-row vectors")
        super().__init__(*codes.shape, mode)
        dt = result_dtype(np.asarray(scales), np.asarray(zero_points))
        self.codes = codes
        self.scales = np.asarray(scales, dtype=dt)
        self.zero_points = np.asarray(zero_points, dtype=dt)
        self.bits = bits

    @classmethod
    def from_dense(cls, table: np.ndarray, *, bits: int = 4,
                   mode: str = "sum") -> "QuantizedEmbeddingBag":
        codes, scales, zero_points = quantize_rows(table, bits)
        return cls(codes, scales, zero_points, bits, mode=mode)

    @property
    def dtype(self) -> np.dtype:
        return self.scales.dtype

    def _rows(self, indices: np.ndarray) -> np.ndarray:
        return dequantize_rows(
            self.codes[indices], self.scales[indices], self.zero_points[indices]
        )

    def _extra_arrays(self) -> list[np.ndarray]:
        return list(self.extra_state().values())

    def extra_state(self) -> dict:
        return {"codes": self.codes, "scales": self.scales,
                "zero_points": self.zero_points}

    def load_extra_state(self, state: dict) -> None:
        for key in ("codes", "scales", "zero_points"):
            setattr(self, key, np.asarray(state[key],
                                          dtype=getattr(self, key).dtype))

    def num_parameters(self) -> int:
        """Effective fp32-equivalent parameter count (for fair comparison).

        Codes cost ``bits/32`` of a float each; scales and zero-points cost
        one float per row apiece.
        """
        code_floats = self.codes.size * self.bits / 32.0
        return int(np.ceil(code_floats + 2 * self.num_rows))

    def compression_ratio(self) -> float:
        """Against fp32-equivalent parameters, the cited scheme's
        accounting (``bits`` per code, not the byte each one occupies)."""
        return (self.num_rows * self.dim) / self.num_parameters()

    def reconstruction_error(self, table: np.ndarray) -> float:
        """Max |dequantized - original| against the source dense table."""
        table = np.asarray(table, dtype=self.scales.dtype)
        approx = dequantize_rows(self.codes, self.scales, self.zero_points)
        return float(np.abs(approx - table).max())
