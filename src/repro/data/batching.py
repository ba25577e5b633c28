"""Mini-batch containers and CSR helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Batch", "make_offsets"]


def make_offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets array for per-bag index counts: ``[0, c0, c0+c1, ...]``."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1:
        raise ValueError(f"counts must be 1-D, got shape {counts.shape}")
    if counts.size and counts.min() < 0:
        raise ValueError("counts must be non-negative")
    offsets = np.empty(counts.size + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    return offsets


@dataclass
class Batch:
    """One training mini-batch in DLRM layout.

    Attributes
    ----------
    dense:
        ``(B, num_dense)`` continuous features.
    sparse:
        Per-table ``(indices, offsets)`` CSR bag descriptions, each with
        ``B`` bags (paper §4.1's input format).
    labels:
        ``(B,)`` binary click labels.
    per_sample_weights:
        Optional per-table weights aligned with each table's ``indices``.
    """

    dense: np.ndarray
    sparse: list[tuple[np.ndarray, np.ndarray]]
    labels: np.ndarray
    per_sample_weights: list[np.ndarray] | None = None

    def __post_init__(self):
        b = self.dense.shape[0]
        if self.labels.shape[0] != b:
            raise ValueError(
                f"labels ({self.labels.shape[0]}) and dense ({b}) batch sizes differ"
            )
        for t, (indices, offsets) in enumerate(self.sparse):
            if offsets.shape[0] != b + 1:
                raise ValueError(
                    f"table {t}: offsets has {offsets.shape[0] - 1} bags, expected {b}"
                )
            if offsets[-1] != indices.shape[0]:
                raise ValueError(f"table {t}: offsets[-1] != len(indices)")

    @property
    def size(self) -> int:
        return int(self.dense.shape[0])
