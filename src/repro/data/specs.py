"""Exact dataset specifications for Criteo Kaggle and Terabyte.

Cardinalities are those produced by the MLPerf-DLRM reference preprocessing
(no ``max-ind-range`` hashing). The seven largest Kaggle tables match paper
Table 2 exactly: 10131227, 8351593, 7046547, 5461306, 2202608, 286181,
142572. Memory-accounting experiments (Table 2, Fig. 5 and the §6
headline) run on these exact specs; training experiments run on
:meth:`DatasetSpec.scaled` copies sized for CPU. The headline on these
specs is 117x for Kaggle, as in the paper, and 237x for Terabyte,
embedding only, against the paper's 112x: the Terabyte cardinalities here
differ from the paper's (EXPERIMENTS.md's Terabyte note).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["DatasetSpec", "KAGGLE", "TERABYTE", "PAPER_KAGGLE_TT_SHAPES"]


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a Criteo-style CTR dataset."""

    name: str
    table_sizes: tuple[int, ...]
    num_dense: int = 13
    emb_dim: int = 16

    def __post_init__(self):
        if any(s < 1 for s in self.table_sizes):
            raise ValueError("table sizes must be positive")

    @property
    def num_tables(self) -> int:
        return len(self.table_sizes)

    def total_rows(self) -> int:
        return sum(self.table_sizes)

    def embedding_bytes(self, dtype_bytes: int = 4) -> int:
        """Total dense embedding storage (the paper's fp32 accounting)."""
        return self.total_rows() * self.emb_dim * dtype_bytes

    def largest(self, n: int) -> list[int]:
        """Indices of the ``n`` largest tables, ascending index order."""
        order = sorted(range(self.num_tables), key=lambda i: (-self.table_sizes[i], i))
        return sorted(order[:n])

    def scaled(self, factor: float) -> DatasetSpec:
        """Proportionally shrink every table (CPU-trainable replica).

        Keeps the *relative* size distribution so "compress the N largest
        tables" selects the same tables as in the full spec; no table
        drops below 4 rows.
        """
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(f"factor must be finite and > 0, got {factor}")
        sizes = tuple(max(4, int(round(s * factor))) for s in self.table_sizes)
        return DatasetSpec(
            name=self.name + "-scaled",
            table_sizes=sizes,
            num_dense=self.num_dense,
            emb_dim=self.emb_dim,
        )


# Criteo Kaggle Display Advertising Challenge: 7 days, ~45.8M samples.
KAGGLE = DatasetSpec(
    name="kaggle",
    table_sizes=(
        1460, 583, 10131227, 2202608, 305, 24, 12517, 633, 3, 93145,
        5683, 8351593, 3194, 27, 14992, 5461306, 10, 5652, 2173, 4,
        7046547, 18, 15, 286181, 105, 142572,
    ),
)

# Criteo Terabyte Click Logs: 24 days, ~4.37B samples (paper downsamples
# negatives by 0.875 per the MLPerf benchmark rules).
TERABYTE = DatasetSpec(
    name="terabyte",
    table_sizes=(
        39884406, 39043, 17289, 7420, 20263, 3, 7120, 1543, 63, 38532951,
        2953546, 403346, 10, 2208, 11938, 155, 4, 976, 14, 39979771,
        25641295, 39664984, 585935, 12972, 108, 36,
    ),
)

# Paper Table 2: the authors' TT factorizations of Kaggle's 7 largest
# tables (row factors and column factors for emb dim 16). Keyed by row
# count. Using these reproduces Table 2's parameter counts exactly.
PAPER_KAGGLE_TT_SHAPES: dict[int, tuple[tuple[int, int, int], tuple[int, int, int]]] = {
    10131227: ((200, 220, 250), (2, 2, 4)),
    8351593: ((200, 200, 209), (2, 2, 4)),
    7046547: ((200, 200, 200), (2, 2, 4)),
    5461306: ((166, 175, 188), (2, 2, 4)),
    2202608: ((125, 130, 136), (2, 2, 4)),
    286181: ((53, 72, 75), (2, 2, 4)),
    142572: ((50, 52, 55), (2, 2, 4)),
}
