"""Model-size accounting: Table 2, Fig. 5 and the headline compression.

All quantities here are exact arithmetic over the real Criteo
cardinalities — no training involved:

- Table 2's TT parameter counts and per-table memory reductions, which
  match the paper exactly;
- Fig. 5's model sizes for TT-Emb of 3/5/7 at rank 32;
- §6's overall reductions: 117x for Kaggle, as in the paper, and 237x for
  Terabyte, embedding only, against the paper's 112x (this spec's
  Terabyte cardinalities differ from the paper's; see EXPERIMENTS.md's
  Terabyte note).

:func:`table2_table` and :func:`model_size_table` are the printed rows
of Table 2 and of Fig. 5 / the §6 headline; ``repro report``, the paper
benches and ``examples/compression_explorer.py`` all print them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.specs import PAPER_KAGGLE_TT_SHAPES, DatasetSpec
from repro.tt.shapes import TTShape

__all__ = [
    "tt_shape_for_table",
    "Table2Row",
    "table2_rows",
    "table2_table",
    "ModelSizeSummary",
    "model_size_summary",
    "model_size_table",
]


def tt_shape_for_table(num_rows: int, emb_dim: int, rank: int, *,
                       d: int = 3, prefer_paper: bool = True) -> TTShape:
    """TT shape for a table, using the paper's published factorizations
    (Table 2) when available, else the automatic balanced factorization."""
    if prefer_paper and emb_dim == 16:
        entry = PAPER_KAGGLE_TT_SHAPES.get(num_rows)
        if entry is not None:
            row_factors, col_factors = entry
            return TTShape.with_uniform_rank(num_rows, emb_dim, row_factors,
                                             col_factors, rank)
    return TTShape.suggested(num_rows, emb_dim, d=d, rank=rank)


@dataclass(frozen=True)
class Table2Row:
    """One line of paper Table 2 for one (table, rank) pair."""

    num_rows: int
    emb_dim: int
    core_shapes: tuple[tuple[int, int, int, int], ...]
    rank: int
    tt_params: int
    memory_reduction: float


def table2_rows(spec: DatasetSpec, *, num_tables: int = 7,
                ranks: tuple[int, ...] = (16, 32, 64)) -> list[Table2Row]:
    """Regenerate paper Table 2: TT decompositions of the largest tables."""
    rows: list[Table2Row] = []
    for idx in spec.largest(num_tables):
        size = spec.table_sizes[idx]
        for rank in ranks:
            shape = tt_shape_for_table(size, spec.emb_dim, rank)
            rows.append(Table2Row(
                num_rows=size,
                emb_dim=spec.emb_dim,
                core_shapes=tuple(shape.paper_core_shape(k) for k in range(shape.d)),
                rank=rank,
                tt_params=shape.num_params(),
                memory_reduction=shape.compression_ratio(),
            ))
    return rows


def table2_table(spec: DatasetSpec) -> tuple[list[str], list[list]]:
    """Table 2 as printed: ``(headers, rows)``, one row per (table, rank)."""
    rows = [
        [r.num_rows, " x ".join(map(str, r.core_shapes)), r.rank, r.tt_params,
         f"{r.memory_reduction:.0f}x"]
        for r in table2_rows(spec)
    ]
    return ["# rows", "TT cores", "rank", "params", "reduction"], rows


@dataclass(frozen=True)
class ModelSizeSummary:
    """Embedding-layer memory before/after compressing the N largest tables."""

    spec_name: str
    num_tt_tables: int
    rank: int
    baseline_bytes: int
    compressed_bytes: int

    @property
    def reduction(self) -> float:
        return self.baseline_bytes / self.compressed_bytes

    @property
    def baseline_gb(self) -> float:
        return self.baseline_bytes / 1024 ** 3

    @property
    def compressed_mb(self) -> float:
        return self.compressed_bytes / 1024 ** 2


def model_size_summary(spec: DatasetSpec, *, num_tt_tables: int, rank: int,
                       dtype_bytes: int = 4, mlp_params: int = 0) -> ModelSizeSummary:
    """Total model size with the ``num_tt_tables`` largest tables in TT form.

    ``mlp_params`` optionally folds the (tiny) MLP towers into both sides;
    the paper's Fig. 5 bars are embedding-dominated so the default omits
    them.
    """
    compressed = set(spec.largest(num_tt_tables))
    baseline = spec.total_rows() * spec.emb_dim + mlp_params
    after = mlp_params
    for i, size in enumerate(spec.table_sizes):
        if i in compressed:
            after += tt_shape_for_table(size, spec.emb_dim, rank).num_params()
        else:
            after += size * spec.emb_dim
    return ModelSizeSummary(
        spec_name=spec.name,
        num_tt_tables=num_tt_tables,
        rank=rank,
        baseline_bytes=baseline * dtype_bytes,
        compressed_bytes=after * dtype_bytes,
    )


def model_size_table(specs: tuple[DatasetSpec, ...]
                     ) -> tuple[list[str], list[list]]:
    """Fig. 5 and the §6 headline as printed: ``(headers, rows)``, one row
    per (dataset, 3/5/7 TT tables at rank 32)."""
    rows = []
    for spec in specs:
        for n in (3, 5, 7):
            s = model_size_summary(spec, num_tt_tables=n, rank=32)
            rows.append([spec.name, n, f"{s.baseline_gb:.2f} GB",
                         f"{s.compressed_mb:.1f} MB", f"{s.reduction:.1f}x"])
    return ["dataset", "TT tables", "baseline", "compressed", "reduction"], rows
