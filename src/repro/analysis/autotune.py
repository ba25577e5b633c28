"""Automatic TT-rank selection under a memory budget (the Fig. 1 frontier,
solved instead of swept).

Given a set of embedding tables and a total parameter budget, choose which
tables to compress and at what ranks. The heuristic mirrors how the
paper's authors navigate the design space by hand:

1. Compression priority is by table size — the largest tables buy the most
   memory per accuracy point (they are also the most over-parameterised).
2. Within a table, rank is the knob: higher rank = better approximation,
   more parameters. We maximise the *minimum* rank across compressed
   tables subject to the budget, since accuracy is gated by the
   worst-approximated table (paper §6.2's rank-sweep behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.memory import tt_shape_for_table
from repro.tt.shapes import TTShape

__all__ = ["TablePlan", "CompressionPlan", "plan_compression"]


@dataclass(frozen=True)
class TablePlan:
    """Decision for one table."""

    table_index: int
    num_rows: int
    compress: bool
    rank: int | None
    params: int


@dataclass(frozen=True)
class CompressionPlan:
    """Full-model compression decision."""

    tables: tuple[TablePlan, ...]
    emb_dim: int

    def total_params(self) -> int:
        return sum(t.params for t in self.tables)

    def baseline_params(self) -> int:
        return sum(t.num_rows * self.emb_dim for t in self.tables)

    def compression_ratio(self) -> float:
        return self.baseline_params() / self.total_params()

    def compressed_indices(self) -> list[int]:
        return [t.table_index for t in self.tables if t.compress]

    def rank_for(self, table_index: int) -> int | None:
        for t in self.tables:
            if t.table_index == table_index:
                return t.rank
        raise KeyError(f"no table {table_index} in plan")


def _tt_params(num_rows: int, emb_dim: int, rank: int) -> int:
    return tt_shape_for_table(num_rows, emb_dim, rank).num_params()


def plan_compression(table_sizes: tuple[int, ...], emb_dim: int, *,
                     budget_params: int, min_rows: int = 10_000,
                     candidate_ranks: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128)
                     ) -> CompressionPlan:
    """Choose tables and ranks to fit ``budget_params`` total parameters.

    Strategy: tables below ``min_rows`` stay dense (compressing them costs
    parameters). Among compressible tables, compress from the largest down
    until the budget is satisfiable, then binary-search the largest
    *uniform* candidate rank that fits. Raises if even rank
    ``candidate_ranks[0]`` on every compressible table cannot meet the
    budget.
    """
    if budget_params < 1:
        raise ValueError(f"budget_params must be >= 1, got {budget_params}")
    if not candidate_ranks or list(candidate_ranks) != sorted(candidate_ranks):
        raise ValueError("candidate_ranks must be a non-empty ascending tuple")

    order = sorted(range(len(table_sizes)), key=lambda i: -table_sizes[i])
    compressible = [i for i in order if table_sizes[i] >= min_rows]
    dense_always = [i for i in range(len(table_sizes)) if i not in compressible]
    dense_floor = sum(table_sizes[i] * emb_dim for i in dense_always)

    def plan_cost(compressed: set[int], rank: int) -> int:
        total = dense_floor
        for i in compressible:
            if i in compressed:
                total += _tt_params(table_sizes[i], emb_dim, rank)
            else:
                total += table_sizes[i] * emb_dim
        return total

    # Grow the compressed set largest-first until the budget is reachable
    # at the *highest* rank possible; prefer fewer compressed tables.
    chosen: set[int] = set()
    best: tuple[set[int], int] | None = None
    for i in compressible:
        chosen = chosen | {i}
        # largest candidate rank that fits with this set
        fitting = [r for r in candidate_ranks if plan_cost(chosen, r) <= budget_params]
        if fitting:
            best = (set(chosen), fitting[-1])
            break
    else:
        if not compressible or best is None:
            raise ValueError(
                f"budget of {budget_params} parameters is unreachable: even "
                f"compressing every table >= {min_rows} rows at rank "
                f"{candidate_ranks[0]} needs "
                f"{plan_cost(set(compressible), candidate_ranks[0])} parameters"
            )

    compressed_set, rank = best
    # With the set fixed, push the rank as high as the budget allows while
    # also trying to *extend* the set if a larger rank becomes affordable
    # by compressing more tables (more tables -> more savings -> more rank).
    for extra in compressible:
        if extra in compressed_set:
            continue
        trial = compressed_set | {extra}
        fitting = [r for r in candidate_ranks if plan_cost(trial, r) <= budget_params]
        if fitting and fitting[-1] > rank:
            compressed_set, rank = trial, fitting[-1]

    tables = []
    for i, size in enumerate(table_sizes):
        if i in compressed_set:
            tables.append(TablePlan(i, size, True, rank,
                                    _tt_params(size, emb_dim, rank)))
        else:
            tables.append(TablePlan(i, size, False, None, size * emb_dim))
    return CompressionPlan(tables=tuple(tables), emb_dim=emb_dim)
