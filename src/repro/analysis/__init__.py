"""Analyses behind the paper's tables and figures.

- :mod:`~repro.analysis.memory` — compression arithmetic (Table 2, Fig. 5,
  the §6 headline: 117x for Kaggle, 237x for this repo's Terabyte spec;
  see EXPERIMENTS.md's Terabyte note). Exact, no training needed.
- :mod:`~repro.analysis.distributions` — product-of-RV PDFs and KL
  divergences (Fig. 3, Table 1 analytics).
- :mod:`~repro.analysis.locality` — frequently-accessed-row stability
  traces (Fig. 9).
- :mod:`~repro.analysis.design_space` / :mod:`~repro.analysis.pareto` —
  accuracy-vs-memory sweeps and Pareto frontiers (Fig. 1).
"""

from repro.analysis.memory import (
    model_size_summary,
    table2_rows,
    tt_shape_for_table,
)
from repro.analysis.pareto import pareto_frontier

__all__ = [
    "tt_shape_for_table",
    "table2_rows",
    "model_size_summary",
    "pareto_frontier",
]
