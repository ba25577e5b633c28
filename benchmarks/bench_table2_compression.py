"""Paper Table 2 (exact arithmetic).

Regenerates, from the real Criteo cardinalities, the TT-core shapes,
parameter counts and per-table memory reductions of Kaggle's 7 largest
tables at ranks 16/32/64. They match the paper bit-exactly (verified in
tests/test_analysis.py). The rows are :func:`repro.analysis.memory.table2_table`,
the same rows ``repro report`` writes to REPORT.md.
"""

from conftest import banner

from repro.analysis.memory import table2_table
from repro.bench import format_table
from repro.data import KAGGLE


def test_table2(benchmark):
    headers, rows = benchmark(table2_table, KAGGLE)
    banner("Table 2: TT decomposition of Kaggle's 7 largest embedding tables")
    print(format_table(headers, rows))
    assert len(rows) == 21
    # Spot-check the first paper row: 10131227 @ R=16 -> 135040 params, 1200x.
    top16 = next(r for r in rows if r[0] == 10131227 and r[2] == 16)
    assert top16[3] == 135040 and top16[4] == "1200x"
