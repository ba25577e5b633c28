"""Fig. 5 and the §6 headline: model size vs number of compressed
embedding tables (rank 32).

The paper's bars: baseline vs TT-Rec total embedding size for the 3, 5 and
7 largest tables, for Kaggle and Terabyte; its headline is the 7-table
Kaggle reduction, 117x. Exact arithmetic over real cardinalities. The rows
are :func:`repro.analysis.memory.model_size_table`, the same rows
``repro report`` writes to REPORT.md.
"""

from conftest import banner

from repro.analysis.memory import model_size_table
from repro.bench import format_table
from repro.data import KAGGLE, TERABYTE


def test_fig5_model_size(benchmark):
    headers, rows = benchmark(model_size_table, (KAGGLE, TERABYTE))
    banner("Fig. 5: model size by number of TT-compressed tables (R=32)")
    print(format_table(headers, rows))
    print("\npaper: Kaggle 2.16 GB -> ~18 MB; 4x/48x/117x for 3/5/7 tables; "
          "Terabyte 2.6x/21.8x/95.5x (trend: more tables, smaller model)")
    reduction = {(r[0], r[1]): float(r[4].rstrip("x")) for r in rows}
    for name in ("kaggle", "terabyte"):
        assert reduction[name, 3] < reduction[name, 5] < reduction[name, 7]
    assert 115 < reduction["kaggle", 7] < 120
