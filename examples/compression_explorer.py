"""Explore the TT compression design space for your own table sizes.

Given a table geometry (rows x dim), prints the TT-core shapes, parameter
counts, compression ratios and reconstruction-capacity proxies across
ranks and core counts — the same arithmetic behind the paper's Table 2 —
plus the whole-model view for the real Criteo Kaggle/Terabyte specs.

Run:  python examples/compression_explorer.py [--rows 10131227] [--dim 16]
"""

import argparse

from repro import TTShape
from repro.analysis.memory import model_size_table, table2_table
from repro.bench import format_table
from repro.data import KAGGLE, TERABYTE


def explore_table(rows: int, dim: int):
    print(f"TT design space for a {rows:,} x {dim} table\n")
    grid = []
    for d in (2, 3, 4):
        for rank in (8, 16, 32, 64):
            shape = TTShape.suggested(rows, dim, d=d, rank=rank)
            grid.append([
                d, rank,
                " x ".join(str(shape.paper_core_shape(k)) for k in range(shape.d)),
                shape.num_params(),
                f"{shape.compression_ratio():.0f}x",
            ])
    print(format_table(["d", "rank", "cores (R,m,n,R)", "params", "compression"], grid))
    print("\nRules of thumb: d=3 balances compression and kernel depth; "
          "rank trades accuracy for memory; padding rows is free.")


def criteo_summary():
    print("\nPaper Table 2 (Kaggle's 7 largest tables):\n")
    print(format_table(*table2_table(KAGGLE)))
    print("\nWhole-model compression (rank 32):\n")
    print(format_table(*model_size_table((KAGGLE, TERABYTE))))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=10_131_227)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--skip-criteo", action="store_true")
    args = parser.parse_args()
    explore_table(args.rows, args.dim)
    if not args.skip_criteo:
        criteo_summary()


if __name__ == "__main__":
    main()
