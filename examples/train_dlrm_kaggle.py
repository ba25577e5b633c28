"""Train baseline DLRM vs TT-Rec on Kaggle-shaped synthetic CTR data.

Reproduces the paper's headline experiment in miniature: the MLPerf-DLRM
architecture with the 26 Criteo-Kaggle categorical features (scaled for
CPU), trained with plain SGD, comparing:

- the uncompressed baseline,
- TT-Rec with the 7 largest tables compressed (rank 32),
- TT-Rec + LFU cache (the full system).

Prints per-model size, training time and validation metrics. Pass
``--iters`` / ``--scale`` to trade fidelity for runtime.

Run:  python examples/train_dlrm_kaggle.py [--iters 400] [--scale 0.001]
"""

import argparse

from repro import DLRMConfig, TTConfig, Trainer, build_dlrm, build_ttrec
from repro.data import KAGGLE, SyntheticCTRDataset


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=400)
    parser.add_argument("--eval-iters", type=int, default=8)
    parser.add_argument("--batch-size", type=int, default=128)
    parser.add_argument("--scale", type=float, default=0.001,
                        help="table-size scale factor vs the real Kaggle spec")
    parser.add_argument("--rank", type=int, default=32)
    args = parser.parse_args()

    spec = KAGGLE.scaled(args.scale)
    cfg = DLRMConfig(table_sizes=spec.table_sizes, emb_dim=16,
                     bottom_mlp=(128, 64, 32), top_mlp=(128, 64))

    candidates = {
        "baseline DLRM": lambda: build_dlrm(cfg, rng=0),
        f"TT-Rec (7 tables, R={args.rank})": lambda: build_ttrec(
            cfg, num_tt_tables=7, tt=TTConfig(rank=args.rank),
            min_rows=60, rng=0),
        f"TT-Rec + LFU cache": lambda: build_ttrec(
            cfg, num_tt_tables=7,
            tt=TTConfig(rank=args.rank, use_cache=True, cache_fraction=0.01,
                        warmup_steps=args.iters // 10, refresh_interval=200),
            min_rows=60, rng=0),
    }

    print(f"spec: {spec.name}, largest table {max(spec.table_sizes):,} rows\n")
    for name, build in candidates.items():
        model = build()
        trainer = Trainer(model, lr=0.1)
        # Train and evaluate on one stream: the evaluation batches are
        # held-out samples from the same planted distribution.
        stream = SyntheticCTRDataset(spec, seed=1, noise=0.7).batches(
            args.batch_size, args.iters + args.eval_iters)
        res = trainer.train(stream, max_iters=args.iters)
        ev = trainer.evaluate(stream, max_iters=args.eval_iters)
        emb_mb = model.embedding_parameters() * 4 / 1e6
        print(f"{name}")
        print(f"  embedding params: {model.embedding_parameters():>12,} "
              f"({emb_mb:.2f} MB)")
        print(f"  training:         {res.ms_per_iter:>8.2f} ms/iter "
              f"(final loss {res.smoothed_loss():.4f})")
        print(f"  validation:       {ev}")
        print()


if __name__ == "__main__":
    main()
