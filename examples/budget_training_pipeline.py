"""End-to-end production-style pipeline: plan -> train -> checkpoint -> serve.

Chains the library's ops the way a deployment would:

1. **Plan**: pick TT ranks for a memory budget with the auto-tuner
   (`repro.analysis.autotune`) — no hand sweeping.
2. **Train**: build the planned model and train it at a constant
   learning rate.
3. **Checkpoint**: save to .npz, reload into a fresh process-like model,
   verify bit-identical predictions.
4. **Serve**: quantize the small dense tables for inference and report
   the final serving footprint.

Run:  python examples/budget_training_pipeline.py [--budget-mb 0.25]
"""

import argparse

import numpy as np

from repro import DLRMConfig, Trainer
from repro.analysis.autotune import plan_compression
from repro.baselines import QuantizedEmbeddingBag
from repro.data import KAGGLE, SyntheticCTRDataset
from repro.models import TTConfig, load_model, save_model
from repro.models.dlrm import DLRM
from repro.ops import EmbeddingBag
from repro.tt import TTEmbeddingBag


def build_from_plan(plan, cfg, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    embeddings = []
    for t in plan.tables:
        if t.compress:
            embeddings.append(TTEmbeddingBag(t.num_rows, cfg.emb_dim,
                                             rank=t.rank, rng=rng))
        else:
            embeddings.append(EmbeddingBag(t.num_rows, cfg.emb_dim, rng=rng))
    return DLRM(cfg, embeddings, rng=rng)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget-mb", type=float, default=0.25,
                        help="embedding budget for the scaled model")
    parser.add_argument("--scale", type=float, default=0.0005)
    parser.add_argument("--iters", type=int, default=300)
    parser.add_argument("--checkpoint", default="/tmp/ttrec_demo.npz")
    args = parser.parse_args()

    # 1. Plan ------------------------------------------------------------ #
    spec = KAGGLE.scaled(args.scale)
    cfg = DLRMConfig(table_sizes=spec.table_sizes, emb_dim=8,
                     bottom_mlp=(32, 16), top_mlp=(32,))
    budget_params = int(args.budget_mb * 1e6 / 4)
    plan = plan_compression(spec.table_sizes, cfg.emb_dim,
                            budget_params=budget_params, min_rows=60,
                            candidate_ranks=(2, 4, 8, 16, 32))
    print(f"plan: {len(plan.compressed_indices())} tables compressed, "
          f"{plan.total_params():,} params "
          f"({plan.total_params() * 4 / 1e6:.2f} MB), "
          f"{plan.compression_ratio():.1f}x vs dense")

    # 2. Train ----------------------------------------------------------- #
    model = build_from_plan(plan, cfg)
    ds = SyntheticCTRDataset(spec, seed=0, noise=0.7)
    trainer = Trainer(model, lr=0.15)

    losses = []
    for i, batch in enumerate(ds.batches(96, args.iters)):
        losses.append(trainer.train_step(batch))
        if (i + 1) % max(1, args.iters // 5) == 0:
            print(f"  iter {i + 1:4d}: loss={np.mean(losses[-50:]):.4f}")
    ev = trainer.evaluate(ds.batches(512, 6))
    print(f"trained: {ev}")

    # 3. Checkpoint round-trip ------------------------------------------- #
    save_model(model, args.checkpoint)
    fresh = build_from_plan(plan, cfg, rng_seed=123)
    load_model(fresh, args.checkpoint)
    probe = ds.batch(64)
    drift = np.abs(model.forward(probe.dense, probe.sparse)
                   - fresh.forward(probe.dense, probe.sparse)).max()
    print(f"checkpoint round-trip: max logit drift {drift:.2e} "
          f"({args.checkpoint})")

    # 4. Quantize the remaining dense tables for serving ------------------ #
    served_params = 0
    for i, emb in enumerate(fresh.embeddings):
        if isinstance(emb, EmbeddingBag):
            q = QuantizedEmbeddingBag.from_dense(emb.weight.data, bits=8)
            fresh.embeddings[i] = q
            served_params += q.num_parameters()
        else:
            served_params += emb.num_parameters()
    qev = Trainer(fresh).evaluate(ds.batches(512, 6))
    print(f"serving model: {served_params:,} fp32-equivalent params "
          f"({served_params * 4 / 1e6:.2f} MB), {qev}")


if __name__ == "__main__":
    main()
