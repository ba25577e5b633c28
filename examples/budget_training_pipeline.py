"""End-to-end production-style pipeline: plan -> train -> checkpoint -> serve.

Chains the library's ops the way a deployment would:

1. **Plan**: pick a compressor and its knobs per table for a byte budget
   with the budget planner (`repro.compress.BudgetPlanner`, the one behind
   `repro plan-budget`) — no hand sweeping.
2. **Train**: build the planned model (`repro.models.ttrec.build_from_plan`)
   and train it at a constant learning rate.
3. **Checkpoint**: save with `CheckpointManager` (parameters plus each
   table's extra state, such as ALPT's integer codes), restore into a
   fresh build of the plan, verify bit-identical predictions.
4. **Serve**: quantize the small dense tables for inference and report
   the final serving footprint.

Run:  python examples/budget_training_pipeline.py [--budget-mb 0.25]
"""

import argparse
import tempfile

import numpy as np

from repro import DLRMConfig, Trainer
from repro.baselines import QuantizedEmbeddingBag
from repro.compress import BudgetPlanner, TableStats
from repro.data import KAGGLE, SyntheticCTRDataset
from repro.models.ttrec import build_from_plan
from repro.ops import EmbeddingBag
from repro.reliability import CheckpointManager


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget-mb", type=float, default=0.25,
                        help="embedding budget for the scaled model")
    parser.add_argument("--scale", type=float, default=0.0005)
    parser.add_argument("--iters", type=int, default=300)
    parser.add_argument("--checkpoint", default=None,
                        help="checkpoint directory (default: a new temporary one)")
    args = parser.parse_args()
    checkpoint_dir = args.checkpoint or tempfile.mkdtemp(prefix="ttrec_demo_")

    # 1. Plan ------------------------------------------------------------ #
    spec = KAGGLE.scaled(args.scale)
    cfg = DLRMConfig(table_sizes=spec.table_sizes, emb_dim=8,
                     bottom_mlp=(32, 16), top_mlp=(32,))
    tables = [TableStats(num_rows=n, dim=cfg.emb_dim, name=f"emb{i}")
              for i, n in enumerate(spec.table_sizes)]
    plan = BudgetPlanner(tables, min_compress_rows=60).plan(
        int(args.budget_mb * 1e6))
    print(f"plan: {plan.total_bytes():,} B of {plan.budget_bytes:,} B, "
          f"{plan.compression_ratio():.1f}x vs dense, "
          f"kinds {sorted(set(plan.kinds()))}")

    # 2. Train ----------------------------------------------------------- #
    model = build_from_plan(plan, config=cfg, rng=0)
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
    manager = CheckpointManager(checkpoint_dir)
    manager.save(args.iters, model)
    fresh = build_from_plan(plan, config=cfg, rng=123)
    manager.restore(fresh, step=args.iters)
    probe = ds.batch(64)
    drift = np.abs(model.forward(probe.dense, probe.sparse)
                   - fresh.forward(probe.dense, probe.sparse)).max()
    print(f"checkpoint round-trip: max logit drift {drift:.2e} "
          f"({checkpoint_dir})")

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
