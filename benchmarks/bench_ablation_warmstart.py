"""Ablation: TT-SVD warm-starting from a partially-trained dense model.

The paper's §4.2 notes that *online* TT re-decomposition of learned rows
is an open problem; the *offline* direction, however, is fully supported
by this library: train a dense model, TT-SVD its tables into cores, and
continue training compressed. This bench compares:

- cold start: TT cores from the sampled-Gaussian init (the paper's path);
- warm start: TT cores from TT-SVD of a briefly-trained dense model.

Warm-starting is how one would migrate a production dense model to TT-Rec
without retraining from scratch.
"""

from conftest import banner, scaled_iters

from repro.bench import format_table
from repro.data import SyntheticCTRDataset
from repro.models import TTConfig, build_dlrm, build_ttrec
from repro.ops import EmbeddingBag
from repro.training import Trainer
from repro.tt import TTEmbeddingBag, tt_svd
from trainlib import MIN_ROWS, small_config

RANK = 16


def test_warmstart_from_dense(benchmark, kaggle_small):
    pre_iters = scaled_iters(120)
    post_iters = scaled_iters(80)
    cfg = small_config(kaggle_small)

    def run():
        # Phase 0: partially train a dense model.
        ds = SyntheticCTRDataset(kaggle_small, seed=11, noise=0.7)
        dense = build_dlrm(cfg, rng=0)
        Trainer(dense, lr=0.1).train(ds.batches(96, pre_iters))

        results = []
        for label, warm in (("cold start (sampled Gaussian)", False),
                            ("warm start (TT-SVD of dense)", True)):
            stream = SyntheticCTRDataset(kaggle_small, seed=11, noise=0.7)
            model = build_ttrec(cfg, num_tt_tables=5, tt=TTConfig(rank=RANK),
                                min_rows=MIN_ROWS, rng=1)
            if warm:
                # Copy the trained dense tables: TT tables via TT-SVD,
                # uncompressed tables verbatim, MLP towers verbatim.
                for tt_emb, dense_emb in zip(model.embeddings, dense.embeddings):
                    if isinstance(tt_emb, TTEmbeddingBag):
                        cores = tt_svd(dense_emb.weight.data, tt_emb.shape)
                        tt_emb.load_cores(cores)
                    elif isinstance(tt_emb, EmbeddingBag):
                        tt_emb.weight.data[...] = dense_emb.weight.data
                for a, b in zip(model.bottom_mlp.parameters(),
                                dense.bottom_mlp.parameters()):
                    a.data[...] = b.data
                for a, b in zip(model.top_mlp.parameters(),
                                dense.top_mlp.parameters()):
                    a.data[...] = b.data
            trainer = Trainer(model, lr=0.1)
            # Accuracy before any compressed training: the handoff quality.
            ev0 = trainer.evaluate(stream.batches(512, 4))
            res = trainer.train(stream.batches(96, post_iters))
            ev1 = trainer.evaluate(stream.batches(512, 6))
            results.append([label, f"{ev0.auc:.4f}", f"{res.smoothed_loss():.4f}",
                            f"{ev1.auc:.4f}"])
        # Reference: the dense model itself.
        dense_ev = Trainer(dense).evaluate(
            SyntheticCTRDataset(kaggle_small, seed=11, noise=0.7).batches(512, 6))
        results.append(["dense reference", "-", "-", f"{dense_ev.auc:.4f}"])
        return results

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    banner(f"Ablation: TT-SVD warm start vs cold start (TT-Emb 5, R={RANK})")
    print(format_table(
        ["initialization", "auc at handoff", "final loss", "auc after training"],
        rows,
    ))
    print("\nexpected: the warm start inherits most of the dense model's "
          "quality at handoff; both converge after continued training")
    cold_handoff = float(rows[0][1])
    warm_handoff = float(rows[1][1])
    assert warm_handoff > cold_handoff + 0.05  # inheriting beats random init
    assert float(rows[1][3]) >= warm_handoff - 0.05  # training keeps quality
