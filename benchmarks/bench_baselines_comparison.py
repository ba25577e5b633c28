"""Related-work comparison (§7): TT vs the rest of the compression zoo.

The paper argues qualitatively against each alternative; this bench makes
the comparison quantitative on one workload, matching parameter budgets:

- accuracy at equal memory: hashing (collisions), low-rank (rank ceiling)
  and TR (ring overhead) against TT, plus the two trainable-quantization
  arms — DPQ (product-quantization codebooks, straight-through gradient)
  and ALPT (integer codes with learned per-row scales);
- post-training quantization: accuracy of a trained dense model after
  4/8-bit table quantization (inference-time compression only).

Every trainable arm is built with its operator's own constructor, and
every operator reports ``memory_bytes`` under the one bag contract
(:class:`repro.ops.embedding.CompressedEmbedding`); the results land in
``BENCH_compression.json``.
"""

import numpy as np
from conftest import banner, scaled_iters

from repro.baselines import (HashedEmbeddingBag, LowRankEmbeddingBag,
                             QuantizedEmbeddingBag, TREmbeddingBag)
from repro.bench import format_table, write_bench_json
from repro.compress import ALPTEmbeddingBag, DPQEmbeddingBag
from repro.data import SyntheticCTRDataset
from repro.models.dlrm import DLRM
from repro.ops import EmbeddingBag
from repro.training import Trainer
from repro.tt import TTEmbeddingBag, TTShape
from trainlib import MIN_ROWS, small_config

ARMS = ("dense", "tt", "tr", "lowrank", "hashing", "dpq", "alpt")


def _arm_table(kind, size, dim, seed):
    """One table of the given arm, built with its operator's constructor."""
    if kind == "dense":
        return EmbeddingBag(size, dim, rng=seed, name="dense_emb")
    if kind == "tt":
        return TTEmbeddingBag(size, dim, rank=8, rng=seed)
    if kind == "tr":
        return TREmbeddingBag(size, dim, rank=4, rng=seed)
    if kind == "lowrank":
        return LowRankEmbeddingBag(size, dim, rank=2, rng=seed)
    if kind == "hashing":
        # bucket count chosen to land on the TT arm's parameter budget
        tt_params = TTShape.suggested(size, dim, d=3, rank=8).num_params()
        return HashedEmbeddingBag(size, dim, max(4, tt_params // dim), rng=seed)
    if kind == "dpq":
        return DPQEmbeddingBag(size, dim, num_subspaces=4, codebook_size=64,
                               rng=seed)
    if kind == "alpt":
        return ALPTEmbeddingBag(size, dim, bits=8, seed=seed)
    raise ValueError(kind)


def _build(spec, cfg, kind, rng_seed=0):
    """DLRM with the largest tables replaced by the given compressor."""
    rng = np.random.default_rng(rng_seed)
    big = {i for i in spec.largest(5) if spec.table_sizes[i] >= MIN_ROWS}
    embeddings = [
        _arm_table(kind if i in big else "dense", size, cfg.emb_dim, rng_seed + i)
        for i, size in enumerate(cfg.table_sizes)
    ]
    return DLRM(cfg, embeddings, rng=rng)


def _embedding_bytes(model) -> int:
    return sum(e.memory_bytes() for e in model.embeddings)


def test_training_compressors(benchmark, kaggle_small):
    iters = scaled_iters(200)
    cfg = small_config(kaggle_small)

    def run():
        out = []
        for kind in ARMS:
            ds = SyntheticCTRDataset(kaggle_small, seed=7, noise=0.7)
            model = _build(kaggle_small, cfg, kind)
            trainer = Trainer(model, lr=0.1)
            trainer.train(ds.batches(96, iters))
            ev = trainer.evaluate(ds.batches(512, 6))
            out.append([kind, model.embedding_parameters(),
                        _embedding_bytes(model),
                        f"{ev.accuracy * 100:.2f}", f"{ev.auc:.4f}"])
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("Related-work comparison: accuracy at matched embedding budgets")
    print(format_table(
        ["method", "emb params", "emb bytes", "accuracy %", "auc"], rows))
    print("\npaper (§7): hashing collisions cost accuracy at scale; low-rank "
          "cannot reach TT's compression; TR pays ring overhead for similar "
          "quality; DPQ/ALPT trade accuracy headroom for table-size-"
          "independent ratios")
    by_kind = {r[0]: r for r in rows}
    path = write_bench_json("compression", {
        "iters": iters,
        "arms": [{"kind": r[0], "emb_params": int(r[1]),
                  "emb_bytes": int(r[2]), "accuracy": float(r[3]),
                  "auc": float(r[4])} for r in rows],
    })
    print(f"\nwrote {path}")
    # Compressors all trained; TT should land within noise of dense.
    assert float(by_kind["tt"][4]) > float(by_kind["dense"][4]) - 0.05
    # Low-rank's compression ceiling: at these settings it stores more than
    # TT by construction.
    assert int(by_kind["lowrank"][1]) > int(by_kind["tt"][1])
    # Every compressed arm stores fewer embedding bytes than dense.
    for kind in ARMS[1:]:
        assert int(by_kind[kind][2]) < int(by_kind["dense"][2]), kind


def test_posttraining_quantization(benchmark, kaggle_small):
    iters = scaled_iters(200)
    cfg = small_config(kaggle_small)

    def run():
        ds = SyntheticCTRDataset(kaggle_small, seed=7, noise=0.7)
        model = _build(kaggle_small, cfg, "dense")
        trainer = Trainer(model, lr=0.1)
        trainer.train(ds.batches(96, iters))
        fp = trainer.evaluate(ds.batches(512, 6))
        out = [["fp32 (trained)", f"{fp.accuracy * 100:.2f}", f"{fp.auc:.4f}", "1x"]]
        for bits in (8, 4, 2):
            quantized = [
                QuantizedEmbeddingBag.from_dense(e.weight.data, bits=bits)
                for e in model.embeddings
            ]
            qmodel = DLRM.__new__(DLRM)
            qmodel.__dict__.update(model.__dict__)
            qmodel.embeddings = quantized
            qt = Trainer(qmodel, lr=0.1)
            ev = qt.evaluate(ds.batches(512, 6))
            ratio = quantized[0].compression_ratio()
            out.append([f"int{bits}", f"{ev.accuracy * 100:.2f}",
                        f"{ev.auc:.4f}", f"{ratio:.1f}x"])
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("Post-training quantization of the trained dense model (Guan et al.)")
    print(format_table(["precision", "accuracy %", "auc", "table compression"], rows))
    print("\npaper (§7): 4-bit post-training quantization is feasible for "
          "inference; compare its ~4-7x to TT's 100x+. (At this bench's "
          "scale the under-trained dense tables mean aggressive quantization "
          "can act as a regularizer; only int8~fp32 is asserted.)")
    aucs = [float(r[2]) for r in rows]
    assert aucs[1] > aucs[0] - 0.02  # int8 ~ lossless
    # compression ratios ascend as bits fall
    ratios = [float(r[3].rstrip("x")) for r in rows]
    assert ratios == sorted(ratios)
