"""Shared training helpers for the training-based benchmark experiments.

All timing here is routed through the telemetry tracer: model
construction, the training loop and evaluation each run inside a span
(``bench.build`` / ``bench.train`` / ``bench.eval``), and the trainer
itself records per-stage spans. Benchmarks that call
:func:`repro.bench.write_bench_json` therefore get the full span tree in
their ``BENCH_<name>.json`` for free (tracing is enabled session-wide by
``conftest.py``).
"""

from __future__ import annotations

from repro.cache import CachedTTEmbeddingBag
from repro.data import SyntheticCTRDataset
from repro.data.specs import DatasetSpec
from repro.models import DLRMConfig, TTConfig, build_dlrm, build_ttrec
from repro.telemetry import trace
from repro.training import Trainer

# All training benches compress tables above this row count in the scaled
# specs. The scaled (0.0005) Kaggle top-7 tables have 5066..71 rows, so a
# threshold of 60 keeps "TT-Emb of 3/5/7" selecting genuinely different
# table sets, mirroring the paper's settings.
MIN_ROWS = 60


def small_config(spec: DatasetSpec, emb_dim: int = 8) -> DLRMConfig:
    return DLRMConfig(
        table_sizes=spec.table_sizes, emb_dim=emb_dim,
        bottom_mlp=(32, 16), top_mlp=(32,),
    )


def train_and_eval(spec: DatasetSpec, *, num_tt: int = 0, tt: TTConfig | None = None,
                   iters: int = 200, batch_size: int = 96, seed: int = 0,
                   emb_dim: int = 8, noise: float = 0.7, lr: float = 0.1,
                   init_override=None):
    """Train one model; returns ``(TrainResult, EvalResult, hit_rate)``.

    ``hit_rate`` is the best cache hit rate over the model's cached TT
    tables when training ends (0.0 without any), taken before evaluation:
    an evaluation read leaves the cache schedule alone but still counts
    the lookups it serves. ``init_override`` replaces the dense-table
    initializer of the *uncompressed* baseline (Table 1 experiment).
    """
    ds = SyntheticCTRDataset(spec, seed=seed, noise=noise)
    cfg = small_config(spec, emb_dim)
    with trace("bench.build", num_tt=num_tt):
        if num_tt == 0:
            if init_override is not None:
                from repro.models.dlrm import DLRM
                from repro.ops import EmbeddingBag

                embeddings = [
                    EmbeddingBag(s, cfg.emb_dim, initializer=init_override(s),
                                 rng=seed + i)
                    for i, s in enumerate(cfg.table_sizes)
                ]
                model = DLRM(cfg, embeddings, rng=seed)
            else:
                model = build_dlrm(cfg, rng=seed)
        else:
            model = build_ttrec(cfg, num_tt_tables=num_tt, tt=tt or TTConfig(),
                                min_rows=MIN_ROWS, rng=seed)
    trainer = Trainer(model, lr=lr)
    with trace("bench.train", num_tt=num_tt):
        res = trainer.train(ds.batches(batch_size, iters))
    hit_rate = max((e.hit_rate() for e in model.embeddings
                    if isinstance(e, CachedTTEmbeddingBag)), default=0.0)
    with trace("bench.eval", num_tt=num_tt):
        ev = trainer.evaluate(ds.batches(512, 6))
    return res, ev, hit_rate
