"""TT-Rec reproduction: Tensor-Train compression for DLRM embeddings.

Reproduction of Yin, Acun, Liu & Wu, "TT-Rec: Tensor Train Compression for
Deep Learning Recommendation Model Embeddings", MLSys 2021 — implemented
from scratch in NumPy (TT kernels, DLRM, LFU cache, data substrate,
benchmark harness). See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import TTEmbeddingBag
    emb = TTEmbeddingBag(num_rows=1_000_000, dim=16, rank=32, rng=0)
    vectors = emb.lookup([3, 14, 15])           # (3, 16) rows
    print(emb.compression_ratio())              # hundreds x

    from repro import DLRMConfig, build_ttrec, TTConfig
    from repro.data import KAGGLE, SyntheticCTRDataset
    spec = KAGGLE.scaled(0.001)
    model = build_ttrec(DLRMConfig(table_sizes=spec.table_sizes),
                        num_tt_tables=7, tt=TTConfig(rank=32), min_rows=500)
"""

from repro.baselines import (
    HashedEmbeddingBag,
    LowRankEmbeddingBag,
    QuantizedEmbeddingBag,
    TREmbeddingBag,
)
from repro.cache import CachedTTEmbeddingBag, LFUTracker, OpenAddressingHashTable
from repro.models import (
    DLRM,
    DLRMConfig,
    TTConfig,
    build_dlrm,
    build_ttrec,
)
from repro.ops import SGD, Adagrad, EmbeddingBag, SparseSGD
from repro.reliability import (
    CheckpointManager,
    DivergenceGuard,
    FaultInjector,
    FaultSpec,
    GuardPolicy,
)
from repro.telemetry import (
    MetricsRegistry,
    disable_tracing,
    enable_tracing,
    get_registry,
    get_tracer,
    trace,
)
from repro.training import EvalResult, Trainer, TrainResult
from repro.tt import (
    T3nsorEmbeddingBag,
    TTEmbeddingBag,
    TTShape,
    tt_reconstruct,
    tt_svd,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # TT core
    "TTShape",
    "TTEmbeddingBag",
    "T3nsorEmbeddingBag",
    "tt_svd",
    "tt_reconstruct",
    # baseline ops
    "EmbeddingBag",
    "SGD",
    "SparseSGD",
    "Adagrad",
    # cache
    "CachedTTEmbeddingBag",
    "LFUTracker",
    "OpenAddressingHashTable",
    # model
    "DLRM",
    "DLRMConfig",
    "TTConfig",
    "build_dlrm",
    "build_ttrec",
    # training
    "Trainer",
    "TrainResult",
    "EvalResult",
    # telemetry (metrics registry, tracing spans, JSONL events)
    "MetricsRegistry",
    "get_registry",
    "trace",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    # reliability (fault injection, checkpoint/resume, divergence guard)
    "FaultInjector",
    "FaultSpec",
    "CheckpointManager",
    "DivergenceGuard",
    "GuardPolicy",
    # compression baselines (related work)
    "HashedEmbeddingBag",
    "LowRankEmbeddingBag",
    "QuantizedEmbeddingBag",
    "TREmbeddingBag",
]
