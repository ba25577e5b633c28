"""Tensor-Train compressed embeddings (the paper's core contribution).

Public surface:

- :class:`~repro.tt.shapes.TTShape` — shape/rank bookkeeping and
  compression-ratio arithmetic (paper Table 2).
- :class:`~repro.tt.embedding_bag.TTEmbeddingBag` — the TT-EmbeddingBag
  operator (paper Algorithms 1 & 2) with bag pooling.
- :func:`~repro.tt.decomposition.tt_svd` /
  :func:`~repro.tt.decomposition.tt_reconstruct` — TT-SVD of a dense
  matrix and exact reconstruction from cores.
- :mod:`~repro.tt.initialization` — core initializers including the
  sampled-Gaussian scheme (paper Algorithm 3, §3.2).
- :class:`~repro.tt.t3nsor.T3nsorEmbeddingBag` — the decompress-on-the-fly
  SOTA baseline the paper compares against (Fig. 8).
- :mod:`~repro.tt.planner` — the one chain executor: per-batch dedup,
  Algorithm 1's chain, pooled buffers (docs/KERNELS.md).
"""

from repro.tt.decomposition import tt_reconstruct, tt_svd
from repro.tt.embedding_bag import TTEmbeddingBag
from repro.tt.initialization import (
    gaussian_initializer,
    kl_uniform_gaussian,
    optimal_gaussian_for_uniform,
    sampled_gaussian_cores,
    tt_core_initializer,
)
from repro.tt.planner import BatchPlan, BufferPool, ExecutionPlanner, chain_flops
from repro.tt.shapes import TTShape
from repro.tt.t3nsor import T3nsorEmbeddingBag

__all__ = [
    "TTShape",
    "TTEmbeddingBag",
    "T3nsorEmbeddingBag",
    "BatchPlan",
    "BufferPool",
    "ExecutionPlanner",
    "chain_flops",
    "tt_svd",
    "tt_reconstruct",
    "tt_core_initializer",
    "sampled_gaussian_cores",
    "gaussian_initializer",
    "kl_uniform_gaussian",
    "optimal_gaussian_for_uniform",
]
