"""Embedding-compression baselines from the paper's Related Work (§7).

The paper positions TT-Rec against three families of embedding-table
compression, each implemented here as a direct subclass of the one bag
contract (:class:`repro.ops.embedding.CompressedEmbedding`) — the class
supplies its rows and their gradients, the base class the bag — so they
slot into the DLRM, the compression zoo and the serving tier
unchanged:

- :class:`~repro.baselines.hashing.HashedEmbeddingBag` — the feature
  hashing ("hashing trick") of Weinberger et al. 2009; collisions trade
  memory for accuracy.
- :class:`~repro.baselines.lowrank.LowRankEmbeddingBag` — two-factor
  low-rank embeddings (W = A B), the approach of Ghaemmaghami et al. 2020.
- :class:`~repro.baselines.quantization.QuantizedEmbeddingBag` — uniform
  post-training row-wise quantization (Guan et al. 2019's 4-bit scheme,
  generalised to any bit width); inference-only, like the original.
- :class:`~repro.baselines.tensor_ring.TREmbeddingBag` — Tensor-Ring
  decomposition (Wang et al. 2018), the closest tensorization alternative
  to TT; the paper notes TR preserves weights at moderately lower
  compression ratios.
"""

from repro.baselines.hashing import HashedEmbeddingBag
from repro.baselines.lowrank import LowRankEmbeddingBag
from repro.baselines.quantization import QuantizedEmbeddingBag, quantize_rows
from repro.baselines.tensor_ring import TREmbeddingBag, TRShape

__all__ = [
    "HashedEmbeddingBag",
    "LowRankEmbeddingBag",
    "QuantizedEmbeddingBag",
    "quantize_rows",
    "TREmbeddingBag",
    "TRShape",
]
