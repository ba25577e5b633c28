"""Compression zoo: one interface over every embedding compressor.

Importing this package registers all built-in compressors, so
``make_embedding(spec)`` can build any of them — and what it returns *is*
the operator class listed here, not a wrapper around it:

=============  ==========================================================
kind           operator
=============  ==========================================================
``dense``      :class:`~repro.ops.embedding.EmbeddingBag`
``tt``         :class:`~repro.tt.embedding_bag.TTEmbeddingBag`
``cached_tt``  :class:`~repro.cache.cached_embedding.CachedTTEmbeddingBag`
``tr``         :class:`~repro.baselines.tensor_ring.TREmbeddingBag`
``hash``       :class:`~repro.baselines.hashing.HashedEmbeddingBag`
``lowrank``    :class:`~repro.baselines.lowrank.LowRankEmbeddingBag`
``quant``      :class:`~repro.baselines.quantization.QuantizedEmbeddingBag`
``dpq``        :class:`~repro.compress.dpq.DPQEmbeddingBag`
``alpt``       :class:`~repro.compress.alpt.ALPTEmbeddingBag`
=============  ==========================================================

See ``docs/COMPRESSION.md`` for the full zoo table.
"""

from repro.baselines import (HashedEmbeddingBag, LowRankEmbeddingBag,
                             QuantizedEmbeddingBag, TREmbeddingBag)
from repro.cache.cached_embedding import CachedTTEmbeddingBag
from repro.compress.alpt import ALPTEmbeddingBag
from repro.compress.base import (
    CompressedEmbedding,
    EmbeddingSpec,
    compressor_class,
    make_embedding,
    predict_memory_bytes,
    register_compressor,
    registered_kinds,
)
from repro.compress.dpq import DPQEmbeddingBag
from repro.ops.embedding import EmbeddingBag
from repro.tt.embedding_bag import TTEmbeddingBag

# Every operator carries its own ``kind``, ``from_spec`` and
# ``predict_memory_bytes`` (most live below this package and cannot import
# it); listing them here is all the zoo adds.
for _cls in (EmbeddingBag, TTEmbeddingBag, CachedTTEmbeddingBag, TREmbeddingBag,
             HashedEmbeddingBag, LowRankEmbeddingBag, QuantizedEmbeddingBag,
             DPQEmbeddingBag, ALPTEmbeddingBag):
    register_compressor(_cls)

__all__ = [
    "CompressedEmbedding",
    "EmbeddingSpec",
    "compressor_class",
    "make_embedding",
    "predict_memory_bytes",
    "register_compressor",
    "registered_kinds",
    "DPQEmbeddingBag",
    "ALPTEmbeddingBag",
]
