"""Compression zoo: the trainable-quantization operators.

Every embedding operator subclasses
:class:`~repro.ops.embedding.CompressedEmbedding` (re-exported here) and is
built with its own constructor, so models, benches and the serving tier
swap compressors per table without caring which family they got. The zoo
is dense (:class:`~repro.ops.embedding.EmbeddingBag`), TT and cached TT
(:mod:`repro.tt`, :mod:`repro.cache`), the related-work baselines of
:mod:`repro.baselines` (tensor ring, hashing, low rank, post-training
quantization) and the two members defined in this package:
:class:`~repro.compress.dpq.DPQEmbeddingBag` and
:class:`~repro.compress.alpt.ALPTEmbeddingBag`.

See ``docs/COMPRESSION.md`` for the full zoo table.
"""

from repro.compress.alpt import ALPTEmbeddingBag
from repro.compress.dpq import DPQEmbeddingBag
from repro.ops.embedding import CompressedEmbedding

__all__ = [
    "CompressedEmbedding",
    "DPQEmbeddingBag",
    "ALPTEmbeddingBag",
]
