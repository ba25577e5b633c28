"""``EmbeddingSpec`` and the compressor registry over the bag contract.

Every embedding operator of the repo — dense, TT, cached TT, tensor-ring,
hashing, low-rank, post-training quantization, DPQ and ALPT — subclasses
:class:`~repro.ops.embedding.CompressedEmbedding` (defined beside
``segment_sum`` in :mod:`repro.ops.embedding`, below this package, and
re-exported here), so models, benches and the serving tier can swap
compressors per table without caring which family they got. The zoo
members *are* the operators: there is no wrapper between a registered
``kind`` and the class that computes.

This module adds what turns those classes into a zoo: the
:class:`EmbeddingSpec` value (kind + shape + per-kind knobs)
and the ``kind -> class`` registry. ``make_embedding(spec)`` is the one
factory — ``compressor_class(spec.kind).from_spec(spec)``, returning the
native operator — and ``predict_memory_bytes(spec)`` answers the same
question *without* building: each class predicts exactly what its
instance will report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ops.embedding import CompressedEmbedding

__all__ = [
    "EmbeddingSpec",
    "CompressedEmbedding",
    "register_compressor",
    "registered_kinds",
    "compressor_class",
    "make_embedding",
    "predict_memory_bytes",
]


@dataclass(frozen=True)
class EmbeddingSpec:
    """One table's compressor choice: kind + shape + kind-specific knobs.

    ``params`` holds the per-kind knobs (``rank``, ``num_buckets``,
    ``bits``, ``codebook_size`` ...); unknown keys are rejected by the
    compressor's ``from_spec`` so a typo'd knob fails loudly.
    """

    kind: str
    num_rows: int
    dim: int
    mode: str = "sum"
    seed: int = 0
    name: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.num_rows <= 0 or self.dim <= 0:
            raise ValueError(
                f"num_rows and dim must be positive, got {self.num_rows}, {self.dim}"
            )

    def get(self, key: str, default=None):
        return self.params.get(key, default)


# ---------------------------------------------------------------------- #
# Registry + factory
# ---------------------------------------------------------------------- #

_REGISTRY: dict[str, type[CompressedEmbedding]] = {}


def register_compressor(cls: type[CompressedEmbedding]):
    """Register ``cls`` under its ``kind`` key (usable as a class decorator)."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must set a non-empty 'kind'")
    if cls.kind in _REGISTRY:
        raise ValueError(f"compressor kind {cls.kind!r} already registered")
    _REGISTRY[cls.kind] = cls
    return cls


def registered_kinds() -> list[str]:
    return sorted(_REGISTRY)


def compressor_class(kind: str) -> type[CompressedEmbedding]:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown compressor kind {kind!r}; registered: {registered_kinds()}"
        ) from None


def make_embedding(spec: EmbeddingSpec) -> CompressedEmbedding:
    """Build the registered compressor for ``spec`` — the zoo's one door."""
    return compressor_class(spec.kind).from_spec(spec)


def predict_memory_bytes(spec: EmbeddingSpec) -> int:
    """``memory_bytes()`` the built compressor would report, without building."""
    return compressor_class(spec.kind).predict_memory_bytes(spec)
