"""Regression tests: every embedding operator must handle all-empty bags.

Production traffic contains samples whose categorical feature is missing;
a batch can be entirely empty for a given table. Forward must return
zeros, backward must be a no-op (or NotImplementedError for the
inference-only quantized operator).
"""

import numpy as np
import pytest

from repro.baselines import (
    HashedEmbeddingBag,
    LowRankEmbeddingBag,
    QuantizedEmbeddingBag,
    TREmbeddingBag,
)
from repro.cache import CachedTTEmbeddingBag
from repro.ops import EmbeddingBag
from repro.tt import T3nsorEmbeddingBag, TTEmbeddingBag

EMPTY = np.empty(0, dtype=np.int64)
OFFSETS = np.zeros(4, dtype=np.int64)  # 3 empty bags


def all_operators():
    return [
        EmbeddingBag(60, 8, rng=0),
        TTEmbeddingBag(60, 8, rank=2, rng=0),
        TTEmbeddingBag(60, 8, rank=2, dedup=True, rng=0),
        T3nsorEmbeddingBag(60, 8, rank=2, rng=0),
        TREmbeddingBag(60, 8, rank=2, rng=0),
        LowRankEmbeddingBag(60, 8, rank=2, rng=0),
        HashedEmbeddingBag(60, 8, num_buckets=10, rng=0),
        CachedTTEmbeddingBag(60, 8, rank=2, cache_size=4, warmup_steps=0, rng=0),
        QuantizedEmbeddingBag.from_dense(np.zeros((60, 8)), bits=4),
    ]


@pytest.mark.parametrize("emb", all_operators(),
                         ids=lambda e: type(e).__name__ + (
                             "-dedup" if getattr(e, "dedup", False) else ""))
class TestEmptyBatch:
    def test_forward_zero_output(self, emb):
        out = emb.forward(EMPTY, OFFSETS)
        assert out.shape == (3, 8)
        assert not out.any()

    def test_backward_noop_or_unsupported(self, emb):
        emb.forward(EMPTY, OFFSETS)
        try:
            emb.backward(np.ones((3, 8)))
        except NotImplementedError:
            return  # inference-only operator
        for p in getattr(emb, "parameters", lambda: [])():
            assert not p.dense_grad().any()

    def test_mixed_empty_and_nonempty_bags(self, emb):
        idx = np.array([5, 7], dtype=np.int64)
        off = np.array([0, 0, 2, 2], dtype=np.int64)  # bag 1 has both rows
        out = emb.forward(idx, off)
        assert out.shape == (3, 8)
        assert not out[0].any() and not out[2].any()
        rows = emb.lookup(idx)
        np.testing.assert_allclose(out[1], rows.sum(axis=0), atol=1e-10)
