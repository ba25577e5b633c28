"""Tests for the feature-hashing and low-rank embedding baselines."""

import numpy as np
import pytest

from repro.baselines import HashedEmbeddingBag, LowRankEmbeddingBag
from tests.helpers import numeric_grad_check, random_csr


class TestHashedEmbeddingBag:
    def test_compression_ratio(self):
        emb = HashedEmbeddingBag(10_000, 8, num_buckets=100, rng=0)
        assert emb.compression_ratio() == 100.0
        assert emb.num_parameters() == 100 * 8

    def test_deterministic_mapping(self):
        emb = HashedEmbeddingBag(1000, 4, num_buckets=50, rng=0)
        idx = np.arange(100)
        np.testing.assert_allclose(emb.lookup(idx), emb.lookup(idx))

    def test_collisions_share_rows(self):
        emb = HashedEmbeddingBag(1000, 4, num_buckets=2, rng=0)
        rows = emb.lookup(np.arange(100))
        # With 2 buckets there are at most 2 distinct unsigned rows.
        assert np.unique(np.round(rows, 12), axis=0).shape[0] <= 2

    def test_signed_hash_flips_some_rows(self):
        emb = HashedEmbeddingBag(1000, 4, num_buckets=2, signed=True, rng=0)
        rows = emb.lookup(np.arange(200))
        # signed variant can produce up to 4 distinct rows (2 buckets x ±1)
        distinct = np.unique(np.round(rows, 12), axis=0).shape[0]
        assert 2 < distinct <= 4

    def test_forward_matches_underlying_table(self):
        emb = HashedEmbeddingBag(500, 4, num_buckets=32, rng=0)
        idx = np.array([7, 13])
        out = emb.forward(idx, np.array([0, 2]))
        np.testing.assert_allclose(out[0], emb.lookup(idx).sum(axis=0), atol=1e-12)

    def test_gradient_flows_to_buckets(self):
        rng = np.random.default_rng(0)
        emb = HashedEmbeddingBag(200, 4, num_buckets=16, signed=True, rng=0)
        idx, off = random_csr(rng, 200, 5)
        r = rng.normal(size=(5, 4))

        def loss():
            return float((emb.forward(idx, off) * r).sum())

        emb.zero_grad()
        emb.forward(idx, off)
        emb.backward(r)
        numeric_grad_check(emb.table.weight.data, emb.table.weight.dense_grad(), loss,
                           samples=20)

    def test_validation(self):
        with pytest.raises(ValueError):
            HashedEmbeddingBag(100, 4, num_buckets=0)
        with pytest.raises(ValueError):
            HashedEmbeddingBag(100, 4, num_buckets=200)

    def test_salt_changes_mapping(self):
        a = HashedEmbeddingBag(1000, 4, num_buckets=64, salt=0, rng=0)
        b = HashedEmbeddingBag(1000, 4, num_buckets=64, salt=1, rng=0)
        ha, _ = a._hash(np.arange(100))
        hb, _ = b._hash(np.arange(100))
        assert not np.array_equal(ha, hb)


class TestLowRankEmbeddingBag:
    def test_lookup_is_factor_product(self):
        emb = LowRankEmbeddingBag(100, 8, rank=3, rng=0)
        idx = np.array([5, 10])
        expected = emb.factor_a.data[idx] @ emb.factor_b.data
        np.testing.assert_allclose(emb.lookup(idx), expected)

    def test_materialize_shape_and_rank(self):
        emb = LowRankEmbeddingBag(50, 8, rank=2, rng=0)
        table = emb.materialize()
        assert table.shape == (50, 8)
        assert np.linalg.matrix_rank(table) <= 2

    def test_compression_ratio(self):
        emb = LowRankEmbeddingBag(1000, 16, rank=4, rng=0)
        expected = 1000 * 16 / (1000 * 4 + 4 * 16)
        assert emb.compression_ratio() == pytest.approx(expected)

    def test_init_variance_matches_dlrm_default(self):
        emb = LowRankEmbeddingBag(400, 64, rank=16, rng=0)
        table = emb.materialize()
        assert table.var() == pytest.approx(1 / (3 * 400), rel=0.4)

    @pytest.mark.parametrize("mode", ["sum", "mean"])
    def test_gradients(self, mode):
        rng = np.random.default_rng(1)
        emb = LowRankEmbeddingBag(60, 6, rank=3, mode=mode, rng=0)
        idx, off = random_csr(rng, 60, 5)
        alpha = rng.normal(size=idx.size) if mode == "sum" else None
        r = rng.normal(size=(5, 6))

        def loss():
            return float((emb.forward(idx, off, alpha) * r).sum())

        emb.zero_grad()
        emb.forward(idx, off, alpha)
        emb.backward(r)
        numeric_grad_check(emb.factor_a.data, emb.factor_a.dense_grad(), loss, samples=15)
        numeric_grad_check(emb.factor_b.data, emb.factor_b.dense_grad(), loss, samples=15)

    def test_pooling_matches_row_sum(self):
        emb = LowRankEmbeddingBag(60, 6, rank=3, rng=0)
        idx = np.array([1, 2, 3])
        out = emb.forward(idx, np.array([0, 3]))
        np.testing.assert_allclose(out[0], emb.lookup(idx).sum(axis=0), atol=1e-12)

    def test_empty_bag(self):
        emb = LowRankEmbeddingBag(60, 6, rank=3, rng=0)
        out = emb.forward(np.array([1]), np.array([0, 0, 1]))
        np.testing.assert_allclose(out[0], 0.0)

    def test_touched_rows_recorded(self):
        emb = LowRankEmbeddingBag(60, 6, rank=3, rng=0)
        emb.forward(np.array([9, 4, 9]), np.array([0, 3]))
        emb.backward(np.ones((1, 6)))
        np.testing.assert_array_equal(emb.factor_a.grad.rows, [4, 9])

    def test_validation(self):
        with pytest.raises(ValueError):
            LowRankEmbeddingBag(100, 8, rank=0)
        with pytest.raises(ValueError):
            LowRankEmbeddingBag(100, 8, rank=9)
        with pytest.raises(ValueError):
            LowRankEmbeddingBag(100, 8, rank=4, mode="max")
        emb = LowRankEmbeddingBag(100, 8, rank=4, rng=0)
        with pytest.raises(RuntimeError):
            emb.backward(np.ones((1, 8)))
